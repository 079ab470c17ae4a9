package main

import (
	"errors"
	"runtime"
	"time"
)

// probeCore times the controller calls the end-to-end run cannot separate:
// a re-evaluation pass right after a mutation and over an unchanged ledger,
// a node failure and recovery under a resident, and Register of the arriving
// bundle with one evaluation worker against GOMAXPROCS of them, counting
// what one serial Register allocates. It mutates the shadow and runs last.
func probeCore(p *probeCtx, res *Result) error {
	ctrl := p.sh.ctrl

	ns, n := timeOp(probeBudget, 1, func() { ctrl.Reevaluate() })
	res.set("core.reeval_noop_ms", "ms", ms(ns), n)

	var event Samples
	var parallel Samples
	for i := 0; i < 8; i++ {
		t0 := time.Now()
		inst, _, err := ctrl.Register(p.bundle)
		if err != nil {
			return err
		}
		parallel.add(time.Since(t0))
		t0 = time.Now()
		ctrl.Reevaluate()
		event.add(time.Since(t0))
		if _, err := ctrl.Unregister(inst); err != nil {
			return err
		}
	}
	res.set("core.reeval_event_ms", "ms", median(event), len(event))

	asg := p.residentEvent.Assignment
	if asg == nil || len(asg.Nodes) == 0 {
		return errors.New("probe core: resident has no placement")
	}
	host := asg.Nodes[len(asg.Nodes)-1].Hostname
	var down Samples
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := ctrl.MarkNodeDown(host); err != nil {
			return err
		}
		if _, err := ctrl.MarkNodeUp(host); err != nil {
			return err
		}
		down.add(time.Since(t0))
	}
	res.set("core.node_down_ms", "ms", median(down), len(down))

	// The same registrations on a controller with EvalWorkers=1.
	serial, err := newShadow(p.in.Workload, 1, nil)
	if err != nil {
		return err
	}
	defer serial.Close()
	for _, app := range p.in.Residents {
		if _, _, err := serial.admit(app, 0); err != nil {
			return err
		}
	}
	var one Samples
	var mallocs, bytes uint64
	var before, after runtime.MemStats
	for i := 0; i < 8; i++ {
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		inst, _, err := serial.ctrl.Register(p.bundle)
		took := time.Since(t0)
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		one.add(took)
		mallocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
		if _, err := serial.ctrl.Unregister(inst); err != nil {
			return err
		}
	}
	rounds := float64(len(one))
	res.set("core.register_allocs", "count", float64(mallocs)/rounds, len(one))
	res.set("core.register_alloc_kb", "KB", float64(bytes)/rounds/1024, len(one))
	res.set("core.parallel_speedup", "ratio", median(one)/median(parallel), len(one))
	return nil
}
