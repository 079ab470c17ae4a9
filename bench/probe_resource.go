package main

import (
	"errors"

	"harmony/internal/resource"
)

// sink keeps the probes' results alive, so the compiler cannot drop a call
// whose value nothing reads.
var sink any

// probeResource times the copy-on-write ledger view: capturing a snapshot
// after a mutation (the cached base is rebuilt), forking it, reserving a
// resident's claim in a fork, and listing its nodes sorted.
func probeResource(p *probeCtx, res *Result) error {
	ledger := p.sh.ctrl.Ledger()
	claims := ledger.Claims()
	if len(claims) == 0 {
		return errors.New("probe resource: resident ledger holds no claim")
	}
	claim := claims[len(claims)-1]
	host := claim.Nodes[0].Hostname

	var rerr error
	ns, n := timeOp(probeBudget, 1, func() {
		// A reserve and release of nothing invalidates the cached base and
		// leaves the ledger as it was.
		c, err := ledger.Reserve("probe", []resource.NodeClaim{{Hostname: host}}, nil)
		if err == nil {
			err = ledger.Release(c.ID)
		}
		if err != nil {
			rerr = err
		}
		sink = ledger.Snapshot()
	})
	if rerr != nil {
		return rerr
	}
	mutate, _ := timeOp(probeBudget/4, 1, func() {
		if c, err := ledger.Reserve("probe", []resource.NodeClaim{{Hostname: host}}, nil); err == nil {
			_ = ledger.Release(c.ID)
		}
	})
	res.set("resource.snapshot_us", "us", us(ns-mutate), n)

	snap := ledger.Snapshot()
	ns, n = timeOp(probeBudget, 1000, func() { sink = snap.Fork() })
	res.set("resource.fork_ns", "ns", ns, n)

	freed := snap.Fork()
	if err := freed.Release(claim.ID); err != nil {
		return err
	}
	ns, n = timeOp(probeBudget, 1, func() {
		if _, err := freed.Fork().Reserve("probe", claim.Nodes, claim.Links); err != nil {
			rerr = err
		}
	})
	if rerr != nil {
		return rerr
	}
	res.set("resource.reserve_us", "us", us(ns), n)

	ns, n = timeOp(probeBudget, 1, func() { sink = snap.Nodes() })
	res.set("resource.nodes_us", "us", us(ns), n)
	return nil
}
