package main

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"time"
)

// tailOf reports percentile p of the samples in milliseconds, or 0 when
// fewer than ten samples lie beyond it: an unsupported tail is not reported.
func tailOf(s Samples, p float64) float64 {
	if !tailSupported(len(s), p) {
		return 0
	}
	return quantile(s.sorted(), p)
}

// orZero applies f to the samples, or reports 0 for a timing the workload
// never exercised.
func orZero(s Samples, f func([]float64) float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return f(s)
}

// runTraced produces the per-layer metrics. One deployment is measured for
// half the window untraced and half with a span around every client call;
// a replicated deployment then has its follower lag sampled and its leader
// killed failoverKills times. After the children are gone the recorded
// operations are replayed on a shadow controller that records a span per
// call the server's handlers make, and micro-probes time what those spans
// cannot separate. A per-layer metric the workload does not exercise is
// reported as 0.
func runTraced(ctx context.Context, cfg RunConfig, in *Inputs, dir string, res *Result) error {
	w := in.Workload
	rec := newRecorder()
	l, _, err := setUp(ctx, cfg, in, filepath.Join(dir, "setup"))
	if err != nil {
		return err
	}
	defer l.Close()
	half := time.Duration(cfg.Seconds * float64(time.Second) / 2)
	plain, err := l.s.window(ctx, half)
	if err != nil {
		return err
	}
	l.s.rec = rec
	traced, err := l.s.window(ctx, half)
	if err != nil {
		return err
	}
	for _, st := range []*windowStats{plain, traced} {
		res.absorb(st.attempted, st.failed, st.failures)
		if st.cycles == 0 {
			return fmt.Errorf("no writer cycle completed in %v", half)
		}
	}

	var lag Samples
	fo := &failoverStats{}
	var termBefore, termAfter uint64
	if w.Members > 1 {
		if termBefore, err = leaderTerm(l.dep); err != nil {
			return err
		}
		if lag, err = followerLag(ctx, l, 20); err != nil {
			return err
		}
		if fo, err = failover(ctx, l); err != nil {
			return err
		}
		res.absorb(fo.attempted, fo.failed, fo.notes)
		if termAfter, err = leaderTerm(l.dep); err != nil {
			return err
		}
	}
	l.s.rec = nil

	var v verdict
	finals := collectFinal(l.dep, &v)
	a, f, notes := l.s.residentFailures()
	res.absorb(a, f, notes)
	stats := l.s.clientStats()
	ops, residents := l.s.ops, len(in.Residents)
	l.Close()

	// hclient: what the client observed, tails included.
	both := func(pick func(*windowStats) Samples) Samples {
		return append(append(Samples(nil), pick(plain)...), pick(traced)...)
	}
	admit := both(func(s *windowStats) Samples { return s.admit })
	end := both(func(s *windowStats) Samples { return s.end })
	status := both(func(s *windowStats) Samples { return s.status })
	updates := both(func(s *windowStats) Samples { return s.updateLat })
	late := both(func(s *windowStats) Samples { return s.readerLate })
	skew := both(func(s *windowStats) Samples { return s.updateSkew })
	res.set("hclient.conn_setup_us", "us", median(plain.connSetup)*1000, len(plain.connSetup))
	res.set("hclient.admit_ms_p90", "ms", tailOf(admit, 0.90), len(admit))
	res.set("hclient.admit_ms_p99", "ms", tailOf(admit, 0.99), len(admit))
	res.set("hclient.end_ms_p90", "ms", tailOf(end, 0.90), len(end))
	res.set("hclient.status_ms_p90", "ms", tailOf(status, 0.90), len(status))
	res.set("hclient.update_ms_p50", "ms", orZero(updates, median), len(updates))
	res.set("hclient.update_ms_p90", "ms", tailOf(updates, 0.90), len(updates))
	res.set("hclient.reader_late_ms_p50", "ms", median(late), len(late))
	res.set("hclient.resume_ms_mean", "ms", orZero(fo.resume, mean), len(fo.resume))
	res.set("hclient.resume_ms_p50", "ms", orZero(fo.resume, median), len(fo.resume))
	res.set("hclient.resume_ms_max", "ms", orZero(fo.resume, slices.Max[[]float64]), len(fo.resume))
	res.set("hclient.reconnects", "count", float64(stats.Reconnects), 0)
	res.set("hclient.resumes", "count", float64(stats.Resumes), 0)
	res.set("hclient.replays", "count", float64(stats.Replays), 0)
	res.set("hclient.redirects", "count", float64(plain.redirects+traced.redirects), 0)
	cycleTime := func(s *windowStats) float64 {
		return median(s.connSetup) + median(s.admit) + heartbeatsPerCycle*median(s.heartbeat) + median(s.end)
	}
	res.set("hclient.trace_overhead_pct", "%", (cycleTime(traced)/cycleTime(plain)-1)*100, traced.cycles)
	res.set("server.update_skew_us", "us", orZero(skew, median)*1000, len(skew))

	// replica: the live replicated deployment against its standalone twin.
	res.set("replica.follower_lag_ms_p50", "ms", orZero(lag, median), len(lag))
	res.set("replica.election_ms_p50", "ms", orZero(fo.election, median), len(fo.election))
	res.set("replica.catchup_ms_p50", "ms", orZero(fo.catchup, median), len(fo.catchup))
	res.set("replica.elections", "count", float64(termAfter-termBefore), 0)
	commitOverhead, endOverhead := 0.0, 0.0
	if w.Members > 1 {
		// The same inputs on one standalone daemon: the difference is the
		// price of propose, fsync, quorum and apply.
		twin := w
		twin.Members = 1
		base, err := baseline(ctx, cfg, in, twin, filepath.Join(dir, "twin"), half/2)
		if err != nil {
			return err
		}
		res.absorb(base.attempted, base.failed, base.failures)
		commitOverhead = median(plain.admit) - median(base.admit)
		endOverhead = median(plain.end) - median(base.end)
	}
	res.set("replica.commit_overhead_ms", "ms", commitOverhead, 0)
	res.set("replica.end_overhead_ms", "ms", endOverhead, 0)

	// The shadow: oracle and in-process spans at once.
	sh, err := newShadow(w, 0, rec)
	if err != nil {
		return err
	}
	defer sh.Close()
	if err := replayOps(sh, ops[:residents], -residents, &v); err != nil {
		return err
	}
	residentEvent := sh.lastInitial
	hits0, misses0 := sh.ctrl.MemoStats()
	prune0 := sh.ctrl.PruneStats()
	events0, bytes0 := sh.events, sh.wireBytes
	if err := replayOps(sh, ops[residents:], 0, &v); err != nil {
		return err
	}
	for _, m := range finals {
		compareStatus(m.who, m.apps, m.objective, sh, &v)
	}
	res.absorb(v.attempted, v.failed, v.notes)
	cycles := float64(len(ops)-residents) / 2
	hits1, misses1 := sh.ctrl.MemoStats()
	prune1 := sh.ctrl.PruneStats()
	considered := float64(prune1.Considered - prune0.Considered)
	res.set("core.candidates_per_cycle", "count", considered/cycles, int(cycles))
	res.set("core.prune_ratio", "ratio", ratio(float64(prune1.Unreachable-prune0.Unreachable+prune1.Dominated-prune0.Dominated), considered), 0)
	res.set("core.memo_hit_ratio", "ratio", ratio(float64(hits1-hits0), float64(hits1-hits0+misses1-misses0)), 0)
	res.set("core.events_per_cycle", "count", float64(sh.events-events0)/cycles, int(cycles))
	res.set("protocol.bytes_per_cycle", "B", float64(sh.wireBytes-bytes0)/cycles, int(cycles))

	// Spans of the cycles after the warm-up, shadow and live alike.
	var spans []Span
	all := rec.snapshot()
	for _, s := range all {
		if s.Cycle >= w.Warmup || s.Cycle == -1 {
			spans = append(spans, s)
		}
	}
	total, self := durations(spans), selfTimes(spans)
	res.set("rsl.decode_us", "us", median(total["rsl.decode"])*1000, len(total["rsl.decode"]))
	res.set("vet.script_us", "us", median(total["vet.script"])*1000, len(total["vet.script"]))
	res.set("vet.workload_us", "us", median(total["vet.workload"])*1000, len(total["vet.workload"]))
	res.set("namespace.walk_us", "us", median(total["namespace.walk"])*1000, len(total["namespace.walk"]))
	res.set("core.register_ms", "ms", median(self["core.register"]), len(self["core.register"]))
	res.set("core.unregister_ms", "ms", median(self["core.unregister"]), len(self["core.unregister"]))
	// What the live admission costs beyond the handler's in-process calls:
	// sessions, TCP, goroutine hand-offs, logging.
	res.set("server.admit_overhead_us", "us", (median(plain.admit)-median(total["server.bundle_setup"]))*1000, len(plain.admit))

	p, err := newProbeCtx(in, sh, dir, residentEvent)
	if err != nil {
		return err
	}
	if err := runProbes(p, res); err != nil {
		return err
	}
	if cfg.TraceOut != "" {
		if err := writeSpans(cfg.TraceOut, all); err != nil {
			return err
		}
	}
	return nil
}

// baseline measures one short untraced window of the inputs on workload w.
func baseline(ctx context.Context, cfg RunConfig, in *Inputs, w Workload, dir string, d time.Duration) (*windowStats, error) {
	twin := *in
	twin.Workload = w
	l, _, err := setUp(ctx, cfg, &twin, dir)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	st, err := l.s.window(ctx, d)
	if err != nil {
		return nil, err
	}
	if st.cycles == 0 {
		return nil, fmt.Errorf("baseline: no writer cycle completed in %v", d)
	}
	return st, nil
}

// leaderTerm reads the current leader's term.
func leaderTerm(dep *Deployment) (uint64, error) {
	_, st, err := dep.leaderStatus(clusterWait, -1)
	if err != nil {
		return 0, err
	}
	return st.Term, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
