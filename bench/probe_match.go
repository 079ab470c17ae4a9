package main

import (
	"runtime"

	"harmony/internal/match"
	"harmony/internal/rsl"
)

// middleRequest is the arriving bundle's middle choice: its middle option
// with every variable at its middle value and no memory grant.
func middleRequest(p *probeCtx) match.Request {
	opt := &p.bundle.Options[len(p.bundle.Options)/2]
	env := rsl.MapEnv{}
	for _, v := range opt.Variables {
		env[v.Name] = v.Values[len(v.Values)/2]
	}
	return match.Request{Option: opt, Env: env}
}

// probeMatch times Matcher.Match of the arriving bundle's middle choice on a
// snapshot of the resident ledger, as one candidate evaluation does. On a
// full machine the match fails after the same scan; that is the work an
// arrival meets there.
func probeMatch(p *probeCtx, res *Result) error {
	snap := p.sh.ctrl.Ledger().Snapshot()
	req := middleRequest(p)
	call := func() { _, _ = match.NewWithView(snap.Fork()).Match(req) }
	ns, n := timeOp(probeBudget, 1, call)
	res.set("match.match_us", "us", us(ns), n)

	const rounds = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	res.set("match.match_allocs", "count", float64(after.Mallocs-before.Mallocs)/rounds, rounds)
	return nil
}
