package main

import "harmony"

// probeBounds times the bound-vector and dominance analysis of the arriving
// bundle against the cluster's declarations.
func probeBounds(p *probeCtx, res *Result) error {
	decls := p.sh.ctrl.ClusterNodes()
	ns, n := timeOp(probeBudget, 1, func() { sink = harmony.AnalyzeBundle(p.bundle, decls) })
	res.set("bounds.analyze_us", "us", us(ns), n)
	return nil
}
