package main

import (
	"errors"

	"harmony"
	"harmony/internal/rsl"
)

// probeRSL times the evaluation of the paper's Figure 3 link formula, the
// one conditional expression the workloads evaluate per candidate. (Decoding
// an arriving bundle is timed in the shadow's rsl.decode span.)
func probeRSL(p *probeCtx, res *Result) error {
	bundles, _, err := harmony.DecodeScript(dbApp(1, 1).RSL)
	if err != nil {
		return err
	}
	ds := bundles[0].Option("DS")
	if ds == nil || len(ds.Links) != 1 {
		return errors.New("probe rsl: Figure 3 bundle has no DS link")
	}
	env := rsl.MapEnv{"client.memory": 25}
	var eerr error
	ns, n := timeOp(probeBudget, 1000, func() {
		if _, err := ds.Links[0].Bandwidth.Eval(env); err != nil {
			eerr = err
		}
	})
	if eerr != nil {
		return eerr
	}
	res.set("rsl.eval_ns", "ns", ns, n)
	return nil
}
