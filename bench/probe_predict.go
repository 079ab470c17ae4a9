package main

import (
	"errors"

	"harmony/internal/predict"
)

// probePredict times Predictor.ForOption for an admitted application on the
// resident ledger: the re-prediction every candidate that shares its hosts
// forces.
func probePredict(p *probeCtx, res *Result) error {
	ev := p.residentEvent
	bundles := p.sh.ctrl.Bundles()
	if len(bundles) == 0 || ev.Assignment == nil {
		return errors.New("probe predict: no resident")
	}
	opt := bundles[len(bundles)-1].Option(ev.Choice.Option)
	pr := predict.NewWithView(p.sh.ctrl.Ledger().Snapshot())
	var perr error
	ns, n := timeOp(probeBudget, 10, func() {
		if _, err := pr.ForOption(opt, ev.Assignment, true); err != nil {
			perr = err
		}
	})
	if perr != nil {
		return perr
	}
	res.set("predict.for_option_us", "us", us(ns), n)
	return nil
}
