package main

import (
	"fmt"
	"time"

	"harmony"
)

// probeBudget is the time each micro-probe may measure for.
const probeBudget = 60 * time.Millisecond

// probeCtx is what the in-process micro-probes share: the workload's inputs
// and the shadow controller after the replay, holding exactly the residents.
// Probes see what cannot be seen from outside a Register call; each lives
// in the file named after its layer.
type probeCtx struct {
	in  *Inputs
	sh  *Shadow
	dir string
	// arrival is the writer's first arrival, decoded.
	arrival App
	bundle  *harmony.BundleSpec
	// residentEvent is the last resident's admission: its option and
	// placement stand for "an admitted application" in predict and resource.
	residentEvent harmony.Event
}

func newProbeCtx(in *Inputs, sh *Shadow, dir string, residentEvent harmony.Event) (*probeCtx, error) {
	arrival := in.Arrival(0)
	bundles, _, err := harmony.DecodeScript(arrival.RSL)
	if err != nil {
		return nil, fmt.Errorf("probe: decode arrival: %w", err)
	}
	return &probeCtx{in: in, sh: sh, dir: dir, arrival: arrival, bundle: bundles[0], residentEvent: residentEvent}, nil
}

// runProbes runs every layer's micro-probe. Order matters only in that the
// core probe mutates the shadow last.
func runProbes(p *probeCtx, res *Result) error {
	for _, probe := range []func(*probeCtx, *Result) error{
		probeProtocol, probeHclient, probeRSL, probeBounds, probeMatch, probePredict,
		probeResource, probeReplog, probeReplica, probeCore,
	} {
		if err := probe(p, res); err != nil {
			return err
		}
	}
	return nil
}

// us and ms convert timeOp's nanoseconds.
func us(ns float64) float64 { return ns / 1e3 }
func ms(ns float64) float64 { return ns / 1e6 }
