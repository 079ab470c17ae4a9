package core

import (
	"fmt"

	"harmony/internal/match"
	"harmony/internal/resource"
	"harmony/internal/rsl"
)

// This file implements static candidate pruning: before any matcher call or
// trial reservation, each enumerated choice is checked against its concrete
// resource demand, resolved once at first evaluation, and against a cheap
// aggregate view of the evaluation snapshot. Every rule is a proof that the
// skipped candidate's Match must fail on the same view, so it could never
// have been adopted, warned about or scored. Pruning is therefore
// semantics-preserving — the winning choice, its prediction, the objective
// and the warnings are bit-identical with pruning on or off (only the
// diagnostic text inside an ErrNoFeasibleOption error, which quotes the last
// match failure, may differ). PruneStats reports the counters.

// choiceStatic is the view-independent analysis of one enumerated choice.
type choiceStatic struct {
	// opt is the choice's option and plan its request resolved for placement:
	// one plan per (application, choice), read by both searches.
	opt  *rsl.OptionSpec
	plan *match.Plan
	// friction is the cost of switching to the choice: the option's friction
	// expression over the granted memory and the choice's variables, which
	// the plan fixes wherever it lands. An expression that cannot be
	// evaluated costs nothing and leaves frictionWarn, which whoever reduces
	// the candidates surfaces once the choice fits, once per distinct message.
	friction     float64
	frictionWarn string

	// alwaysFails marks choices whose Match fails on every view: a
	// requirement expression errors, a grant violates its constraint, or a
	// spec is structurally unplaceable (e.g. a fixed-host exclusive spec
	// with two replicas, whose second replica always sees the first's CPU
	// charge).
	alwaysFails bool
	// specs are the resolved per-spec demands (empty when alwaysFails).
	specs []match.Demand
	// wildcard is the total replica count over wildcard specs; they all
	// take distinct hosts within one Match.
	wildcard int
}

// bundleStatic caches a bundle's enumeration and per-choice analysis on
// its appState; bundles are immutable after registration.
type bundleStatic struct {
	choices []Choice
	stat    []choiceStatic
}

// PruneStats counts pruning activity since construction. Considered is the
// number of enumerated candidates inspected; Unreachable counts candidates
// skipped because their Match provably fails (statically, or against the
// evaluation snapshot's aggregate free capacity).
type PruneStats struct {
	Considered  uint64
	Unreachable uint64
	// Dominated is always 0: no rule skips a choice that could fit.
	//
	// Deprecated: it remains only because the bench harness still reads it,
	// and goes with the harness's prune metric (ROADMAP item 7).
	Dominated uint64
}

// PruneStats reports the pruning counters (next to MemoStats).
func (c *Controller) PruneStats() PruneStats { return c.view.Load().prune }

// staticFor returns the bundle's cached static analysis, computing
// it on first use.
func (c *Controller) staticFor(app *appState) *bundleStatic {
	if app.static != nil {
		return app.static
	}
	bs := &bundleStatic{choices: enumerateChoices(app.bundle)}
	bs.stat = make([]choiceStatic, len(bs.choices))
	byName := make(map[string]*rsl.OptionSpec, len(app.bundle.Options))
	for i := range app.bundle.Options {
		byName[app.bundle.Options[i].Name] = &app.bundle.Options[i]
	}
	for i, ch := range bs.choices {
		if opt := byName[ch.Option]; opt != nil {
			bs.stat[i] = analyzeChoice(app.bundle.App, opt, newPlan(opt, ch))
		}
	}
	app.static = bs
	return bs
}

// newPlan resolves a choice of opt for placement.
func newPlan(opt *rsl.OptionSpec, ch Choice) *match.Plan {
	return match.NewPlan(match.Request{Option: opt, Env: rsl.MapEnv(ch.Vars), MemoryGrants: ch.Grants})
}

// analyzeChoice reads a choice's concrete demands off its plan, which
// resolved them as the matcher does — replica counts, memory with grant
// validation, seconds, exclusivity, links and communication — marks the
// choice alwaysFails when the plan did not resolve or a spec can never be
// placed whatever the view, and evaluates its friction.
func analyzeChoice(app string, opt *rsl.OptionSpec, plan *match.Plan) choiceStatic {
	st := choiceStatic{opt: opt, plan: plan}
	demands, ok := plan.Demands()
	if !ok {
		st.alwaysFails = true
		return st
	}
	if opt.Friction != nil {
		// A failing friction expression is a deferred warning, not a match
		// failure.
		f, err := opt.Friction.Eval(plan.Env())
		switch {
		case err != nil:
			st.frictionWarn = fmt.Sprintf("core: %s option %s: friction evaluation failed: %v", app, opt.Name, err)
		case f > 0:
			st.friction = f
		}
	}
	for _, d := range demands {
		if d.Hostname != "" {
			if d.Host != "*" && d.Host != d.Hostname {
				st.alwaysFails = true // the pin can never equal the fixed host
			}
			if d.Host == "*" && d.Replicas > 1 {
				st.alwaysFails = true // wildcard replicas need distinct hosts; only the pin qualifies
			}
		}
		if d.Exclusive && d.Replicas > 1 && d.Host != "*" {
			// Fixed-host replicas stack: the first charges a full CPU, so
			// the second always finds the host busy.
			st.alwaysFails = true
		}
		if d.Host == "*" {
			st.wildcard += d.Replicas
		}
	}
	if st.alwaysFails {
		return st
	}
	st.specs = demands
	return st
}

// availability is a one-pass aggregate of an evaluation snapshot: its node
// table, the number of healthy nodes in it, and memoized eligibility counts
// per demand shape.
type availability struct {
	nodes  []resource.NodeState // hostname order
	up     int
	counts map[match.Demand]int
}

// newAvailability scans the evaluation snapshot's node table once. Only
// HealthUp nodes accept placements, matching the matcher's scan.
func newAvailability(nodes []resource.NodeState) *availability {
	av := &availability{nodes: nodes}
	for i := range av.nodes {
		if av.nodes[i].Health == resource.HealthUp {
			av.up++
		}
	}
	return av
}

// eligible mirrors the matcher's firstFit preconditions for one node
// against one replica of a demand.
func eligible(ns *resource.NodeState, d *match.Demand) bool {
	host := ns.Node.Hostname
	if ns.Health != resource.HealthUp {
		return false
	}
	if d.Host != "*" && d.Host != host {
		return false
	}
	if d.Hostname != "" && d.Hostname != host {
		return false
	}
	if d.OS != "" && d.OS != ns.Node.OS {
		return false
	}
	if ns.FreeMemoryMB < d.MemoryMB {
		return false
	}
	if d.Exclusive && ns.CPULoad > 0 {
		return false
	}
	return true
}

// eligibleCount counts hosts a wildcard demand could use, memoized by
// demand shape (the key leaves out the name, seconds and replica count,
// which do not affect per-host eligibility).
func (av *availability) eligibleCount(d *match.Demand) int {
	key := match.Demand{Host: d.Host, OS: d.OS, Hostname: d.Hostname, MemoryMB: d.MemoryMB, Exclusive: d.Exclusive}
	if n, ok := av.counts[key]; ok {
		return n
	}
	n := 0
	for i := range av.nodes {
		if eligible(&av.nodes[i], d) {
			n++
		}
	}
	if av.counts == nil {
		av.counts = make(map[match.Demand]int)
	}
	av.counts[key] = n
	return n
}

// feasible checks necessary conditions for a Match of this choice against
// the availability's view. Every condition is implied by a successful
// Match, so a false result proves the matcher must fail: wildcard replicas
// need that many distinct eligible hosts (the matcher's used-map spans all
// specs, so their total is also bounded by the healthy-node count), and
// fixed-host replicas stack their grants on one machine's free memory via
// the same iterative comparison the matcher's scratch state performs.
func (av *availability) feasible(st *choiceStatic) bool {
	if st.wildcard > av.up {
		return false
	}
	for i := range st.specs {
		d := &st.specs[i]
		if d.Host == "*" {
			if av.eligibleCount(d) < d.Replicas {
				return false
			}
			continue
		}
		i, ok := resource.FindNode(av.nodes, d.Host)
		if !ok || av.nodes[i].Health != resource.HealthUp {
			return false
		}
		ns := &av.nodes[i]
		if d.Hostname != "" && d.Hostname != ns.Node.Hostname {
			return false
		}
		if d.OS != "" && d.OS != ns.Node.OS {
			return false
		}
		if d.Exclusive && ns.CPULoad > 0 {
			return false
		}
		free := ns.FreeMemoryMB
		for r := 0; r < d.Replicas; r++ {
			if free < d.MemoryMB {
				return false
			}
			free -= d.MemoryMB
		}
	}
	return true
}

// pruneChoices filters a bundle's enumerated choices before
// evaluation, returning the indices of those to evaluate, in enumeration
// order. current (the app's adopted choice) is never pruned. If every choice
// would be pruned, nothing is: evaluating the full set preserves the
// no-feasible-option error's diagnostic detail. nodes is the evaluation
// snapshot's node table; in the exhaustive search that of the all-released
// base snapshot: deeper levels only ever shrink capacity, so infeasibility
// against the base holds for every branch.
func (c *Controller) pruneChoices(bs *bundleStatic, current Choice, nodes []resource.NodeState) []int {
	if c.disablePruning {
		return bs.all()
	}
	av := newAvailability(nodes)
	kept := make([]int, 0, len(bs.choices))
	for i, ch := range bs.choices {
		if st := &bs.stat[i]; ch.Equal(current) || (!st.alwaysFails && av.feasible(st)) {
			kept = append(kept, i)
		}
	}
	c.prune.Considered += uint64(len(bs.choices))
	if len(kept) == 0 {
		return bs.all()
	}
	c.prune.Unreachable += uint64(len(bs.choices) - len(kept))
	return kept
}

// choiceStaticFor returns the static analysis of the app's enumerated
// choice equal to ch, or, for a choice the enumeration does not hold, a fresh
// one. ch's option must be in the app's bundle.
func (c *Controller) choiceStaticFor(app *appState, ch Choice) *choiceStatic {
	bs := c.staticFor(app)
	for i := range bs.choices {
		if bs.choices[i].Equal(ch) {
			return &bs.stat[i]
		}
	}
	opt := app.bundle.Option(ch.Option)
	st := analyzeChoice(app.bundle.App, opt, newPlan(opt, ch))
	return &st
}

// all is the index of every enumerated choice.
func (bs *bundleStatic) all() []int {
	all := make([]int, len(bs.choices))
	for i := range all {
		all[i] = i
	}
	return all
}
