package core

import (
	"fmt"

	"harmony/internal/match"
	"harmony/internal/predict"
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

	// floor is what the choice's prediction can never go below, wherever it
	// lands and however loaded its nodes are (see lowerBound); 0 when nothing
	// useful is known.
	floor float64
	// perSpeed marks a floor in reference seconds, which lowerBound divides by
	// the fastest node's speed: the default model's.
	perSpeed bool
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
	st.floor, st.perSpeed = floorOf(opt, demands)
	return st
}

// floorOf finds what a prediction of a choice with these demands can never go
// below. The explicit model is the curve at the placement's node count times a
// CPU and a communication slowdown, each at least 1, so the floor is the curve
// there. The default model is the slowest placement's seconds over its node's
// effective speed, times a communication slowdown of at least 1; an effective
// speed is never above the node's speed, so the floor is the largest seconds
// of a spec (each places at least one replica) over the fastest speed on
// offer, which the caller supplies (perSpeed). Floating-point rounding is
// monotone, so neither product nor quotient can round below its floor.
func floorOf(opt *rsl.OptionSpec, demands []match.Demand) (floor float64, perSpeed bool) {
	nodes := 0
	for _, d := range demands {
		nodes += d.Replicas
		if d.Seconds > floor {
			floor = d.Seconds
		}
	}
	if len(opt.Performance) > 0 {
		floor, _ = predict.Interpolate(opt.Performance, float64(nodes))
		return floor, false
	}
	return floor, true
}

// lowerBound is the choice's floor on a machine whose fastest node runs at
// fastest, or 0 when there is none: a bound of 0 or less is no bound, and a
// search does not cut on it.
func (st *choiceStatic) lowerBound(fastest float64) float64 {
	lb := st.floor
	if st.perSpeed {
		lb /= fastest
	}
	if !(lb > 0) {
		return 0
	}
	return lb
}

// availability is what a placement may still find on one state: the node
// table (descriptions and health), the state's free memory and CPU load by
// node index, the number of healthy nodes, and eligibility counts memoized per
// demand shape. It is the one proof that a choice cannot fit, read by greedy
// pruning against an evaluation's base and by the joint search against its
// trial columns at every inner node.
type availability struct {
	nodes      []resource.NodeState // hostname order
	free, load []float64            // by node index
	up         int
	// counts holds the shapes counted on this state. An evaluation meets a
	// handful of shapes (every choice of a bag has its workers'), so a list is
	// searched faster than a map's key is hashed.
	counts []shapeCount
}

// shapeCount is how many nodes a demand's shape may use. A shape is what
// eligibility reads of a wildcard demand — its tags, memory and exclusivity,
// not its name, seconds or replica count — and shape holds the first demand
// counted with it.
type shapeCount struct {
	shape match.Demand
	n     int
}

// newAvailability counts the table's healthy nodes — only HealthUp nodes
// accept placements, matching the matcher's scan — and aims at cols.
func newAvailability(nodes []resource.NodeState, cols *resource.Columns) *availability {
	av := &availability{nodes: nodes}
	for i := range av.nodes {
		if av.nodes[i].Health == resource.HealthUp {
			av.up++
		}
	}
	av.aim(cols)
	return av
}

// aim points the availability at the free memory and load in cols, a state
// of the same node table, and forgets the counts made on the last one.
func (av *availability) aim(cols *resource.Columns) {
	av.free, av.load = cols.FreeMemoryMB, cols.CPULoad
	av.counts = av.counts[:0]
}

// eligible mirrors the matcher's firstFit preconditions for the node at
// index i against one replica of a demand. The state's columns are read
// first: on a busy machine they turn most nodes away.
func (av *availability) eligible(i int, d *match.Demand) bool {
	if av.free[i] < d.MemoryMB || (d.Exclusive && av.load[i] > 0) {
		return false
	}
	ns := &av.nodes[i]
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
	return true
}

// eligibleCount counts hosts a wildcard demand could use, memoized by
// demand shape (every demand counted is a wildcard's).
func (av *availability) eligibleCount(d *match.Demand) int {
	for i := range av.counts {
		if s := &av.counts[i].shape; s.MemoryMB == d.MemoryMB && s.Exclusive == d.Exclusive &&
			s.OS == d.OS && s.Hostname == d.Hostname {
			return av.counts[i].n
		}
	}
	n := 0
	for i := range av.nodes {
		if av.eligible(i, d) {
			n++
		}
	}
	av.counts = append(av.counts, shapeCount{*d, n})
	return n
}

// mayFit checks necessary conditions for a Match of this choice against
// the availability's state. Every condition is implied by a successful
// Match, so a false result proves the matcher must fail: the choice must not
// fail on every state, wildcard replicas need that many distinct eligible
// hosts (the matcher's used-map spans all specs, so their total is also
// bounded by the healthy-node count), and fixed-host replicas stack their
// grants on one machine's free memory via the same iterative comparison the
// matcher's scratch state performs. Charging a state only takes free memory
// away and adds load, so a choice that cannot fit on a state cannot fit on any
// state charged further.
func (av *availability) mayFit(st *choiceStatic) bool {
	if st.alwaysFails || st.wildcard > av.up {
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
		if !ok || !av.eligible(i, d) {
			return false
		}
		free := av.free[i]
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
// no-feasible-option error's diagnostic detail. nodes and cols are the
// evaluation snapshot's node table and state; in the exhaustive search those
// of the all-released base snapshot: deeper levels only ever shrink capacity,
// so infeasibility against the base holds for every branch.
func (c *Controller) pruneChoices(bs *bundleStatic, current Choice, nodes []resource.NodeState, cols *resource.Columns) []int {
	if c.disablePruning {
		return bs.all()
	}
	av := newAvailability(nodes, cols)
	kept := make([]int, 0, len(bs.choices))
	for i, ch := range bs.choices {
		if ch.Equal(current) || av.mayFit(&bs.stat[i]) {
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
