package core

import (
	"fmt"
	"math"
	"reflect"

	"harmony/internal/bounds"
	"harmony/internal/match"
	"harmony/internal/objective"
	"harmony/internal/resource"
	"harmony/internal/rsl"
)

// This file implements static candidate pruning: before any matcher call or
// trial reservation, each enumerated choice is checked against per-bundle
// facts computed once at first evaluation (the relational dominance proofs
// of internal/bounds plus a concrete per-choice resource demand) and
// against a cheap aggregate view of the evaluation snapshot. Every rule is
// a proof that the skipped candidate could not have changed the outcome:
// either its Match must fail on the same view, or an earlier candidate
// always ties or beats it under the controller's strict-improvement
// reduction. Pruning is therefore semantics-preserving — the winning
// choice, its prediction and the objective are bit-identical with pruning
// on or off (only the diagnostic text inside an ErrNoFeasibleOption error,
// which quotes the last match failure, may differ). Config.DisablePruning
// opts out; PruneStats reports the counters.

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
	// sig fingerprints everything the evaluator reads from the choice: the
	// plan's key (resolved spec demands, link, communication values) and the
	// friction value. Two choices with equal sigs produce bit-identical
	// candidates on any view, so the later one can never strictly win.
	sig string
	// specs are the resolved per-spec demands (empty when alwaysFails).
	specs []match.Demand
	// wildcard is the total replica count over wildcard specs; they all
	// take distinct hosts within one Match.
	wildcard int
}

// deadKind classifies why an option's choices can be skipped wholesale.
type deadKind int

const (
	// deadTie: requirements provably identical to an earlier option, no
	// performance model on either side. Candidates tie exactly, so the
	// earlier option wins under any objective.
	deadTie deadKind = iota + 1
	// deadModel: requirements identical and the earlier model is never
	// slower (with a nonnegative lower bound). Sound only for the built-in
	// coordinate-monotone objectives.
	deadModel
)

// bundleStatic caches a bundle's enumeration and per-choice analysis on
// its appState; bundles are immutable after registration.
type bundleStatic struct {
	choices []Choice
	stat    []choiceStatic
	// optDead maps option names proven dominated by internal/bounds.
	optDead map[string]deadKind
}

// PruneStats counts pruning activity since construction. Considered is the
// number of enumerated candidates inspected; Unreachable counts candidates
// skipped because their Match provably fails (statically, or against the
// evaluation snapshot's aggregate free capacity); Dominated counts
// candidates skipped because an earlier candidate always ties or beats
// them (duplicate footprints and bounds-proven dominated options).
type PruneStats struct {
	Considered  uint64
	Unreachable uint64
	Dominated   uint64
}

// PruneStats reports the pruning counters (next to MemoStats).
func (c *Controller) PruneStats() PruneStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.prune
}

// isMonotoneObjective reports whether fn is one of the built-in objectives
// that are coordinate-monotone over nonnegative predictions. Model-based
// dominance pruning (deadModel) is gated on this: with a custom objective
// a worse per-job prediction could score better, so only exact ties may be
// skipped.
func isMonotoneObjective(fn objective.Func) bool {
	if fn == nil {
		return false
	}
	p := reflect.ValueOf(fn).Pointer()
	for _, m := range []objective.Func{
		objective.MeanResponseTime,
		objective.TotalResponseTime,
		objective.MaxResponseTime,
		objective.WeightedMean,
	} {
		if reflect.ValueOf(m).Pointer() == p {
			return true
		}
	}
	return false
}

// staticForLocked returns the bundle's cached static analysis, computing
// it on first use.
func (c *Controller) staticForLocked(app *appState) *bundleStatic {
	if app.static != nil {
		return app.static
	}
	bs := &bundleStatic{choices: c.enumerateChoices(app.bundle)}
	bs.stat = make([]choiceStatic, len(bs.choices))
	byName := make(map[string]*rsl.OptionSpec, len(app.bundle.Options))
	for i := range app.bundle.Options {
		byName[app.bundle.Options[i].Name] = &app.bundle.Options[i]
	}
	for i, ch := range bs.choices {
		if opt := byName[ch.Option]; opt != nil {
			bs.stat[i] = analyzeChoice(app.bundle.App, opt, ch, newPlan(opt, ch))
		}
	}
	for _, d := range bounds.Dominance(app.bundle) {
		if d.Rule != bounds.RuleIdentical {
			// Subset-replicas dominance changes the placement, and with it
			// every other application's contention; that is sound for the
			// vet-level claim but not bit-identity-preserving here.
			continue
		}
		oi, oj := &app.bundle.Options[d.By], &app.bundle.Options[d.Dominated]
		kind := deadTie
		if len(oi.Performance) > 0 {
			// The earlier model must stay nonnegative so scaling by the
			// (shared, >= 1) contention factors preserves the ordering
			// within the objective's monotone domain.
			if bounds.ModelRange(oi.Performance, bounds.Option(oj).Nodes).Lo < 0 {
				continue
			}
			kind = deadModel
		}
		if bs.optDead == nil {
			bs.optDead = make(map[string]deadKind)
		}
		bs.optDead[oj.Name] = kind
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
func analyzeChoice(app string, opt *rsl.OptionSpec, ch Choice, plan *match.Plan) choiceStatic {
	st := choiceStatic{opt: opt, plan: plan}
	demands, ok := plan.Demands()
	if !ok {
		st.alwaysFails = true
		return st
	}
	fsig := ""
	if opt.Friction != nil {
		// A failing friction expression is a deferred warning, not a match
		// failure; the error text is deterministic, so equal sigs still imply
		// identical behavior.
		f, err := opt.Friction.Eval(plan.Env())
		switch {
		case err != nil:
			st.frictionWarn = fmt.Sprintf("core: %s option %s: friction evaluation failed: %v", app, opt.Name, err)
			fsig = "|f:err:" + err.Error()
		default:
			if f > 0 {
				st.friction = f
			}
			fsig = fmt.Sprintf("|f:%x", math.Float64bits(f))
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
	st.sig = ch.Option + plan.Key() + fsig
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

// pruneChoicesLocked filters a bundle's enumerated choices before
// evaluation, returning the indices of those to evaluate, in enumeration
// order. current (the app's adopted choice) is exempt: it is the one
// candidate the friction surcharge never applies to, so an identical
// earlier candidate does not subsume it. If every choice would be pruned,
// nothing is: evaluating the full set preserves the no-feasible-option
// error's diagnostic detail. nodes is the evaluation snapshot's node table;
// in the exhaustive search that of the all-released base snapshot: deeper
// levels only ever shrink capacity, so infeasibility against the base holds
// for every branch.
func (c *Controller) pruneChoicesLocked(bs *bundleStatic, current Choice, nodes []resource.NodeState) []int {
	if c.cfg.DisablePruning {
		return bs.all()
	}
	av := newAvailability(nodes)
	kept := make([]int, 0, len(bs.choices))
	seen := make(map[string]bool, len(bs.choices))
	var unreachable, dominated uint64
	monotone := c.monotoneObjective
	for i, ch := range bs.choices {
		st := &bs.stat[i]
		if ch.Equal(current) {
			if st.sig != "" {
				seen[st.sig] = true
			}
			kept = append(kept, i)
			continue
		}
		dead := bs.optDead[ch.Option]
		switch {
		case dead == deadTie || (dead == deadModel && monotone):
			dominated++
		case st.alwaysFails || !av.feasible(st):
			unreachable++
		case st.sig != "" && seen[st.sig]:
			dominated++
		default:
			if st.sig != "" {
				seen[st.sig] = true
			}
			kept = append(kept, i)
		}
	}
	c.prune.Considered += uint64(len(bs.choices))
	if len(kept) == 0 {
		return bs.all()
	}
	c.prune.Unreachable += unreachable
	c.prune.Dominated += dominated
	return kept
}

// choiceStaticLocked returns the static analysis of the app's enumerated
// choice equal to ch, or, for a choice the enumeration does not hold, a fresh
// one. ch's option must be in the app's bundle.
func (c *Controller) choiceStaticLocked(app *appState, ch Choice) *choiceStatic {
	bs := c.staticForLocked(app)
	for i := range bs.choices {
		if bs.choices[i].Equal(ch) {
			return &bs.stat[i]
		}
	}
	opt := app.bundle.Option(ch.Option)
	st := analyzeChoice(app.bundle.App, opt, ch, newPlan(opt, ch))
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
