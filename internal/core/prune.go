package core

import (
	"fmt"

	"harmony/internal/match"
	"harmony/internal/rsl"
)

// This file drives static candidate pruning: before any trial reservation,
// each enumerated choice's plan is asked whether it may fit on the evaluation
// snapshot (match.Scan.MayFit). A false answer proves the skipped candidate's
// Match must fail on the same view, so it could never have been adopted,
// warned about or scored. Pruning is therefore semantics-preserving — the
// winning choice, its prediction, the objective and the warnings are
// bit-identical with pruning on or off (only the diagnostic text inside an
// ErrNoFeasibleOption error, which quotes the last match failure, may
// differ). PruneStats reports the counters.

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
			bs.stat[i] = analyzeChoice(app.bundle.App, opt, ch)
		}
	}
	app.static = bs
	return bs
}

// analyzeChoice resolves a choice of opt for placement and evaluates its
// friction. A plan that did not resolve never fits, so nothing reads the
// friction of its choice.
func analyzeChoice(app string, opt *rsl.OptionSpec, ch Choice) choiceStatic {
	plan := match.NewPlan(match.Request{Option: opt, Env: rsl.MapEnv(ch.Vars), MemoryGrants: ch.Grants})
	st := choiceStatic{opt: opt, plan: plan}
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
	return st
}

// pruneChoices filters a bundle's enumerated choices before evaluation,
// returning the indices of those to evaluate, in enumeration order: those
// that may fit on the scan's state. current (the app's adopted choice) is
// never pruned. If every choice would be pruned, nothing is: evaluating the
// full set preserves the no-feasible-option error's diagnostic detail. In the
// exhaustive search the scan is over the all-released base snapshot: deeper
// levels only ever shrink capacity, so infeasibility against the base holds
// for every branch.
func (c *Controller) pruneChoices(bs *bundleStatic, current Choice, scan *match.Scan) []int {
	if c.disablePruning {
		return bs.all()
	}
	kept := make([]int, 0, len(bs.choices))
	for i, ch := range bs.choices {
		if ch.Equal(current) || scan.MayFit(bs.stat[i].plan) {
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
	st := analyzeChoice(app.bundle.App, app.bundle.Option(ch.Option), ch)
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
