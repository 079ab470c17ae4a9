package core

import (
	"fmt"

	"harmony/internal/match"
	"harmony/internal/rsl"
)

// This file holds what an application's choices are before any search
// places them: the bundle's enumeration and, per choice, its plan and
// friction, worked out once per bundle and read by both searches.

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

// PruneStats holds counters nothing increments: greedy evaluation tries every
// enumerated choice, and the joint search's filter is not counted (see
// docs/OPTIMIZER.md, "Where the fit proof runs").
//
// Deprecated: PruneStats remains only because the bench harness still reads
// it, and goes with the harness's prune metric (ROADMAP item 7).
type PruneStats struct {
	Considered  uint64
	Unreachable uint64
	Dominated   uint64
}

// PruneStats reports zero counts, as MemoStats reports no hits.
//
// Deprecated: use Predictions and JointTrials. PruneStats exists for the
// bench harness, which still calls it.
func (c *Controller) PruneStats() PruneStats { return PruneStats{} }

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
