package core

import (
	"fmt"
	"math"
	"time"

	"harmony/internal/match"
	"harmony/internal/objective"
	"harmony/internal/predict"
	"harmony/internal/resource"
	"harmony/internal/rsl"
)

// candidate is one evaluated configuration: a choice plus its matched
// placement and the system objective value with the candidate reserved.
type candidate struct {
	choice     choiceKey
	assignment *match.Assignment
	objective  float64
	predicted  float64
	friction   float64
	// frictionWarn carries a deferred warning when the option's friction
	// expression failed to evaluate (surfaced once by the reduction).
	frictionWarn string
}

// choiceKey aliases Choice for internal plumbing.
type choiceKey = Choice

// enumerateChoices expands a bundle into concrete choices: for each option,
// the cross product of its variable values, times the memory-grant ladder
// for OpMin memory tags (Section 3.5: ">= 32 tells Harmony that ...
// additional memory can be used profitably as well").
func (c *Controller) enumerateChoices(bundle *rsl.BundleSpec) []Choice {
	var out []Choice
	for i := range bundle.Options {
		opt := &bundle.Options[i]
		varSets := expandVariables(opt.Variables)
		grantSets := c.expandGrants(opt, varSets)
		for _, vars := range varSets {
			for _, grants := range grantSets {
				out = append(out, Choice{Option: opt.Name, Vars: vars, Grants: grants})
			}
		}
	}
	return out
}

// expandVariables builds the cross product of variable value sets. A bundle
// option with no variables yields the single empty binding.
func expandVariables(specs []rsl.VariableSpec) []map[string]float64 {
	sets := []map[string]float64{nil}
	for _, vs := range specs {
		next := make([]map[string]float64, 0, len(sets)*len(vs.Values))
		for _, base := range sets {
			for _, v := range vs.Values {
				m := make(map[string]float64, len(base)+1)
				for k, bv := range base {
					m[k] = bv
				}
				m[vs.Name] = v
				next = append(next, m)
			}
		}
		sets = next
	}
	return sets
}

// expandGrants builds memory-grant alternatives for every node spec whose
// memory tag is a minimum constraint. The ladder is minimum + each
// configured step; one combined map per step keeps the search linear.
func (c *Controller) expandGrants(opt *rsl.OptionSpec, varSets []map[string]float64) []map[string]float64 {
	var minNodes []string
	mins := make(map[string]float64)
	env := rsl.MapEnv(nil)
	if len(varSets) > 0 && varSets[0] != nil {
		env = varSets[0]
	}
	for i := range opt.Nodes {
		spec := &opt.Nodes[i]
		tag, ok := spec.Tags["memory"]
		if !ok || tag.IsString || tag.Op != rsl.OpMin {
			continue
		}
		v, err := tag.EvalNum(env)
		if err != nil {
			continue
		}
		minNodes = append(minNodes, spec.LocalName)
		mins[spec.LocalName] = v
	}
	if len(minNodes) == 0 {
		return []map[string]float64{nil}
	}
	out := make([]map[string]float64, 0, len(c.cfg.GrantSteps))
	for _, step := range c.cfg.GrantSteps {
		g := make(map[string]float64, len(minNodes))
		for _, name := range minNodes {
			g[name] = mins[name] + step
		}
		out = append(out, g)
	}
	return out
}

// bestChoiceLocked finds the objective-minimizing feasible choice for app.
// Evaluation is side-effect-free: candidates are trial-reserved in copies of
// a ledger snapshot's columns, never in the shared ledger, so the app's real
// claim stays in place until adoption. When forInitial is true, the friction of
// the chosen option is not charged (nothing is switching).
func (c *Controller) bestChoiceLocked(app *appState, now time.Duration, forInitial bool) (candidate, error) {
	bs := c.staticForLocked(app)
	ctx := c.newEvalContextLocked(app)
	choices, replicas := c.pruneChoicesLocked(bs, app.choice, ctx.nodes)
	results := c.evaluateChoices(ctx, choices, replicas)
	return c.reduceCandidatesLocked(app, results, forInitial)
}

// reevaluateLocked runs the optimizer over registered applications in
// registration (lexical) order, skipping skipInstance (a just-registered
// app). It returns events for every application whose choice changed.
func (c *Controller) reevaluateLocked(now time.Duration, skipInstance int) []Event {
	if c.cfg.Exhaustive {
		return c.reevaluateExhaustiveLocked(now, skipInstance)
	}
	var events []Event
	for _, id := range append([]int(nil), c.order...) {
		app, ok := c.apps[id]
		if !ok || id == skipInstance {
			continue
		}
		// Granularity gate: the application told us how often it can absorb
		// a change (Table 1, "granularity" tag). A claimless app holds no
		// placement at all (evicted or stale), so re-placing it is not a
		// switch the gate should delay.
		if app.claim != nil && !c.granularityAllowsLocked(app, now) {
			continue
		}
		best, err := c.bestChoiceLocked(app, now, false)
		if err != nil {
			continue
		}
		if best.choice.Equal(app.choice) && app.claim != nil {
			// Nothing to do: evaluation left the ledger untouched, so the
			// app's existing claim is still in place. (A nil claim means the
			// claim went stale and the app must be re-placed even under an
			// unchanged choice.)
			continue
		}
		ev, err := c.adoptLocked(app, best, now, false)
		if err != nil {
			c.warnLocked(fmt.Sprintf("core: %s: adopting %s failed: %v", app.owner(), best.choice.String(), err))
			continue
		}
		events = append(events, ev)
	}
	return events
}

// granularityAllowsLocked checks the option's declared switching rate.
func (c *Controller) granularityAllowsLocked(app *appState, now time.Duration) bool {
	opt := app.bundle.Option(app.choice.Option)
	if opt == nil || opt.Granularity == nil || app.lastSwitch < 0 {
		return true
	}
	g, err := opt.Granularity.Eval(rsl.MapEnv(app.choice.Vars))
	if err != nil || g <= 0 {
		return true
	}
	return now-app.lastSwitch >= time.Duration(g*float64(time.Second))
}

// comboResult is the best full-system configuration found in one branch of
// the exhaustive search.
type comboResult struct {
	score float64
	combo []candidate
	warns []string
}

// reevaluateExhaustiveLocked searches the full cross product of all
// applications' choices (the A2 ablation baseline). Exponential: intended
// for small systems only. The search runs over snapshot forks — the shared
// ledger is only touched if a strictly better combination is adopted — and
// fans the first application's choices out over the worker pool.
func (c *Controller) reevaluateExhaustiveLocked(now time.Duration, skipInstance int) []Event {
	// Degraded apps are searched separately afterwards: the cross product
	// requires every participating app to be placeable in a branch, so one
	// unplaceable evictee would otherwise veto the whole reshuffle.
	ids := make([]int, 0, len(c.order))
	var degraded []int
	for _, id := range c.order {
		if id == skipInstance {
			continue
		}
		if c.apps[id].degraded {
			degraded = append(degraded, id)
			continue
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return c.readmitDegradedLocked(now, degraded, nil)
	}
	base := c.ledger.Snapshot()
	// Hypothetically release every movable app inside the snapshot.
	for _, id := range ids {
		app := c.apps[id]
		if app.claim == nil {
			continue
		}
		if err := base.Release(app.claim.ID); err != nil {
			c.warnLocked(fmt.Sprintf("core: %s holds stale claim %d: %v", app.owner(), app.claim.ID, err))
			app.claim = nil
		}
	}
	perApp := make([][]Choice, len(ids))
	nodes := base.AppendNodes(c.evalCtx.nodes[:0])
	c.evalCtx.nodes = nodes
	for i, id := range ids {
		app := c.apps[id]
		// Prune against the all-released base: reservations at deeper
		// search levels only shrink capacity, so a candidate infeasible
		// here is infeasible in every branch.
		perApp[i], _ = c.pruneChoicesLocked(c.staticForLocked(app), app.choice, nodes)
	}

	best := c.searchExhaustive(base, ids, perApp, skipInstance)
	for _, w := range best.warns {
		c.warnLocked(w)
	}
	if best.combo == nil {
		// Nothing feasible (shouldn't happen: previous state was feasible).
		// The ledger was never touched, so every claim is still in place.
		return c.readmitDegradedLocked(now, degraded, nil)
	}

	// Adopt: release every movable claim, then reserve the combination in
	// order (later reservations may need capacity earlier releases freed).
	for _, id := range ids {
		app := c.apps[id]
		if app.claim == nil {
			continue
		}
		if err := c.ledger.Release(app.claim.ID); err != nil {
			c.warnLocked(fmt.Sprintf("core: %s: release for joint adoption: %v", app.owner(), err))
		}
		app.claim = nil
	}
	var events []Event
	for i, id := range ids {
		app := c.apps[id]
		cd := best.combo[i]
		changed := !cd.choice.Equal(app.choice)
		ev, err := c.adoptLocked(app, cd, now, false)
		if err != nil {
			if claim, rerr := c.matcher.Reserve(app.owner(), app.assignment); rerr == nil {
				app.claim = claim
			} else {
				c.warnLocked(fmt.Sprintf("core: %s: could not restore placement: %v", app.owner(), rerr))
			}
			continue
		}
		if changed {
			events = append(events, ev)
		}
	}
	return c.readmitDegradedLocked(now, degraded, events)
}

// readmitDegradedLocked tries a greedy placement for each degraded app
// (cheapest first by registration order); ones that fit rejoin the system.
func (c *Controller) readmitDegradedLocked(now time.Duration, degraded []int, events []Event) []Event {
	for _, id := range degraded {
		app, ok := c.apps[id]
		if !ok || !app.degraded {
			continue
		}
		best, err := c.bestChoiceLocked(app, now, false)
		if err != nil {
			continue
		}
		ev, err := c.adoptLocked(app, best, now, false)
		if err != nil {
			c.warnLocked(fmt.Sprintf("core: %s: re-admission failed: %v", app.owner(), err))
			continue
		}
		events = append(events, ev)
	}
	return events
}

// searchExhaustive walks the cross product of all applications' choices.
// The first level fans out over the worker pool, one snapshot fork per
// top-level choice; deeper levels recurse serially, forking per choice so
// serial and parallel runs perform identical floating-point arithmetic.
// Branch results reduce in enumeration order with strict improvement, so
// the winner is byte-identical to a fully serial depth-first walk.
func (c *Controller) searchExhaustive(base *resource.Snapshot, ids []int, perApp [][]Choice, skipInstance int) comboResult {
	top := perApp[0]
	branches := make([]comboResult, len(top))
	runBranch := func(i int) comboResult {
		br := comboResult{score: math.Inf(1)}
		fork, cd, ok := c.tryChoice(base, ids[0], top[i], &br)
		if ok {
			c.walkExhaustive(fork, ids, perApp, skipInstance, 1, []candidate{cd}, &br)
		}
		return br
	}
	workers := c.evalWorkers()
	if workers > 1 && len(top) > 1 {
		c.fanOuts++
	}
	fanOut(len(top), workers, func(i int) { branches[i] = runBranch(i) })
	best := comboResult{score: math.Inf(1)}
	for _, br := range branches {
		best.warns = append(best.warns, br.warns...)
		if br.combo != nil && br.score < best.score {
			best.score = br.score
			best.combo = br.combo
		}
	}
	return best
}

// tryChoice matches and trial-reserves one choice for one app in a fresh
// fork of view, returning the fork, the candidate, and whether it fits. The
// joint search is the one place that forks: its trial states nest, each level
// reserving on top of the branch above it, which is what an overlay chain is
// for.
func (c *Controller) tryChoice(view *resource.Snapshot, id int, ch Choice, br *comboResult) (*resource.Snapshot, candidate, bool) {
	app := c.apps[id]
	opt := app.bundle.Option(ch.Option)
	fork := view.Fork()
	matcher := c.matcher.WithView(fork)
	asg, err := matcher.Match(match.Request{Option: opt, Env: rsl.MapEnv(ch.Vars), MemoryGrants: ch.Grants})
	if err != nil {
		return nil, candidate{}, false
	}
	if _, err := matcher.Reserve(app.owner(), asg); err != nil {
		return nil, candidate{}, false
	}
	c.predictions.Add(1)
	pred, err := c.predictIndexed(predict.Indexed{View: fork}, opt, predict.Resolve(fork, asg))
	if err != nil {
		return nil, candidate{}, false
	}
	friction := 0.0
	if opt.Friction != nil {
		f, ferr := opt.Friction.Eval(rsl.ChainEnv{asg.MemoryEnv(), rsl.MapEnv(ch.Vars)})
		switch {
		case ferr != nil:
			br.addWarn(fmt.Sprintf("core: %s option %s: friction evaluation failed: %v", app.bundle.App, opt.Name, ferr))
		case f > 0:
			friction = f
		}
	}
	return fork, candidate{choice: ch, assignment: asg, predicted: pred.Seconds, friction: friction}, true
}

// walkExhaustive recurses over the remaining applications' choices.
func (c *Controller) walkExhaustive(view *resource.Snapshot, ids []int, perApp [][]Choice, skipInstance, level int, acc []candidate, br *comboResult) {
	if level == len(ids) {
		jobs := make([]objective.JobPrediction, 0, len(acc))
		for _, cd := range acc {
			jobs = append(jobs, objective.JobPrediction{Seconds: cd.predicted})
		}
		// Fixed (skipped) apps still count toward the objective.
		if skipInstance != 0 {
			if fixed, ok := c.apps[skipInstance]; ok {
				jobs = append(jobs, objective.JobPrediction{Seconds: fixed.predicted})
			}
		}
		score := c.cfg.Objective(jobs)
		if !c.cfg.IgnoreFriction {
			for j, cd := range acc {
				if !cd.choice.Equal(c.apps[ids[j]].choice) {
					score += cd.friction / float64(len(jobs))
				}
			}
		}
		if score < br.score {
			br.score = score
			br.combo = append([]candidate(nil), acc...)
		}
		return
	}
	for _, ch := range perApp[level] {
		fork, cd, ok := c.tryChoice(view, ids[level], ch, br)
		if !ok {
			continue
		}
		c.walkExhaustive(fork, ids, perApp, skipInstance, level+1, append(acc, cd), br)
	}
}

// addWarn appends a deduplicated warning to the branch result.
func (br *comboResult) addWarn(msg string) {
	for _, w := range br.warns {
		if w == msg {
			return
		}
	}
	br.warns = append(br.warns, msg)
}

// EvaluationCount reports how many (choice, app) evaluations a greedy pass
// performs versus an exhaustive pass for the current system; used by the A2
// ablation bench to quantify search-space savings.
func (c *Controller) EvaluationCount() (greedy, exhaustive int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	exhaustive = 1
	for _, id := range c.order {
		n := len(c.enumerateChoices(c.apps[id].bundle))
		greedy += n
		exhaustive *= n
	}
	if len(c.order) == 0 {
		exhaustive = 0
	}
	return greedy, exhaustive
}
