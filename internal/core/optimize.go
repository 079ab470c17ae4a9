package core

import (
	"fmt"
	"math"
	"slices"
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
	choice     Choice
	assignment *match.Assignment
	objective  float64
	predicted  float64
	friction   float64
	// frictionWarn carries a deferred warning when the option's friction
	// expression failed to evaluate (surfaced once by the reduction).
	frictionWarn string
}

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
// The candidates are evaluated on the context's trial state, which is
// restored after each, never in the shared ledger, so the app's real claim
// stays in place until adoption. The loop keeps the first strictly better
// score in enumeration order, amortizes friction into the score of a
// non-initial switch (when forInitial is true nothing is switching, so no
// friction is charged), and raises each distinct friction warning once, in
// order. Only a candidate that becomes the best so far has its assignment
// copied out of the context's. When nothing fits, the error quotes the last
// candidate's failure, and a misfit is asked why only then.
func (c *Controller) bestChoiceLocked(app *appState, now time.Duration, forInitial bool) (candidate, error) {
	bs := c.staticForLocked(app)
	ctx := c.newEvalContextLocked(app)
	best := candidate{objective: math.Inf(1)}
	var lastErr error
	var lastPlan *match.Plan
	var warned []string
	for _, k := range c.pruneChoicesLocked(bs, app.choice, ctx.nodes) {
		st := &bs.stat[k]
		cand, err := c.evaluate(ctx, bs.choices[k], st)
		if err != nil {
			lastErr, lastPlan = err, st.plan
			continue
		}
		if w := cand.frictionWarn; w != "" && !slices.Contains(warned, w) {
			warned = append(warned, w)
			c.warnLocked(w)
		}
		score := cand.objective
		if !forInitial && !cand.choice.Equal(app.choice) && !c.cfg.IgnoreFriction {
			// Amortize the frictional switching cost into the objective: a
			// switch must buy more improvement than it costs (Section 3,
			// "frictional cost function ... to evaluate if a tuning option
			// is worth the effort").
			score += cand.friction / float64(max(len(c.order), 1))
		}
		if score < best.objective {
			best = cand
			best.assignment = cand.assignment.Clone()
			best.objective = score
		}
	}
	if best.assignment == nil {
		if lastErr == errMisfit {
			lastErr = ctx.scan.Misfit(lastPlan)
		}
		if lastErr != nil {
			return candidate{}, fmt.Errorf("%w for %s: %v", ErrNoFeasibleOption, app.bundle.App, lastErr)
		}
		return candidate{}, fmt.Errorf("%w for %s", ErrNoFeasibleOption, app.bundle.App)
	}
	return best, nil
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

// comboResult is the best full-system configuration a joint search found.
type comboResult struct {
	score float64
	combo []candidate
	warns []string
}

// jointProblemLocked sets up a joint search: the applications that take part
// (ids, registration order, without skipInstance and the degraded ones, which
// are returned apart), a snapshot with every one of their claims released, and
// each one's choices pruned against that all-released base — reservations at
// deeper search levels only shrink capacity, so a candidate infeasible here is
// infeasible in every branch.
func (c *Controller) jointProblemLocked(skipInstance int) (base *resource.Snapshot, ids []int, perApp [][]int, degraded []int) {
	// Degraded apps are searched separately afterwards: the cross product
	// requires every participating app to be placeable in a branch, so one
	// unplaceable evictee would otherwise veto the whole reshuffle.
	ids = make([]int, 0, len(c.order))
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
		return nil, nil, nil, degraded
	}
	base = c.ledger.Snapshot()
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
	perApp = make([][]int, len(ids))
	nodes := base.AppendNodes(c.evalCtx.nodes[:0])
	c.evalCtx.nodes = nodes
	for i, id := range ids {
		app := c.apps[id]
		perApp[i] = c.pruneChoicesLocked(c.staticForLocked(app), app.choice, nodes)
	}
	return base, ids, perApp, degraded
}

// reevaluateExhaustiveLocked searches the full cross product of all
// applications' choices: the A2 ablation baseline, and how Register makes
// room for an arrival that fits nowhere. Exponential: intended for small
// systems only. The search never touches the shared ledger, which changes
// only if a combination is adopted.
func (c *Controller) reevaluateExhaustiveLocked(now time.Duration, skipInstance int) []Event {
	base, ids, perApp, degraded := c.jointProblemLocked(skipInstance)
	if len(ids) == 0 {
		return c.readmitDegradedLocked(now, degraded, nil)
	}
	best := c.searchJoint(base, ids, perApp, skipInstance)
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

// jointSearch is one depth-first walk of the cross product of the
// applications' choices, one application a level. There is one trial state,
// cols: a level charges its choice to it by index, the levels below see the
// charge, and on the way back up the level restores what it wrote, so every
// sibling is tried on the very bits the one before it was. A trial is a
// first-fit over columns, a charge and one prediction by index; what does not
// depend on where a choice lands is worked out once per choice (match.Plan,
// made with the bundle's static analysis and shared with the greedy search),
// and nothing is formatted or allocated for a choice that does not fit.
// Leaves are adopted on strict improvement in enumeration order.
type jointSearch struct {
	c      *Controller
	base   *resource.Snapshot
	rows   []resource.NodeState // base's node table: descriptions and health
	cols   resource.Columns
	undo   resource.Undo
	levels []jointLevel
	// fixed is the skipped application, which still counts toward the
	// objective with the prediction it holds.
	fixed *appState
	jobs  []objective.JobPrediction
	best  comboResult
	// branchWarns is where the warnings of the current first-level choice
	// start in best.warns: a warning is reported once per such branch.
	branchWarns int
}

// jointLevel is one application of a joint search: its choices, the scan of
// the state the levels above it left (every choice of the level is matched
// against that one state, so they share its order), and the trial that is
// charged while the levels below are walked.
type jointLevel struct {
	app     *appState
	choices []jointChoice
	scan    match.Scan
	// trial is the choice being tried; asg and placed are its placement,
	// overwritten by the level's next trial, predicted its prediction.
	trial     *jointChoice
	asg       match.Assignment
	placed    predict.Placement
	predicted float64
}

// jointChoice is one choice of one application in a joint search.
type jointChoice struct {
	choice Choice
	st     *choiceStatic
	// switches is whether adopting the choice changes the application's.
	switches bool
}

// searchJoint finds the best combination of one choice per application over
// base, which holds none of their claims; perApp holds each application's
// choices to try, as indices into its bundle's enumeration. The winner is
// what a walk that forked base for every trial would pick, bit for bit
// (searchByFork, in the tests, is that walk).
func (c *Controller) searchJoint(base *resource.Snapshot, ids []int, perApp [][]int, skipInstance int) comboResult {
	js := &jointSearch{c: c, base: base, rows: c.evalCtx.nodes, levels: make([]jointLevel, len(ids))}
	js.best.score = math.Inf(1)
	// Fixed (skipped) apps still count toward the objective.
	js.fixed = c.apps[skipInstance]
	base.ReadColumns(&js.cols)
	for i, id := range ids {
		lv := &js.levels[i]
		lv.app = c.apps[id]
		bs := lv.app.static // made by jointProblemLocked, which pruned perApp
		lv.choices = make([]jointChoice, len(perApp[i]))
		for j, k := range perApp[i] {
			lv.choices[j] = jointChoice{choice: bs.choices[k], st: &bs.stat[k], switches: !bs.choices[k].Equal(lv.app.choice)}
		}
	}
	js.walk(0)
	return js.best
}

// walk tries every choice of the application at level on the state the
// levels above it charged, and under each that fits walks the levels below.
func (js *jointSearch) walk(level int) {
	if level == len(js.levels) {
		js.leaf()
		return
	}
	lv := &js.levels[level]
	lv.scan.Reset(js.base, js.c.matcher.Strategy(), js.rows, &js.cols)
	for k := range lv.choices {
		if level == 0 {
			js.branchWarns = len(js.best.warns)
		}
		mark := js.undo.Mark()
		if js.try(lv, &lv.choices[k]) {
			js.walk(level + 1)
		}
		js.cols.Restore(&js.undo, mark)
	}
}

// try places, charges and predicts one choice on the trial state, and reports
// whether it fits. The charge of a choice that fits is left in place for the
// caller to restore.
func (js *jointSearch) try(lv *jointLevel, jc *jointChoice) bool {
	c := js.c
	c.jointTrials++
	if !lv.scan.Place(jc.st.plan, &lv.asg) {
		return false
	}
	if err := match.ReserveColumns(&js.cols, js.base, lv.app.owner(), &lv.asg, &js.undo); err != nil {
		return false
	}
	in := predict.Indexed{View: js.base, Loads: js.cols.CPULoad, Reserved: js.cols.ReservedMbps}
	pred, err := c.predictIndexed(in, jc.st.opt, lv.placed.Resolve(js.base, &lv.asg))
	if err != nil {
		return false
	}
	if w := jc.st.frictionWarn; w != "" && !slices.Contains(js.best.warns[js.branchWarns:], w) {
		js.best.warns = append(js.best.warns, w)
	}
	lv.trial, lv.predicted = jc, pred.Seconds
	return true
}

// leaf scores the combination the levels hold and keeps it if it is strictly
// better than the best so far. Only then are the trial assignments copied out
// of the levels' buffers.
func (js *jointSearch) leaf() {
	jobs := js.jobs[:0]
	for i := range js.levels {
		jobs = append(jobs, objective.JobPrediction{Seconds: js.levels[i].predicted})
	}
	if js.fixed != nil {
		jobs = append(jobs, objective.JobPrediction{Seconds: js.fixed.predicted})
	}
	js.jobs = jobs
	score := js.c.cfg.Objective(jobs)
	if !js.c.cfg.IgnoreFriction {
		for i := range js.levels {
			if jc := js.levels[i].trial; jc.switches {
				score += jc.st.friction / float64(len(jobs))
			}
		}
	}
	if score < js.best.score {
		js.best.score = score
		js.best.combo = make([]candidate, len(js.levels))
		for i := range js.levels {
			lv := &js.levels[i]
			js.best.combo[i] = candidate{
				choice:     lv.trial.choice,
				assignment: lv.asg.Clone(),
				predicted:  lv.predicted,
				friction:   lv.trial.st.friction,
			}
		}
	}
}

// JointTrials reports how many choices the joint search has tried — matched,
// and when they fit charged and predicted — since construction: the unit the
// search's cost is counted in. It depends on the applications and the cluster
// alone, so it repeats exactly from run to run.
func (c *Controller) JointTrials() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jointTrials
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
