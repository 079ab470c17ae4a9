package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"harmony/internal/match"
	"harmony/internal/objective"
	"harmony/internal/predict"
	"harmony/internal/resource"
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
	// at is the choice's place in the app's enumeration, where bestChoice
	// found it.
	at int
}

// bestChoice finds the objective-minimizing feasible choice for app.
// The candidates are evaluated on the pass state's trial columns, which are
// restored after each, never in the shared ledger, so the app's real claim
// stays in place until adoption. The loop keeps the first strictly better
// score in enumeration order, amortizes friction into the score of a
// non-initial switch (when forInitial is true nothing is switching, so no
// friction is charged), and raises each friction warning the app has not
// raised before, in order. A candidate that becomes the best so far swaps its
// assignment into the pass state's best buffer, which the winner's points to
// until the next evaluation: nothing is copied unless adopt keeps it. Every
// enumerated choice is evaluated: one that cannot fit costs a Place that says
// so before anything is charged or predicted. When nothing fits, the error
// quotes the last enumerated choice's failure, and a misfit is asked why only
// then.
func (c *Controller) bestChoice(app *appState, now time.Duration, forInitial bool) (candidate, error) {
	p := c.openEvaluation(app)
	best := candidate{objective: math.Inf(1)}
	var lastErr error
	var lastPlan *match.Plan
	for k, plan := range app.an.Plans {
		cand, err := c.evaluate(p, app.an.Choices[k], plan)
		if err != nil {
			lastErr, lastPlan = err, plan
			continue
		}
		c.warnOnce(app, cand.frictionWarn)
		score := cand.objective
		if !forInitial && !app.isCurrent(k) && !c.cfg.IgnoreFriction {
			// Amortize the frictional switching cost into the objective: a
			// switch must buy more improvement than it costs (Section 3,
			// "frictional cost function ... to evaluate if a tuning option
			// is worth the effort").
			score += cand.friction / float64(max(len(c.order), 1))
		}
		if score < best.objective {
			p.asg, p.best = p.best, p.asg
			best = cand
			best.assignment, best.objective, best.at = &p.best, score, k
		}
	}
	if best.assignment == nil {
		if lastErr == errMisfit {
			lastErr = p.scan.Misfit(lastPlan)
		}
		if lastErr != nil {
			return candidate{}, fmt.Errorf("%w for %s: %v", ErrNoFeasibleOption, app.bundle.App, lastErr)
		}
		return candidate{}, fmt.Errorf("%w for %s", ErrNoFeasibleOption, app.bundle.App)
	}
	return best, nil
}

// reevaluate runs the optimizer over registered applications in
// registration (lexical) order, skipping skipInstance (a just-registered
// app). It returns events for every application whose choice changed.
func (c *Controller) reevaluate(now time.Duration, skipInstance int) []Event {
	if c.cfg.Exhaustive {
		events, _, _ := c.reevaluateExhaustive(now, skipInstance, false)
		return events
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
		if app.claim != nil && !c.granularityAllows(app, now) {
			continue
		}
		best, err := c.bestChoice(app, now, false)
		if err != nil {
			continue
		}
		if app.isCurrent(best.at) && app.claim != nil {
			// Nothing to do: evaluation left the ledger untouched, so the
			// app's existing claim is still in place. (A nil claim means the
			// claim went stale and the app must be re-placed even under an
			// unchanged choice.)
			continue
		}
		ev, err := c.adopt(app, best, now, false)
		if err != nil {
			c.warn(fmt.Sprintf("core: %s: adopting %s failed: %v", app.owner(), best.choice.String(), err))
			continue
		}
		events = append(events, ev)
	}
	return events
}

// granularityAllows checks the option's declared switching rate.
func (c *Controller) granularityAllows(app *appState, now time.Duration) bool {
	g := app.granularity
	return g <= 0 || app.lastSwitch < 0 || now-app.lastSwitch >= time.Duration(g*float64(time.Second))
}

// comboResult is the best full-system configuration a joint search found.
type comboResult struct {
	score float64
	combo []candidate
	warns []string
	// cuts counts what the search skipped without trying it: inner nodes
	// below which some level had no choice left that may fit, and choices
	// whose bound could not beat the best leaf so far.
	cuts int
	// exhausted marks a search that stopped at its trial budget: combo is the
	// best of the leaves it reached, not necessarily the best there is.
	exhausted bool
	// why is the first prediction a trial failed, which rules its choice out
	// (one that is not a finite time among them): the cause to report when
	// no leaf is reached.
	why error
}

// jointProblem sets up a joint search the way openEvaluation sets up a greedy
// one. It returns the applications that take part (ids, registration order,
// without skipInstance and the degraded ones, which are returned apart), the
// ledger as it stands (base), and each one's choices to try. It ends the pass
// and fills the pass state with base's node table and columns, releases each
// participant's claim into the columns through the pass's undo log, and keeps
// of each application's enumeration the choices that may fit there
// (match.Scan.MayFit): a search level only charges more, so a choice that
// cannot fit on the released state fits in no branch. searchJoint takes the
// releases back when it is done.
func (c *Controller) jointProblem(skipInstance int) (base *resource.Snapshot, ids []int, perApp [][]int, degraded []int) {
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
	c.endPass()
	p := &c.pass
	base = c.ledger.Snapshot()
	p.nodes = base.AppendNodes(p.nodes[:0])
	base.ReadColumns(&p.cols)
	for _, id := range ids {
		app := c.apps[id]
		if app.claim == nil {
			continue
		}
		if cl, err := base.Claim(app.claim.ID); err != nil {
			c.warn(fmt.Sprintf("core: %s holds stale claim %d: %v", app.owner(), app.claim.ID, err))
			app.claim = nil
		} else {
			p.cols.Release(cl, base.Topology(), &p.undo)
		}
	}
	p.scan.Reset(base, p.nodes, &p.cols)
	perApp = make([][]int, len(ids))
	for i, id := range ids {
		for k, plan := range c.apps[id].an.Plans {
			if p.scan.MayFit(plan) {
				perApp[i] = append(perApp[i], k)
			}
		}
	}
	return base, ids, perApp, degraded
}

// reevaluateExhaustive searches the cross product of all applications'
// choices: the A2 ablation baseline and, with accommodate, how Register makes
// room for an arrival that fits nowhere. The search never touches the shared
// ledger, which changes only if a combination is adopted. A search that spends
// its trial budget adopts nothing, so the pass keeps the current state, unless
// it is making room for an arrival: then the best combination it found, which
// places the arrival, is adopted. exhausted reports the cut-off.
func (c *Controller) reevaluateExhaustive(now time.Duration, skipInstance int, accommodate bool) (events []Event, exhausted bool, why error) {
	base, ids, perApp, degraded := c.jointProblem(skipInstance)
	if len(ids) == 0 {
		return c.readmitDegraded(now, degraded, nil), false, nil
	}
	best := c.searchJoint(base, ids, perApp, skipInstance)
	for _, w := range best.warns {
		c.warn(w)
	}
	if best.exhausted {
		c.jointBudgetHits++
		c.warn(fmt.Sprintf("core: joint search stopped at its budget of %d trials", c.jointBudget))
		if !accommodate {
			best.combo = nil
		}
	}
	if best.combo == nil {
		// Nothing feasible, or the budget ran out. The ledger was never
		// touched, so every claim is still in place.
		return c.readmitDegraded(now, degraded, nil), best.exhausted, best.why
	}

	// Adopt: release every movable claim, then reserve the combination in
	// order (later reservations may need capacity earlier releases freed).
	for _, id := range ids {
		app := c.apps[id]
		if app.claim == nil {
			continue
		}
		if err := c.ledger.Release(app.claim.ID); err != nil {
			c.warn(fmt.Sprintf("core: %s: release for joint adoption: %v", app.owner(), err))
		}
		app.claim = nil
	}
	for i, id := range ids {
		app := c.apps[id]
		cd := best.combo[i]
		changed := !cd.choice.Equal(app.choice)
		ev, err := c.adopt(app, cd, now, false)
		if err != nil {
			if claim, rerr := c.matcher.Reserve(app.owner(), app.assignment); rerr == nil {
				app.claim = claim
			} else {
				c.warn(fmt.Sprintf("core: %s: could not restore placement: %v", app.owner(), rerr))
			}
			continue
		}
		if changed {
			events = append(events, ev)
		}
	}
	return c.readmitDegraded(now, degraded, events), best.exhausted, nil
}

// readmitDegraded tries a greedy placement for each degraded app
// (cheapest first by registration order); ones that fit rejoin the system.
func (c *Controller) readmitDegraded(now time.Duration, degraded []int, events []Event) []Event {
	for _, id := range degraded {
		app, ok := c.apps[id]
		if !ok || !app.degraded {
			continue
		}
		best, err := c.bestChoice(app, now, false)
		if err != nil {
			continue
		}
		ev, err := c.adopt(app, best, now, false)
		if err != nil {
			c.warn(fmt.Sprintf("core: %s: re-admission failed: %v", app.owner(), err))
			continue
		}
		events = append(events, ev)
	}
	return events
}

// jointTrialBudget is how many trials one joint search may make. The walk is
// exponential in the number of applications, and it runs inside Apply, on the
// replica's only loop, on every member: the budget keeps one admission against
// a full machine from stalling that loop past an election timeout. It counts
// trials, never time, so every member and every replay of a log stops a
// search at the same trial and decides alike. The value is set from hbench's
// accommodate sweep (docs/OPTIMIZER.md): above the 8 177 trials of the
// largest point that must finish (8 residents x 9 choices; 12 x 5 takes
// 5 879), and at the slowest trial measured there, on a busy host, about
// 30 ms: a tenth of the 300 ms election timeout.
const jointTrialBudget = 10_000

// jointSearch is a depth-first branch-and-bound walk of the cross product of
// the applications' choices, one application a level. There is one trial
// state, cols: a level charges its choice to it by index, the levels below see
// the charge, and on the way back up the level restores what it wrote, so
// every sibling is tried on the very bits the one before it was. A trial is a
// first-fit over columns, a charge and one prediction by index; what does not
// depend on where a choice lands is worked out once per choice (match.Plan,
// made with the bundle's analysis and shared with the greedy search),
// and nothing is formatted or allocated for a choice that does not fit.
// Leaves are adopted on strict improvement in enumeration order.
//
// The walk skips only what cannot change the winner: a choice that provably
// does not fit on the state (match.Scan.MayFit), an inner node below which
// some level has no choice left that may fit, and a choice whose bound — the
// score of the levels above, the choice and every level below at the least
// they can predict (predict.Floor) — is no better than the best leaf so far. So it picks what the
// exhaustive walk picks, bit for bit, unless it stops at its budget first.
type jointSearch struct {
	c    *Controller
	base *resource.Snapshot
	rows []resource.NodeState // base's node table: descriptions and health
	// cols, undo and charges are the pass state's: the trial state, the log
	// that restores it and the scratch a trial's claims are built in.
	cols    *resource.Columns
	undo    *resource.Undo
	charges *match.Charges
	levels  []jointLevel
	// jobs is what the objective scores: a job per level, which holds the
	// prediction of the level's trial while the walk is below it, then the
	// skipped application, which still counts with the prediction it holds.
	jobs []objective.JobPrediction
	best comboResult
	// trials counts this search's trials, which may not pass the controller's
	// jointBudget.
	trials int
}

// jointLevel is one application of a joint search: its choices, the scan of
// the state the levels above it left (every choice of the level is matched
// against that one state, so they share its order and its MayFit counts), and
// the trial that is charged while the levels below are walked.
type jointLevel struct {
	app     *appState
	choices []jointChoice
	// byBound lists the choices in ascending order of lower bound, ties in
	// enumeration order.
	byBound []int32
	scan    match.Scan
	// least holds, for this level and each below it, where in that level's
	// byBound the least-bound choice that may still fit on this level's state
	// stands; rest holds the lower bounds of those below this level, and
	// bounded whether every one of them is a bound (positive).
	least   []int32
	rest    []float64
	bounded bool
	// trial is the choice being tried; asg and placed are its placement,
	// overwritten by the level's next trial. Its prediction is the level's job.
	// fits counts the level's trials that fit; best is the level's placement in
	// the best leaf so far, copied from asg when fits was copied, so a leaf
	// whose level still holds that trial copies nothing.
	trial        *jointChoice
	asg          match.Assignment
	placed       predict.Placement
	best         match.Assignment
	fits, copied int
}

// jointChoice is one choice of one application in a joint search.
type jointChoice struct {
	choice Choice
	plan   *match.Plan
	// charged is whether the choice's friction counts: it switches the
	// application's choice, and friction is not ignored. surcharge is what
	// it adds to a score then, its friction amortized over the jobs.
	charged   bool
	surcharge float64
	// lb is what the choice's prediction can never go below on this machine
	// (predict.Floor), 0 when that is not known.
	lb float64
}

// searchJoint finds the best combination of one choice per application on the
// problem jointProblem set up: the pass state's node table and columns, read
// from base, with every application's claim released into them; perApp holds
// each application's choices to try, as indices into its bundle's
// enumeration. Unless the search spends its budget, the winner is what a walk
// that forked base for every trial and tried every choice would pick, bit for
// bit (searchByFork, in the tests, is that walk). The releases are taken back
// before it returns, so the columns hold base again.
func (c *Controller) searchJoint(base *resource.Snapshot, ids []int, perApp [][]int, skipInstance int) comboResult {
	p := &c.pass
	js := &jointSearch{c: c, base: base, rows: p.nodes, cols: &p.cols, undo: &p.undo, charges: &p.charges, levels: make([]jointLevel, len(ids))}
	js.best.score = math.Inf(1)
	js.jobs = make([]objective.JobPrediction, len(ids), len(ids)+1)
	if fixed := c.apps[skipInstance]; fixed != nil {
		js.jobs = append(js.jobs, objective.JobPrediction{Seconds: fixed.predicted})
	}
	fastest := predict.Fastest(js.rows)
	for i, id := range ids {
		lv := &js.levels[i]
		lv.app = c.apps[id]
		an := lv.app.an
		lv.choices = make([]jointChoice, len(perApp[i]))
		lv.byBound = make([]int32, len(perApp[i]))
		for j, k := range perApp[i] {
			plan := an.Plans[k]
			friction, _ := plan.Friction()
			lv.choices[j] = jointChoice{
				choice:    an.Choices[k],
				plan:      plan,
				charged:   !c.cfg.IgnoreFriction && !lv.app.isCurrent(k),
				surcharge: friction / float64(len(js.jobs)),
				lb:        predict.Floor(plan.Option(), plan, fastest),
			}
			lv.byBound[j] = int32(j)
		}
		slices.SortStableFunc(lv.byBound, func(a, b int32) int { return cmp.Compare(lv.choices[a].lb, lv.choices[b].lb) })
		lv.least = make([]int32, len(ids))
		lv.rest = make([]float64, len(ids)-i-1)
	}
	js.walk(0)
	p.cols.Restore(&p.undo, 0)
	for i := range js.best.combo {
		js.best.combo[i].assignment = &js.levels[i].best
	}
	return js.best
}

// walk tries the choices of the application at level on the state the levels
// above it charged, and under each that fits walks the levels below. A choice
// that cannot fit is passed over; the node is cut when some level from this
// one down has no choice left that may fit, and a choice when its bound is no
// better than the best leaf so far. The walk stops when the budget is spent.
func (js *jointSearch) walk(level int) {
	if level == len(js.levels) {
		js.leaf()
		return
	}
	lv := &js.levels[level]
	lv.scan.Reset(js.base, js.rows, js.cols)
	if !js.reach(level) {
		js.best.cuts++
		return
	}
	for k := range lv.choices {
		jc := &lv.choices[k]
		if !lv.scan.MayFit(jc.plan) {
			continue
		}
		if js.cut(lv, level, jc) {
			js.best.cuts++
			continue
		}
		if js.trials == js.c.jointBudget {
			js.best.exhausted = true
			return
		}
		mark := js.undo.Mark()
		if js.try(level, jc) {
			js.walk(level + 1)
		}
		js.cols.Restore(js.undo, mark)
		if js.best.exhausted {
			return
		}
	}
}

// reach finds, for this level and each below it, the least-bound choice that
// may still fit on the state the levels above it left, asking the level's
// scan, which walk has aimed there. That is the parent's, or one further along
// the level's byBound: a state only loses capacity further down, so a choice
// that could not fit above cannot fit here. It reports false when some level
// has none left, so that no leaf lies below.
func (js *jointSearch) reach(level int) bool {
	lv := &js.levels[level]
	lv.bounded = true
	for l := level; l < len(js.levels); l++ {
		next := &js.levels[l]
		at := 0
		if level > 0 {
			at = int(js.levels[level-1].least[l])
		}
		for at < len(next.byBound) && !lv.scan.MayFit(next.choices[next.byBound[at]].plan) {
			at++
		}
		if at == len(next.byBound) {
			return false
		}
		lv.least[l] = int32(at)
		if l > level {
			lb := next.choices[next.byBound[at]].lb
			lv.rest[l-level-1] = lb
			lv.bounded = lv.bounded && lb > 0
		}
	}
	return true
}

// cut reports whether trying jc at the level can be skipped because no leaf
// below it can strictly beat the best so far: its bound, with jc's lower bound
// in its slot and the least of each level below, is not below the best score.
// A leaf is adopted only on strict improvement, so a cut never changes the
// winner or the tie-break. With no bound for jc or for a level below, there is
// no cut.
func (js *jointSearch) cut(lv *jointLevel, level int, jc *jointChoice) bool {
	if !lv.bounded || jc.lb == 0 {
		return false
	}
	lv.trial = jc
	js.jobs[level].Seconds = jc.lb // until the trial, if there is one, predicts it
	for i, lb := range lv.rest {
		js.jobs[level+1+i].Seconds = lb
	}
	return js.score(level+1) >= js.best.score
}

// try places, charges and predicts one choice on the trial state, and reports
// whether it fits. The charge of a choice that fits is left in place for the
// caller to restore. A friction warning is kept the first time a choice that
// raises it fits, unless its app has raised it before: reevaluateExhaustive
// raises what the search kept.
func (js *jointSearch) try(level int, jc *jointChoice) bool {
	c, lv := js.c, &js.levels[level]
	c.jointTrials++
	js.trials++
	if !lv.scan.Place(jc.plan, &lv.asg) {
		return false
	}
	if err := match.ReserveColumns(js.cols, js.base, lv.app.owner(), &lv.asg, js.undo, js.charges); err != nil {
		return false
	}
	in := predict.Indexed{View: js.base, Loads: js.cols.CPULoad, Reserved: js.cols.ReservedMbps}
	pred, err := c.predictIndexed(in, jc.plan.Option(), lv.placed.Resolve(js.base, &lv.asg))
	if err != nil {
		js.best.why = cmp.Or(js.best.why, err)
		return false
	}
	if _, err := jc.plan.Friction(); err != nil {
		if w := frictionWarning(lv.app, jc.plan, err); !slices.Contains(lv.app.warned, w) {
			lv.app.warned = append(lv.app.warned, w)
			js.best.warns = append(js.best.warns, w)
		}
	}
	lv.trial, lv.fits = jc, lv.fits+1
	js.jobs[level].Seconds = pred.Seconds
	return true
}

// score is the objective over jobs — a value for each level, in level order,
// then the fixed application's prediction — plus the friction of each of the
// first decided levels whose choice switches, added in level order. With every
// level decided and each level's job its prediction it is a leaf's score. A
// bound (cut) puts lower bounds in the jobs from the last decided level on, and
// is then at most the score of any leaf below: the objective is
// non-decreasing in each job's seconds (objective.Func), rounding is monotone,
// and the friction left out is never negative.
func (js *jointSearch) score(decided int) float64 {
	score := js.c.cfg.Objective(js.jobs)
	for i := range js.levels[:decided] {
		if jc := js.levels[i].trial; jc.charged {
			score += jc.surcharge
		}
	}
	return score
}

// leaf scores the combination the levels hold and keeps it if it is strictly
// better than the best so far. Only then are the trial assignments copied, into
// the levels' best buffers, and only those of levels whose trial changed since
// the last copy; adopt copies the winner's out of those.
func (js *jointSearch) leaf() {
	score := js.score(len(js.levels))
	if !(score < js.best.score) {
		return
	}
	js.best.score = score
	if js.best.combo == nil {
		js.best.combo = make([]candidate, len(js.levels))
	}
	for i := range js.levels {
		lv := &js.levels[i]
		if lv.copied != lv.fits {
			lv.asg.CopyTo(&lv.best)
			lv.copied = lv.fits
		}
		friction, _ := lv.trial.plan.Friction()
		js.best.combo[i] = candidate{
			choice:    lv.trial.choice,
			predicted: js.jobs[i].Seconds,
			friction:  friction,
		}
	}
}

// JointTrials reports how many choices the joint search has tried — matched,
// and when they fit charged and predicted — since construction: the unit the
// search's cost and its budget are counted in. It depends on the applications
// and the cluster alone, so it repeats exactly from run to run.
func (c *Controller) JointTrials() uint64 { return c.view.Load().jointTrials }

// JointBudgetHits reports how many joint searches have stopped at their trial
// budget since construction.
func (c *Controller) JointBudgetHits() uint64 { return c.view.Load().jointBudgetHits }

// EvaluationCount reports how many (choice, app) evaluations a greedy pass
// performs versus an exhaustive pass for the current system; used by the A2
// ablation bench to quantify search-space savings. The exhaustive count is a
// product that outgrows an int on a few dozen applications; it saturates at
// math.MaxInt.
func (c *Controller) EvaluationCount() (greedy, exhaustive int) {
	analyses := c.view.Load().analyses
	exhaustive = 1
	for _, an := range analyses {
		n := len(an.Choices)
		greedy += n
		switch {
		case n == 0:
			exhaustive = 0
		case exhaustive > math.MaxInt/n:
			exhaustive = math.MaxInt
		default:
			exhaustive *= n
		}
	}
	if len(analyses) == 0 {
		exhaustive = 0
	}
	return greedy, exhaustive
}
