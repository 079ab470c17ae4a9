package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"harmony/internal/match"
	"harmony/internal/objective"
	"harmony/internal/predict"
	"harmony/internal/resource"
	"harmony/internal/rsl"
)

// This file implements side-effect-free candidate evaluation: every
// hypothetical placement is trial-reserved in a copy-on-write fork of a
// ledger snapshot, never in the shared ledger. Because candidates no longer
// contend for the real ledger, the controller fans bestChoiceLocked out over
// a worker pool (Config.EvalWorkers, default GOMAXPROCS) and still returns
// results byte-identical to the serial path: every candidate is evaluated
// against the same immutable base snapshot and the reduction walks results
// in enumeration order with the same strict-improvement comparison.

// otherApp is one already-placed application whose predicted time
// contributes to the objective while a candidate is evaluated.
type otherApp struct {
	owner string
	opt   *rsl.OptionSpec
	asg   *match.Assignment
	hosts hostSet
	// pred is the prediction against the evaluation base state (the
	// committed ledger minus the evaluated app's claim). Candidates whose
	// placement does not touch any of this app's hosts reuse it; candidates
	// that do share hosts re-predict in their fork, because their trial
	// reservation changes this app's contention.
	pred predict.Prediction
	err  error
}

// evalContext is the shared, immutable input to one bestChoice evaluation:
// a base snapshot with the evaluated app's own claim released, plus the
// base predictions of every other application. Workers must not mutate it.
type evalContext struct {
	app    *appState
	base   *resource.Snapshot
	others []otherApp
}

// evalResult is one candidate's outcome, slotted by enumeration index.
type evalResult struct {
	cand candidate
	err  error
}

// evalWorkers resolves the configured evaluation parallelism.
func (c *Controller) evalWorkers() int {
	if c.cfg.EvalWorkers > 0 {
		return c.cfg.EvalWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// predictOptionView routes a prediction against a resource view (the
// committed ledger, or a snapshot fork holding a trial reservation) through
// the configured model stack: the application's explicit model when present
// (the Table 1 "performance" tag), otherwise the critical-path refinement
// when enabled, otherwise the default contention model.
func (c *Controller) predictOptionView(view resource.View, opt *rsl.OptionSpec, asg *match.Assignment, selfReserved bool) (predict.Prediction, error) {
	p := predict.NewWithView(view)
	if opt != nil && len(opt.Performance) > 0 {
		return p.Explicit(opt.Performance, asg, selfReserved)
	}
	if c.cfg.UseCriticalPath {
		return p.CriticalPath(asg, selfReserved, c.cfg.CriticalPathParams)
	}
	return p.ForOption(opt, asg, selfReserved)
}

// predMemoKey identifies a memoized prediction: the option (by identity —
// option specs are immutable and owned by their bundle), the assignment's
// resource fingerprint, and the claim hypothetically released from the
// view the prediction was computed against (0 = the committed ledger with
// every claim in place). The excl dimension is what makes re-evaluation
// hit the cache on shared-host workloads: each app's evaluation predicts
// every other app against "committed minus my claim", a state that recurs
// identically across passes until the ledger actually changes. Entries are
// only valid for the committed ledger state they were computed against;
// the memo is cleared whenever a claim is adopted or released
// (invalidatePredictionMemoLocked).
type predMemoKey struct {
	opt  *rsl.OptionSpec
	fp   uint64
	excl uint64
}

// cachedPredictViewLocked memoizes a prediction until the next ledger
// mutation, against either the committed ledger with every claim in place
// (view c.ledger, excl 0) or the committed ledger minus one released claim
// (the evaluated app's own), keyed by that claim's id. refreshPredictionsLocked
// and the per-re-evaluation "other apps" vector hit the first, so the jobs
// vector is computed once per re-evaluation instead of once per candidate.
// Within one pass every candidate context rebuilds the same minus-one-app
// view, and across passes the view recurs until the memo is cleared; without
// the second, shared-host (Figure 7-shaped) workloads have a ~0 hit rate.
func (c *Controller) cachedPredictViewLocked(view resource.View, opt *rsl.OptionSpec, asg *match.Assignment, excl uint64) (predict.Prediction, error) {
	if asg == nil {
		return predict.Prediction{}, fmt.Errorf("core: nil assignment")
	}
	key := predMemoKey{opt: opt, fp: asg.Fingerprint(), excl: excl}
	if p, ok := c.predMemo[key]; ok {
		c.memoHits++
		return p, nil
	}
	p, err := c.predictOptionView(view, opt, asg, true)
	if err != nil {
		return p, err
	}
	c.memoMisses++
	if c.predMemo == nil {
		c.predMemo = make(map[predMemoKey]predict.Prediction)
	}
	c.predMemo[key] = p
	return p, nil
}

// invalidatePredictionMemoLocked drops every memoized prediction. Called on
// adoption and release: any committed ledger change can shift contention.
func (c *Controller) invalidatePredictionMemoLocked() {
	if len(c.predMemo) > 0 {
		c.predMemo = make(map[predMemoKey]predict.Prediction, len(c.predMemo))
	}
}

// MemoStats reports prediction-memo hits and misses since construction
// (used by benchmarks and tests to verify the cache is doing work).
func (c *Controller) MemoStats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.memoHits, c.memoMisses
}

// hostSet is the set of nodes an assignment touches, one bit per node at
// the node's index in the evaluation snapshot's hostname-ordered table.
type hostSet []uint64

// assignmentHostSet collects the distinct hosts an assignment touches.
func assignmentHostSet(view *resource.Snapshot, asg *match.Assignment) hostSet {
	var set hostSet
	if asg == nil {
		return set
	}
	for _, n := range asg.Nodes {
		i, ok := view.NodeIndex(n.Hostname)
		if !ok {
			continue
		}
		w := i / 64
		if w >= len(set) {
			set = append(set, make(hostSet, w+1-len(set))...)
		}
		set[w] |= 1 << (i % 64)
	}
	return set
}

// intersects reports whether two host sets share a member. A trial
// reservation only perturbs the nodes it loads and the links between its
// own hosts, so two assignments with disjoint host sets cannot affect each
// other's predictions.
func (a hostSet) intersects(b hostSet) bool {
	if len(b) < len(a) {
		a = a[:len(b)]
	}
	for i, w := range a {
		if w&b[i] != 0 {
			return true
		}
	}
	return false
}

// newEvalContextLocked snapshots the ledger, hypothetically releases the
// app's own claim inside the snapshot (the paper's "one bundle at a time"
// precondition), and precomputes every other application's base prediction.
// The shared ledger is not touched.
func (c *Controller) newEvalContextLocked(app *appState) *evalContext {
	snap := c.ledger.Snapshot()
	if app.claim != nil {
		if err := snap.Release(app.claim.ID); err != nil {
			// The claim is gone from the ledger (nothing is actually held):
			// drop the stale pointer instead of carrying it forward.
			c.warnLocked(fmt.Sprintf("core: %s holds stale claim %d: %v", app.owner(), app.claim.ID, err))
			app.claim = nil
		}
	}
	appHosts := assignmentHostSet(snap, app.assignment)
	ctx := &evalContext{app: app, base: snap, others: make([]otherApp, 0, len(c.order))}
	for _, id := range c.order {
		other := c.apps[id]
		if other == app {
			continue
		}
		if other.assignment == nil {
			// Degraded (evicted, not re-placed) apps hold no resources and
			// contribute neither contention nor an objective term.
			continue
		}
		o := otherApp{
			owner: other.owner(),
			opt:   other.bundle.Option(other.choice.Option),
			asg:   other.assignment,
			hosts: assignmentHostSet(snap, other.assignment),
		}
		if app.claim == nil || !appHosts.intersects(o.hosts) {
			// Releasing the app's claim cannot change this prediction, so
			// it equals the committed-state prediction: memoizable.
			o.pred, o.err = c.cachedPredictViewLocked(c.ledger, o.opt, o.asg, 0)
		} else {
			// The prediction depends on which claim was released, so it is
			// memoized under that claim's id.
			o.pred, o.err = c.cachedPredictViewLocked(snap, o.opt, o.asg, app.claim.ID)
		}
		ctx.others = append(ctx.others, o)
	}
	return ctx
}

// evaluateChoice trial-reserves one choice in a private fork of the base
// snapshot and computes the system objective with every other application's
// claim in place. It has no side effects and is safe to call concurrently
// for different choices of the same context.
func (c *Controller) evaluateChoice(ctx *evalContext, ch Choice) (candidate, error) {
	app := ctx.app
	opt := app.bundle.Option(ch.Option)
	if opt == nil {
		return candidate{}, fmt.Errorf("core: option %q not in bundle", ch.Option)
	}
	fork := ctx.base.Fork()
	matcher := c.matcher.WithView(fork)
	env := rsl.MapEnv(ch.Vars)
	asg, err := matcher.Match(match.Request{
		Option:       opt,
		Env:          env,
		MemoryGrants: ch.Grants,
	})
	if err != nil {
		return candidate{}, err
	}
	if _, err := matcher.Reserve(app.owner(), asg); err != nil {
		return candidate{}, err
	}

	pred, err := c.predictOptionView(fork, opt, asg, true)
	if err != nil {
		return candidate{}, err
	}

	candHosts := assignmentHostSet(fork, asg)
	jobs := make([]objective.JobPrediction, 0, len(ctx.others)+1)
	for i := range ctx.others {
		o := &ctx.others[i]
		if o.err != nil {
			return candidate{}, o.err
		}
		p := o.pred
		if candHosts.intersects(o.hosts) {
			// The candidate loads hosts this application runs on: its
			// contention-scaled prediction changes, re-predict in the fork.
			if p, err = c.predictOptionView(fork, o.opt, o.asg, true); err != nil {
				return candidate{}, err
			}
		}
		jobs = append(jobs, objective.JobPrediction{App: o.owner, Seconds: p.Seconds})
	}
	jobs = append(jobs, objective.JobPrediction{App: app.owner(), Seconds: pred.Seconds})

	friction := 0.0
	frictionWarn := ""
	if opt.Friction != nil {
		f, ferr := opt.Friction.Eval(rsl.ChainEnv{asg.MemoryEnv(), env})
		switch {
		case ferr != nil:
			// Surfaced by the reduction (once per distinct message) instead
			// of being silently treated as zero friction.
			frictionWarn = fmt.Sprintf("core: %s option %s: friction evaluation failed: %v", app.bundle.App, opt.Name, ferr)
		case f > 0:
			friction = f
		}
	}
	return candidate{
		choice:       ch,
		assignment:   asg,
		objective:    c.cfg.Objective(jobs),
		predicted:    pred.Seconds,
		friction:     friction,
		frictionWarn: frictionWarn,
	}, nil
}

// evaluateChoices evaluates every choice against the context, serially or
// on a bounded worker pool. Results are slotted by index, so downstream
// reduction is order-identical in both modes.
func (c *Controller) evaluateChoices(ctx *evalContext, choices []Choice) []evalResult {
	results := make([]evalResult, len(choices))
	workers := c.evalWorkers()
	if workers > len(choices) {
		workers = len(choices)
	}
	if workers <= 1 {
		for i, ch := range choices {
			results[i].cand, results[i].err = c.evaluateChoice(ctx, ch)
		}
		return results
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(choices) {
					return
				}
				results[i].cand, results[i].err = c.evaluateChoice(ctx, choices[i])
			}
		}()
	}
	wg.Wait()
	return results
}

// reduceCandidatesLocked selects the winning candidate exactly as the
// serial loop did: walk results in enumeration order, amortize friction
// into the score for non-initial switches, keep the first strictly-better
// candidate. Friction warnings surface here, deduplicated, in order.
func (c *Controller) reduceCandidatesLocked(app *appState, results []evalResult, forInitial bool) (candidate, error) {
	best := candidate{objective: math.Inf(1)}
	found := false
	var lastErr error
	var warned map[string]bool
	for i := range results {
		if results[i].err != nil {
			lastErr = results[i].err
			continue
		}
		cand := results[i].cand
		if cand.frictionWarn != "" && !warned[cand.frictionWarn] {
			if warned == nil {
				warned = make(map[string]bool)
			}
			warned[cand.frictionWarn] = true
			c.warnLocked(cand.frictionWarn)
		}
		score := cand.objective
		if !forInitial && !cand.choice.Equal(app.choice) && !c.cfg.IgnoreFriction {
			// Amortize the frictional switching cost into the objective: a
			// switch must buy more improvement than it costs (Section 3,
			// "frictional cost function ... to evaluate if a tuning option
			// is worth the effort").
			n := len(c.order)
			if n == 0 {
				n = 1
			}
			score += cand.friction / float64(n)
		}
		if score < best.objective {
			best = cand
			best.objective = score
			found = true
		}
	}
	if !found {
		if lastErr != nil {
			return candidate{}, fmt.Errorf("%w for %s: %v", ErrNoFeasibleOption, app.bundle.App, lastErr)
		}
		return candidate{}, fmt.Errorf("%w for %s", ErrNoFeasibleOption, app.bundle.App)
	}
	return best, nil
}
