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
// hypothetical placement is matched against, and trial-reserved in, private
// copies of the columns of a ledger snapshot, never in the shared ledger.
// Because candidates do not contend for the real ledger, the controller can
// fan an evaluation that is large enough to repay it out over a worker pool
// (Config.EvalWorkers, default GOMAXPROCS) and still return results
// byte-identical to the serial path: every candidate is evaluated against the
// same immutable base and the reduction walks results in enumeration order
// with the same strict-improvement comparison.

// resolved is a resident's placement as candidate evaluation reads it: the
// assignment's hosts and links as indices into the ledger's tables, and the
// hosts again as a set. It is derived from an assignment and a topology and
// from nothing else, so it is rebuilt rather than persisted: placedFor
// resolves on first use after adoption or restore (adoption predicts every
// resident, so that is when), and again when nodes or links were added to
// the cluster.
type resolved struct {
	pl    *predict.Placement
	hosts hostSet
}

// placedFor returns the app's assignment resolved against view's topology.
// The app must hold an assignment.
func (a *appState) placedFor(view *resource.Snapshot) *resolved {
	if p := a.placed; p == nil || p.pl.Assignment() != a.assignment || !p.pl.Resolved(view) {
		pl := predict.Resolve(view, a.assignment)
		a.placed = &resolved{pl: pl, hosts: placementHostSet(pl)}
	}
	return a.placed
}

// otherApp is one already-placed application whose predicted time
// contributes to the objective while a candidate is evaluated.
type otherApp struct {
	owner  string
	opt    *rsl.OptionSpec
	placed *resolved
	// pred is the prediction against the evaluation base state (the
	// committed ledger minus the evaluated app's claim). Candidates whose
	// placement does not touch any of this app's hosts reuse it; candidates
	// that do share hosts re-predict over their trial columns, because their
	// trial reservation changes this app's contention.
	pred predict.Prediction
	err  error
}

// evalContext is the shared, immutable input to one bestChoice evaluation:
// a base snapshot with the evaluated app's own claim released, its node table
// and its columns read out once, the matcher's scan over that table, and the
// base predictions of every other application. Candidates and workers share
// all of it read-only (the scan works out its order once, under its own
// sync.Once, for the first candidate with a wildcard spec) and charge copies.
// The controller has one (Controller.evalCtx) and refills it for every
// evaluation, so a pass over N applications does not allocate N node tables:
// a context is dead once the next one is built, and nothing in it — the scan
// least of all — is valid for any base but its own.
type evalContext struct {
	app    *appState
	base   *resource.Snapshot
	nodes  []resource.NodeState // base's node table, hostname order
	cols   resource.Columns     // base's free memory, load and reserved bandwidth
	scan   match.Scan           // over nodes
	others []otherApp
}

// candScratch is the working memory of one candidate evaluation.
type candScratch struct {
	// cols is the candidate's trial state: the context's columns with the
	// candidate's own claims charged.
	cols resource.Columns
	jobs []objective.JobPrediction
}

var candScratchPool = sync.Pool{New: func() any { return new(candScratch) }}

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

// predictIndexed routes the prediction of a placement the view already
// holds through the configured model stack: the application's explicit model
// when present (the Table 1 "performance" tag), otherwise the critical-path
// refinement when enabled, otherwise the default contention model.
func (c *Controller) predictIndexed(in predict.Indexed, opt *rsl.OptionSpec, pl *predict.Placement) (predict.Prediction, error) {
	if c.cfg.UseCriticalPath && (opt == nil || len(opt.Performance) == 0) {
		return in.CriticalPath(pl, true, c.cfg.CriticalPathParams)
	}
	return in.ForOption(opt, pl, true)
}

// MemoStats reports 0 hits and, as misses, the number of predictions made
// since construction. There is no prediction memo: a prediction over a
// resolved placement costs less than any key that could deduplicate it (see
// docs/OPTIMIZER.md).
//
// Deprecated: it exists for the bench harness, which still calls it, and goes
// when the harness stops (ROADMAP item 6).
func (c *Controller) MemoStats() (hits, misses uint64) {
	return 0, c.predictions.Load()
}

// hostSet is the set of nodes an assignment touches, one bit per node at
// the node's index in the evaluation snapshot's hostname-ordered table.
type hostSet []uint64

// placementHostSet collects the distinct registered hosts a placement uses.
func placementHostSet(pl *predict.Placement) hostSet {
	var set hostSet
	for _, pos := range pl.NodeIndices() {
		if pos < 0 {
			continue
		}
		w := int(pos) / 64
		if w >= len(set) {
			set = append(set, make(hostSet, w+1-len(set))...)
		}
		set[w] |= 1 << (pos % 64)
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
// precondition), reads the snapshot's node table and columns out once, aims
// the scan at them, and predicts every other application against that base.
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
	ctx := &c.evalCtx
	ctx.app, ctx.base = app, snap
	ctx.nodes = snap.AppendNodes(ctx.nodes[:0])
	snap.ReadColumns(&ctx.cols)
	ctx.scan.Reset(snap, c.matcher.Strategy(), ctx.nodes, &ctx.cols)
	c.evalContexts++
	in := predict.Indexed{View: snap, Loads: ctx.cols.CPULoad, Reserved: ctx.cols.ReservedMbps}
	clear(ctx.others) // drop the last evaluation's pointers
	ctx.others = ctx.others[:0]
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
			owner:  other.owner(),
			opt:    other.bundle.Option(other.choice.Option),
			placed: other.placedFor(snap),
		}
		o.pred, o.err = c.predictIndexed(in, o.opt, o.placed.pl)
		ctx.others = append(ctx.others, o)
	}
	c.predictions.Add(uint64(len(ctx.others)))
	return ctx
}

// evaluateChoice matches one choice over the context's scan, trial-reserves
// it in a private copy of the context's columns and computes the system
// objective with every other application's claim in place. It has no side
// effects and is safe to call concurrently for different choices of the same
// context.
func (c *Controller) evaluateChoice(ctx *evalContext, ch Choice) (candidate, error) {
	app := ctx.app
	opt := app.bundle.Option(ch.Option)
	if opt == nil {
		return candidate{}, fmt.Errorf("core: option %q not in bundle", ch.Option)
	}
	env := rsl.MapEnv(ch.Vars)
	asg, err := ctx.scan.Match(match.Request{
		Option:       opt,
		Env:          env,
		MemoryGrants: ch.Grants,
	})
	if err != nil {
		return candidate{}, err
	}
	sc := candScratchPool.Get().(*candScratch)
	defer candScratchPool.Put(sc)
	sc.cols.CopyFrom(&ctx.cols)
	if err := match.ReserveColumns(&sc.cols, ctx.base, app.owner(), asg, nil); err != nil {
		return candidate{}, err
	}
	pl := predict.Resolve(ctx.base, asg)
	hosts := placementHostSet(pl)

	in := predict.Indexed{View: ctx.base, Loads: sc.cols.CPULoad, Reserved: sc.cols.ReservedMbps}
	pred, err := c.predictIndexed(in, opt, pl)
	if err != nil {
		return candidate{}, err
	}

	predictions := uint64(1)
	jobs := sc.jobs[:0]
	for i := range ctx.others {
		o := &ctx.others[i]
		if o.err != nil {
			return candidate{}, o.err
		}
		p := o.pred
		if hosts.intersects(o.placed.hosts) {
			// The candidate loads hosts this application runs on: its
			// contention-scaled prediction changes, re-predict on the trial.
			predictions++
			if p, err = c.predictIndexed(in, o.opt, o.placed.pl); err != nil {
				return candidate{}, err
			}
		}
		jobs = append(jobs, objective.JobPrediction{App: o.owner, Seconds: p.Seconds})
	}
	jobs = append(jobs, objective.JobPrediction{App: app.owner(), Seconds: pred.Seconds})
	sc.jobs = jobs
	c.predictions.Add(predictions)

	friction, frictionWarn := frictionCost(app, opt, asg, env)
	return candidate{
		choice:       ch,
		assignment:   asg,
		objective:    c.cfg.Objective(jobs),
		predicted:    pred.Seconds,
		friction:     friction,
		frictionWarn: frictionWarn,
	}, nil
}

// frictionCost evaluates the option's friction expression for a placement of
// it, with the granted memory and the choice's variables (env) in scope. It
// does not depend on the hosts. An expression that cannot be evaluated costs
// nothing and comes back as a warning, which whoever reduces the candidates
// surfaces (once per distinct message) instead of silently reading it as zero.
func frictionCost(app *appState, opt *rsl.OptionSpec, asg *match.Assignment, env rsl.Env) (friction float64, warn string) {
	if opt.Friction == nil {
		return 0, ""
	}
	f, err := opt.Friction.Eval(rsl.ChainEnv{asg.MemoryEnv(), env})
	switch {
	case err != nil:
		return 0, fmt.Sprintf("core: %s option %s: friction evaluation failed: %v", app.bundle.App, opt.Name, err)
	case f > 0:
		return f, ""
	}
	return 0, ""
}

// fanOutMinSize is the evaluation size below which evaluateChoices stays on
// the calling goroutine. The size is what the candidates cost between them:
// one unit per replica a candidate places (matched, charged and predicted by
// index, so a candidate no longer costs the length of the node table) and one
// per other application it may overlap and re-predict — about 0.13 us a unit
// on the reference box (2 vCPU, go1.24). Handing work to a second goroutine
// costs tens of microseconds (wake-up, the claim counter's cache line, the
// WaitGroup, and a collector that wants the other core), so small evaluations
// lose by it. Measured with BenchmarkWideGreedyCycle's shape at workers=0
// over workers=1, choices 1..N beside 8 residents, with the threshold at 0:
// N=32 (size 784, 80 us an evaluation: the wide-greedy workload) ran at 0.78x
// of serial, N=48 (1560) at 0.91x, N=64 (2592) at 1.04x, N=96 (5424) at
// 1.15x. A db-crowd evaluation is 5 x (2 + 63) = 325.
const fanOutMinSize = 4096

// fanOut calls fn once for every index below n, on up to workers goroutines
// of which the caller is one, and returns when all calls have.
func fanOut(n, workers int, fn func(i int)) {
	var next atomic.Int64
	claim := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers && w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
}

// evaluateChoices evaluates every choice against the context, on the
// calling goroutine or, when the evaluation is large enough to repay the
// hand-off, on a bounded worker pool the caller is part of. replicas is the
// number of node placements the choices make between them. Results are
// slotted by index, so downstream reduction is order-identical in both modes.
func (c *Controller) evaluateChoices(ctx *evalContext, choices []Choice, replicas int) []evalResult {
	results := make([]evalResult, len(choices))
	workers := c.evalWorkers()
	if replicas+len(choices)*len(ctx.others) < fanOutMinSize {
		workers = 1
	}
	if workers > 1 && len(choices) > 1 {
		c.fanOuts++
	}
	fanOut(len(choices), workers, func(i int) {
		results[i].cand, results[i].err = c.evaluateChoice(ctx, choices[i])
	})
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
