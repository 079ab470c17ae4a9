package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"harmony/internal/match"
	"harmony/internal/objective"
	"harmony/internal/predict"
	"harmony/internal/resource"
	"harmony/internal/rsl"
)

// This file implements greedy candidate evaluation. Every candidate of one
// application is placed on, charged to and predicted over one trial state —
// the columns of a ledger snapshot with the application's own claim released —
// and the state is restored after each, so the shared ledger is not touched
// until adoption. The candidates are evaluated and reduced in one serial loop,
// in enumeration order, keeping the first strictly best (bestChoiceLocked).

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
		a.placed = &resolved{pl: pl, hosts: appendHostSet(nil, pl)}
	}
	return a.placed
}

// otherApp is one already-placed application whose predicted time
// contributes to the objective while a candidate is evaluated.
type otherApp struct {
	owner  string
	opt    *rsl.OptionSpec
	placed *resolved
	// base and err are the app's prediction against the evaluation base,
	// made the first time a candidate needs it (baseOf) and kept for
	// the rest of the evaluation.
	based bool
	base  float64
	err   error
	// overlaps is whether the candidate being evaluated loads one of the
	// app's hosts, which is when its trial charge can change the app's
	// prediction.
	overlaps bool
}

// evalContext is one greedy evaluation: a base snapshot with the evaluated
// app's own claim released, its node table and its columns read out once, the
// matcher's scan over them, and every other application. The columns are the
// trial state: a candidate is charged to them, predicted over them and
// restored (resource.Columns.Restore writes back the very bits it found), so
// the next candidate sees the base again. The controller has one context
// (Controller.evalCtx) and refills it for every evaluation, so a pass over N
// applications does not allocate N node tables: a context is dead once the
// next one is built, and nothing in it — the scan and the footprints least of
// all — is valid for any base but its own.
type evalContext struct {
	app    *appState
	base   *resource.Snapshot
	nodes  []resource.NodeState // base's node table, hostname order
	cols   resource.Columns     // the trial state
	undo   resource.Undo
	scan   match.Scan // over nodes and cols
	others []otherApp

	// The candidate being evaluated: its placement, resolved, and its hosts.
	asg   match.Assignment
	pl    predict.Placement
	hosts hostSet
	jobs  []objective.JobPrediction

	// keys holds the footprints of this evaluation's candidates so far whose
	// other residents all predicted, one after another, each ending where
	// prints says; secs holds those residents' seconds, len(others) to a
	// footprint.
	prints []int
	keys   []footEntry
	secs   []float64
}

// footEntry is one entry a trial charge wrote that another resident reads:
// a node's CPU load (at >= 0, its index) or a link's reserved bandwidth
// (at < 0, the complement of its id), as bits.
type footEntry struct {
	at   int32
	bits uint64
}

// errMisfit stands for a candidate the scan could not place. Why it does not
// fit is worked out only for the one misfit an evaluation reports
// (match.Scan.Misfit).
var errMisfit = errors.New("core: candidate does not fit")

// predictIndexed routes the prediction of a placement the view already
// holds through the configured model stack: the application's explicit model
// when present (the Table 1 "performance" tag), otherwise the critical-path
// refinement when enabled, otherwise the default contention model.
func (c *Controller) predictIndexed(in predict.Indexed, opt *rsl.OptionSpec, pl *predict.Placement) (predict.Prediction, error) {
	c.predictions++
	if c.cfg.UseCriticalPath && (opt == nil || len(opt.Performance) == 0) {
		return in.CriticalPath(pl, true, c.cfg.CriticalPathParams)
	}
	return in.ForOption(opt, pl, true)
}

// Predictions reports how many predictions the controller has made since
// construction: the unit an evaluation's cost is counted in. It depends on
// the applications and the cluster alone, so it repeats exactly from run to
// run.
func (c *Controller) Predictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.predictions
}

// MemoStats reports 0 hits and, as misses, the number of predictions made
// since construction. There is no prediction memo: a prediction over a
// resolved placement costs less than any key that could deduplicate it (see
// docs/OPTIMIZER.md).
//
// Deprecated: use Predictions. MemoStats exists for the bench harness, which
// still calls it, and goes with the harness's memo metric (ROADMAP item 7).
func (c *Controller) MemoStats() (hits, misses uint64) {
	return 0, c.Predictions()
}

// hostSet is the set of nodes an assignment touches, one bit per node at
// the node's index in the evaluation snapshot's hostname-ordered table.
type hostSet []uint64

// appendHostSet makes set, reusing its storage, the distinct registered hosts
// a placement uses.
func appendHostSet(set hostSet, pl *predict.Placement) hostSet {
	set = set[:0]
	for _, pos := range pl.NodeIndices() {
		if pos < 0 {
			continue
		}
		w := int(pos) / 64
		for len(set) <= w {
			set = append(set, 0)
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
// the scan at them and lists every other application. Nothing is predicted
// yet. The shared ledger is not touched.
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
		ctx.others = append(ctx.others, otherApp{
			owner:  other.owner(),
			opt:    other.bundle.Option(other.choice.Option),
			placed: other.placedFor(snap),
		})
	}
	ctx.prints, ctx.keys, ctx.secs = ctx.prints[:0], ctx.keys[:0], ctx.secs[:0]
	return ctx
}

// evaluate places one choice of the context's app with the scan, charges it
// to the trial state, predicts it and every other application there and
// scores the system objective; the state is restored before it returns. The
// candidate's assignment is the context's own, overwritten by the next
// candidate: whoever keeps it clones it. A choice that does not fit returns
// errMisfit.
func (c *Controller) evaluate(ctx *evalContext, ch Choice, st *choiceStatic) (candidate, error) {
	if !ctx.scan.Place(st.plan, &ctx.asg) {
		return candidate{}, errMisfit
	}
	mark := ctx.undo.Mark()
	defer ctx.cols.Restore(&ctx.undo, mark)
	if err := match.ReserveColumns(&ctx.cols, ctx.base, ctx.app.owner(), &ctx.asg, &ctx.undo); err != nil {
		return candidate{}, err
	}
	pl := ctx.pl.Resolve(ctx.base, &ctx.asg)
	in := predict.Indexed{View: ctx.base, Loads: ctx.cols.CPULoad, Reserved: ctx.cols.ReservedMbps}
	pred, err := c.predictIndexed(in, st.opt, pl)
	if err != nil {
		return candidate{}, err
	}
	jobs, err := c.predictOthers(ctx, in, mark)
	if err != nil {
		return candidate{}, err
	}
	jobs = append(jobs, objective.JobPrediction{App: ctx.app.owner(), Seconds: pred.Seconds})
	ctx.jobs = jobs
	return candidate{
		choice:       ch,
		assignment:   &ctx.asg,
		objective:    c.cfg.Objective(jobs),
		predicted:    pred.Seconds,
		friction:     st.friction,
		frictionWarn: st.frictionWarn,
	}, nil
}

// evaluateChoice is evaluate for a caller that keeps what it gets: a misfit
// comes back with its reason, and the assignment is the candidate's own.
func (c *Controller) evaluateChoice(ctx *evalContext, ch Choice, st *choiceStatic) (candidate, error) {
	cand, err := c.evaluate(ctx, ch, st)
	if err == errMisfit {
		err = ctx.scan.Misfit(st.plan)
	}
	if err != nil {
		return candidate{}, err
	}
	cand.assignment = cand.assignment.Clone()
	return cand, nil
}

// predictOthers predicts every other application with the candidate charged
// to the trial state, in order, and returns them as the objective's jobs.
//
// An application whose hosts the candidate does not load reads none of the
// entries the charge wrote — every model reads only its own placement's nodes
// in the load column and its own links in the reserved one, and a link the
// candidate charged joins two of the candidate's hosts — so its prediction on
// the trial state is its base prediction, made by the first candidate that
// needs it and kept (baseOf).
//
// An application the candidate does overlap is re-predicted on the trial
// state, unless an earlier candidate of this evaluation left the same
// footprint, in which case every application's seconds are that candidate's.
// Its base prediction is needed only when the re-prediction fails: a failing
// base prediction is the error to report, as it would be had every base been
// predicted up front, in order. A trial only adds load (a charge adds a node's
// busy fraction, a share of the job's seconds in [0, 1], and a link's
// bandwidth), and every model error is either independent of load (a host or
// link the cluster does not have, no performance points) or grows with it (a
// node left no capacity: its effective speed only falls as load rises), so a
// re-prediction that succeeds means the base prediction would have too. When
// a re-prediction fails, the state is restored first and the base prediction
// made there.
func (c *Controller) predictOthers(ctx *evalContext, in predict.Indexed, mark int) ([]objective.JobPrediction, error) {
	ctx.hosts = appendHostSet(ctx.hosts, &ctx.pl)
	overlap := false
	for i := range ctx.others {
		o := &ctx.others[i]
		o.overlaps = ctx.hosts.intersects(o.placed.hosts)
		overlap = overlap || o.overlaps
	}
	jobs := ctx.jobs[:0]
	from := len(ctx.keys)
	if overlap {
		ctx.footprint(in)
		if secs, ok := ctx.sharedSeconds(from); ok {
			for i := range ctx.others {
				jobs = append(jobs, objective.JobPrediction{App: ctx.others[i].owner, Seconds: secs[i]})
			}
			return jobs, nil
		}
	}
	for i := range ctx.others {
		o := &ctx.others[i]
		if !o.overlaps || (o.based && o.err != nil) {
			if err := c.baseOf(o, in); err != nil {
				ctx.keys = ctx.keys[:from]
				return nil, err
			}
			jobs = append(jobs, objective.JobPrediction{App: o.owner, Seconds: o.base})
			continue
		}
		p, err := c.predictIndexed(in, o.opt, o.placed.pl)
		if err != nil {
			ctx.keys = ctx.keys[:from]
			ctx.cols.Restore(&ctx.undo, mark)
			if berr := c.baseOf(o, in); berr != nil {
				return nil, berr
			}
			return nil, err
		}
		jobs = append(jobs, objective.JobPrediction{App: o.owner, Seconds: p.Seconds})
	}
	if overlap {
		ctx.prints = append(ctx.prints, len(ctx.keys))
		for _, j := range jobs {
			ctx.secs = append(ctx.secs, j.Seconds)
		}
	}
	return jobs, nil
}

// baseOf makes o's base prediction if no candidate has yet. in must read the
// base at o's nodes and links.
func (c *Controller) baseOf(o *otherApp, in predict.Indexed) error {
	if !o.based {
		p, err := c.predictIndexed(in, o.opt, o.placed.pl)
		o.based, o.base, o.err = true, p.Seconds, err
	}
	return o.err
}

// footprint appends to keys the candidate's footprint: every node it charged
// with its load on the trial state, then every link it charged that an
// application it overlaps reads, with its reserved bandwidth there. Those are
// all the entries of the trial state that another application's prediction
// can read and the charge wrote, so two candidates with equal footprints give
// every other application bit-identical predictions.
func (ctx *evalContext) footprint(in predict.Indexed) {
	for _, pos := range ctx.pl.NodeIndices() {
		ctx.keys = append(ctx.keys, footEntry{pos, math.Float64bits(in.Loads[pos])})
	}
	for _, id := range ctx.pl.LinkIDs() {
		if id >= 0 && ctx.linkRead(id) {
			ctx.keys = append(ctx.keys, footEntry{^id, math.Float64bits(in.Reserved[id])})
		}
	}
}

// linkRead reports whether an application the candidate overlaps loads link
// id. Only those can read a link the candidate charged.
func (ctx *evalContext) linkRead(id int32) bool {
	for i := range ctx.others {
		if o := &ctx.others[i]; o.overlaps {
			for _, l := range o.placed.pl.LinkIDs() {
				if l == id {
					return true
				}
			}
		}
	}
	return false
}

// sharedSeconds looks for an earlier candidate of this evaluation whose
// footprint equals the one at keys[from:], and returns the other
// applications' seconds under it, dropping the new footprint. Otherwise the
// footprint stays, for predictOthers to record.
func (ctx *evalContext) sharedSeconds(from int) ([]float64, bool) {
	n, start := len(ctx.others), 0
	for k, end := range ctx.prints {
		if slices.Equal(ctx.keys[start:end], ctx.keys[from:]) {
			ctx.keys = ctx.keys[:from]
			return ctx.secs[k*n : (k+1)*n], true
		}
		start = end
	}
	return nil, false
}
