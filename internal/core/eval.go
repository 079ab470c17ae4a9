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

// This file implements greedy candidate evaluation. The evaluations of one
// pass share one pass state: the ledger's node table and columns, read once,
// the residents' placements, and a table of what the residents predict under
// each change a trial made to the ledger. Each evaluation releases its app's
// claim into the columns and every candidate is charged on top, predicted and
// restored, so the shared ledger is not touched until adoption. The
// candidates are evaluated and reduced in one serial loop, in enumeration
// order, keeping the first strictly best (bestChoice).

// placedFor returns the app's assignment resolved against view's topology.
// The resolution is derived from the assignment and the topology and from
// nothing else, so it is rebuilt rather than persisted: on first use after
// adoption or restore (adoption predicts every resident, so that is when),
// and again when nodes or links were added to the cluster. The app must hold
// an assignment.
func (a *appState) placedFor(view *resource.Snapshot) *predict.Placement {
	if p := a.placed; p == nil || p.Assignment() != a.assignment || !p.Resolved(view) {
		a.placed = predict.Resolve(view, a.assignment)
	}
	return a.placed
}

// passState is one pass of greedy evaluations and the evaluation in progress.
// A pass lasts as long as the ledger and the resident set stay as it found
// them: an adoption, a release, a health change or an added node changes the
// ledger, which Ledger.Unchanged notices, and Unregister, Restore and the
// joint search end it outright (endPass). The controller has one, and only its
// one writer touches it.
//
// The what-if table is why a pass is worth keeping. A trial state differs
// from the pass base only at the entries the evaluated app's release and the
// candidate's charge wrote, and a prediction reads only its own placement's
// loads and link reservations. So what a resident other than the evaluated
// app predicts on a trial state is fixed by the written entries it reads, and
// a row keyed by the written entries some such resident reads, with their
// bits, holds for every evaluation of the pass that meets the key: one row is
// predicted once and read by every later candidate and every later app. A
// resident that reads no key entry reads the pass base at every entry it
// reads, and predicts its pass-base value.
type passState struct {
	// base is the ledger as the pass found it, every claim in place; nil when
	// no pass is open. nodes is its node table in hostname order. cols holds
	// its state, with the evaluated app's claim released on top and, while a
	// candidate is evaluated, the candidate's charge on top of that: both are
	// logged in undo and taken back through it, so undo from 0 lists every
	// entry where cols differs from the pass base. charges is the scratch a
	// candidate's claims are built in on their way to cols.
	base    *resource.Snapshot
	nodes   []resource.NodeState
	cols    resource.Columns
	undo    resource.Undo
	charges match.Charges

	// residents are the applications holding a placement, in registration
	// order. loadReaders and linkReaders count their placements' reads of each
	// node's load and each link's reservation, less the evaluated app's.
	residents   []resident
	loadReaders []int32
	linkReaders map[int32]int32

	// The what-if table: rows, found by their key's hash (byHash holds the
	// latest row of a hash, and each row the one before it). A row's key and
	// its residents — every one that reads a key entry, the evaluated app of
	// the evaluation that made it included — are spans of keys, and of who
	// and slots.
	rows   []whatIf
	byHash map[uint64]int32
	keys   []keyEntry
	who    []int32
	slots  []slot
	// hits counts lookups that found their row already made.
	hits int

	// The evaluation in progress: its app (nil between evaluations), the
	// app's index among the residents (-1 for an arrival or an app with no
	// placement), the undo mark its release left and the scan of the released
	// state.
	app      *appState
	self     int
	released int
	scan     match.Scan

	// key is the last key worked out; node p is in it when stamp[p] == epoch.
	key   []keyEntry
	stamp []uint32
	epoch uint32

	// The candidate being evaluated: its placement, resolved, and the jobs
	// the objective scores. The first others of jobs are the other residents'
	// under row jobsRow (noRow: none yet this evaluation), which the next
	// candidate of the evaluation keeps if it meets the same row. best holds
	// the placement of bestChoice's best so far: the two swap storage when a
	// candidate improves on it.
	asg     match.Assignment
	best    match.Assignment
	pl      predict.Placement
	jobs    []objective.JobPrediction
	jobsRow int
	others  int
}

// noRow is no row of the table, nor the empty key's -1.
const noRow = -2

// resident is one application holding a placement during a pass.
type resident struct {
	app   *appState
	owner string
	opt   *rsl.OptionSpec
	pl    *predict.Placement
	// base is the prediction on the pass base, made when first needed.
	base slot
}

// slot is one prediction of the pass, made when first needed.
type slot struct {
	made bool
	secs float64
	err  error
}

// keyEntry is one entry of a trial state: a node's CPU load (at >= 0, its
// index) or a link's reserved bandwidth (at < 0, the complement of its id),
// as bits.
type keyEntry struct {
	at   int32
	bits uint64
}

// whatIf is one row of the table: keys[keyFrom:keyTo] is its key, and
// who[whoFrom:whoTo], in ascending order, the residents that read an entry of
// it, their predictions in the same span of slots. next is the row made before
// it with the same hash, -1 for none.
type whatIf struct {
	hash           uint64
	keyFrom, keyTo int32
	whoFrom, whoTo int32
	next           int32
}

// errMisfit stands for a candidate the scan could not place. Why it does not
// fit is worked out only for the one misfit an evaluation reports
// (match.Scan.Misfit).
var errMisfit = errors.New("core: candidate does not fit")

// predictIndexed predicts a placement the view already holds: with the
// application's explicit model when present (the Table 1 "performance" tag),
// otherwise with the default contention model.
func (c *Controller) predictIndexed(in predict.Indexed, opt *rsl.OptionSpec, pl *predict.Placement) (predict.Prediction, error) {
	c.predictions++
	return in.ForOption(opt, pl, true)
}

// Predictions reports how many predictions the controller has made since
// construction: the unit an evaluation's cost is counted in. It depends on
// the applications and the cluster alone, so it repeats exactly from run to
// run.
func (c *Controller) Predictions() uint64 { return c.view.Load().predictions }

// MemoStats reports 0 hits and, as misses, the number of predictions made
// since construction. There is no prediction memo keyed by each prediction's
// inputs: what a pass shares shows as predictions not made (see
// docs/OPTIMIZER.md, "One pass, one table").
//
// Deprecated: use Predictions. MemoStats exists for the bench harness, which
// still calls it, and goes with the harness's memo metric (ROADMAP item 7).
func (c *Controller) MemoStats() (hits, misses uint64) {
	return 0, c.Predictions()
}

// PruneStats holds counters nothing increments: nothing is pruned (see
// docs/OPTIMIZER.md, "Where the fit proof runs").
//
// Deprecated: it remains for the bench harness's prune metric (ROADMAP item 7).
type PruneStats struct {
	Considered, Unreachable, Dominated uint64
}

// PruneStats reports zero counts.
//
// Deprecated: use Predictions and JointTrials.
func (c *Controller) PruneStats() PruneStats { return PruneStats{} }

// openEvaluation starts the evaluation of app: it opens a pass unless the one
// open still holds, releases the app's own claim into the columns (the
// paper's "one bundle at a time" precondition) and aims the scan at the
// result. Nothing is predicted yet, and the shared ledger is not touched.
func (c *Controller) openEvaluation(app *appState) *passState {
	p := &c.pass
	p.closeEvaluation()
	if p.base == nil || !c.ledger.Unchanged(p.base) {
		c.openPass()
	}
	p.app = app
	p.self = slices.IndexFunc(p.residents, func(r resident) bool { return r.app == app })
	if p.self >= 0 {
		p.countReads(p.self, -1)
	}
	if app.claim != nil {
		if cl, err := p.base.Claim(app.claim.ID); err != nil {
			// The claim is gone from the ledger (nothing is actually held):
			// drop the stale pointer instead of carrying it forward.
			c.warn(fmt.Sprintf("core: %s holds stale claim %d: %v", app.owner(), app.claim.ID, err))
			app.claim = nil
		} else {
			p.cols.Release(cl, p.base.Topology(), &p.undo)
		}
	}
	p.released = p.undo.Mark()
	p.jobsRow = noRow
	p.scan.Reset(p.base, p.nodes, &p.cols)
	c.evaluations++
	return p
}

// closeEvaluation takes the evaluated app's release back out of the columns
// and its reads back into the counts, leaving the pass base.
func (p *passState) closeEvaluation() {
	if p.app == nil {
		return
	}
	p.cols.Restore(&p.undo, 0)
	if p.self >= 0 {
		p.countReads(p.self, 1)
	}
	p.app = nil
}

// openPass reads the ledger as it stands and the residents, and empties the
// table.
func (c *Controller) openPass() {
	p := &c.pass
	p.base = c.ledger.Snapshot()
	p.nodes = p.base.AppendNodes(p.nodes[:0])
	p.base.ReadColumns(&p.cols)
	clear(p.residents) // drop the last pass's pointers
	p.residents = p.residents[:0]
	for _, id := range c.order {
		a := c.apps[id]
		if a.assignment == nil {
			// Degraded (evicted, not re-placed) apps hold no resources and
			// contribute neither contention nor an objective term.
			continue
		}
		p.residents = append(p.residents, resident{
			app:   a,
			owner: a.owner(),
			opt:   a.bundle.Option(a.choice.Option),
			pl:    a.placedFor(p.base),
		})
	}
	p.loadReaders = slices.Grow(p.loadReaders[:0], len(p.nodes))[:len(p.nodes)]
	clear(p.loadReaders)
	if p.linkReaders == nil {
		p.linkReaders = make(map[int32]int32)
	}
	clear(p.linkReaders)
	for i := range p.residents {
		p.countReads(i, 1)
	}
	if len(p.stamp) != len(p.nodes) {
		p.stamp, p.epoch = make([]uint32, len(p.nodes)), 0
	}
	if p.byHash == nil {
		p.byHash = make(map[uint64]int32)
	}
	clear(p.byHash)
	clear(p.slots)
	p.rows, p.keys, p.who, p.slots = p.rows[:0], p.keys[:0], p.who[:0], p.slots[:0]
}

// endPass ends the pass, for whoever changes the resident set without the
// ledger or takes the columns for something else.
func (c *Controller) endPass() {
	c.pass.closeEvaluation()
	c.pass.base = nil
}

// countReads adds d to the read counts of every entry resident i reads.
func (p *passState) countReads(i int, d int32) {
	pl := p.residents[i].pl
	for _, pos := range pl.NodeIndices() {
		if pos >= 0 {
			p.loadReaders[pos] += d
		}
	}
	for _, id := range pl.LinkIDs() {
		if id >= 0 {
			p.linkReaders[id] += d
		}
	}
}

// indexed is where the models read the trial state.
func (p *passState) indexed() predict.Indexed {
	return predict.Indexed{View: p.base, Loads: p.cols.CPULoad, Reserved: p.cols.ReservedMbps}
}

// evaluate places one choice of the evaluated app, resolved by plan, with
// the scan, charges it to the trial state, predicts it and every other
// application there and scores the system objective; the state is restored
// before it returns. The candidate's assignment is the pass's own,
// overwritten by the next candidate: adopt copies it out. A choice that does
// not fit returns errMisfit.
func (c *Controller) evaluate(p *passState, ch Choice, plan *match.Plan) (candidate, error) {
	if !p.scan.Place(plan, &p.asg) {
		return candidate{}, errMisfit
	}
	defer p.cols.Restore(&p.undo, p.released)
	if err := match.ReserveColumns(&p.cols, p.base, p.app.owner(), &p.asg, &p.undo, &p.charges); err != nil {
		return candidate{}, err
	}
	pl := p.pl.Resolve(p.base, &p.asg)
	pred, err := c.predictIndexed(p.indexed(), plan.Option(), pl)
	if err != nil {
		return candidate{}, err
	}
	jobs, err := c.predictOthers(p)
	if err != nil {
		return candidate{}, err
	}
	jobs = append(jobs, objective.JobPrediction{App: p.app.owner(), Seconds: pred.Seconds})
	p.jobs = jobs
	friction, ferr := plan.Friction()
	cand := candidate{
		choice:     ch,
		assignment: &p.asg,
		objective:  c.cfg.Objective(jobs),
		predicted:  pred.Seconds,
		friction:   friction,
	}
	if ferr != nil {
		cand.frictionWarn = frictionWarning(p.app, plan, ferr)
	}
	return cand, nil
}

// evaluateChoice is evaluate for a caller that adopts one choice: a misfit
// comes back with its reason.
func (c *Controller) evaluateChoice(p *passState, ch Choice, plan *match.Plan) (candidate, error) {
	cand, err := c.evaluate(p, ch, plan)
	if err == errMisfit {
		return candidate{}, p.scan.Misfit(plan)
	}
	return cand, err
}

// frictionWarning is the warning a choice of app raises once it fits when
// its plan's friction does not evaluate, with err (it then costs none); the
// searches raise each distinct one once.
func frictionWarning(app *appState, plan *match.Plan, err error) string {
	return fmt.Sprintf("core: %s option %s: friction evaluation failed: %v", app.bundle.App, plan.Option().Name, err)
}

// predictOthers predicts every other resident on the trial state, in order,
// and returns them as the objective's jobs. Each value comes from the table:
// the trial's row for a resident that reads one of its key entries, the
// resident's pass-base value for any other, predicted on the trial state the
// first time the pass needs it. A candidate that meets the row the one before
// it met keeps that one's jobs: a made value never changes.
//
// A resident whose trial prediction fails reports, as its error, its
// prediction on the evaluation base if that fails too: the base error is the
// one to report, as it would be had every base been predicted up front, in
// order. A trial only adds load (a charge adds a node's busy fraction, a share
// of the job's seconds in [0, 1], and a link's bandwidth), and every model
// error is either independent of load (a host or link the cluster does not
// have, no performance points) or grows with it (a node left no capacity: its
// effective speed only falls as load rises), so a trial prediction that
// succeeds means the base prediction would have too.
func (c *Controller) predictOthers(p *passState) ([]objective.JobPrediction, error) {
	r := p.row()
	if r == p.jobsRow {
		return p.jobs[:p.others], nil
	}
	p.jobsRow = noRow
	who, slots := p.rowOf(r)
	jobs := p.jobs[:0]
	for i := range p.residents {
		v := &p.residents[i].base
		if len(who) > 0 && int(who[0]) == i {
			v, who, slots = &slots[0], who[1:], slots[1:]
		}
		if i == p.self {
			continue
		}
		if !v.made {
			c.fill(p, v, i)
		}
		if v.err != nil {
			return nil, c.baseFailure(p, i, v.err)
		}
		jobs = append(jobs, objective.JobPrediction{App: p.residents[i].owner, Seconds: v.secs})
	}
	p.jobs, p.jobsRow, p.others = jobs, r, len(jobs)
	return jobs, nil
}

// fill predicts resident i into v on the trial state, which must agree with
// v's key at every entry i reads.
func (c *Controller) fill(p *passState, v *slot, i int) {
	r := &p.residents[i]
	pred, err := c.predictIndexed(p.indexed(), r.opt, r.pl)
	*v = slot{made: true, secs: pred.Seconds, err: err}
}

// baseFailure restores the evaluation base and returns resident i's error
// there, or trialErr, its error on the trial state, when its base prediction
// holds.
func (c *Controller) baseFailure(p *passState, i int, trialErr error) error {
	p.cols.Restore(&p.undo, p.released)
	who, slots := p.rowOf(p.row())
	v := &p.residents[i].base
	if k, ok := slices.BinarySearch(who, int32(i)); ok {
		v = &slots[k]
	}
	if !v.made {
		c.fill(p, v, i)
	}
	if v.err != nil {
		return v.err
	}
	return trialErr
}

// rowOf returns row r's residents and their slots; none for -1.
func (p *passState) rowOf(r int) ([]int32, []slot) {
	if r < 0 {
		return nil, nil
	}
	w := &p.rows[r]
	return p.who[w.whoFrom:w.whoTo], p.slots[w.whoFrom:w.whoTo]
}

// row returns the table's row for the state the columns hold: its key is every
// entry written since the pass base — the release, and the candidate's charge
// when one is on — that a resident other than the evaluated app reads, with
// its bits. The row is made if the pass has not met the key yet; -1 stands
// for the empty key, under which every resident predicts its pass-base value.
//
// The work is O(entries written). A node's load is in the key when some other
// resident reads it. A link is looked at only when some node is: whoever reads
// a link reads the loads of both its hosts, and whoever wrote a link — a claim
// or a charge, which reserves every host of its assignment — wrote those loads
// too.
func (p *passState) row() int {
	if p.epoch++; p.epoch == 0 {
		clear(p.stamp)
		p.epoch = 1
	}
	key := p.key[:0]
	n := p.undo.Mark()
	for i := 0; i < n; i++ {
		if at, link := p.undo.Wrote(i); !link && p.loadReaders[at] > 0 && p.stamp[at] != p.epoch {
			p.stamp[at] = p.epoch
			key = append(key, keyEntry{at, math.Float64bits(p.cols.CPULoad[at])})
		}
	}
	if nodes := len(key); nodes > 0 {
		for i := 0; i < n; i++ {
			if id, link := p.undo.Wrote(i); link && p.linkReaders[id] > 0 && !hasEntry(key[nodes:], ^id) {
				key = append(key, keyEntry{^id, math.Float64bits(p.cols.ReservedMbps[id])})
			}
		}
	}
	p.key = key
	if len(key) == 0 {
		return -1
	}
	var h uint64
	for _, e := range key {
		h += mix(uint64(uint32(e.at))<<32 ^ mix(e.bits))
	}
	next := int32(-1)
	if r, ok := p.byHash[h]; ok {
		next = r
		for ; r >= 0; r = p.rows[r].next {
			if p.matches(&p.rows[r]) {
				p.hits++
				return int(r)
			}
		}
	}
	w := whatIf{hash: h, keyFrom: int32(len(p.keys)), whoFrom: int32(len(p.who)), next: next}
	p.keys = append(p.keys, key...)
	for i := range p.residents {
		if p.readsKey(p.residents[i].pl) {
			p.who = append(p.who, int32(i))
			p.slots = append(p.slots, slot{})
		}
	}
	w.keyTo, w.whoTo = int32(len(p.keys)), int32(len(p.who))
	p.byHash[h] = int32(len(p.rows))
	p.rows = append(p.rows, w)
	return len(p.rows) - 1
}

// matches reports whether row w's key is the one row just worked out: as long
// as it, and each of its entries in it with the same bits.
func (p *passState) matches(w *whatIf) bool {
	rk := p.keys[w.keyFrom:w.keyTo]
	if len(rk) != len(p.key) {
		return false
	}
	for _, e := range rk {
		if e.at >= 0 {
			if p.stamp[e.at] != p.epoch || math.Float64bits(p.cols.CPULoad[e.at]) != e.bits {
				return false
			}
		} else if !hasEntry(p.key, e.at) || math.Float64bits(p.cols.ReservedMbps[^e.at]) != e.bits {
			return false
		}
	}
	return true
}

// readsKey reports whether a placement reads an entry of the key row just
// worked out.
func (p *passState) readsKey(pl *predict.Placement) bool {
	for _, pos := range pl.NodeIndices() {
		if pos >= 0 && p.stamp[pos] == p.epoch {
			return true
		}
	}
	if links := len(p.key) > 0 && p.key[len(p.key)-1].at < 0; links {
		for _, id := range pl.LinkIDs() {
			if id >= 0 && hasEntry(p.key, ^id) {
				return true
			}
		}
	}
	return false
}

// hasEntry reports whether key holds an entry at at.
func hasEntry(key []keyEntry, at int32) bool {
	return slices.ContainsFunc(key, func(e keyEntry) bool { return e.at == at })
}

// mix is SplitMix64's finalizer. A key's hash is the sum of its entries'
// mixes, so it does not depend on the order the entries were written in.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
