package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"harmony/internal/cluster"
	"harmony/internal/match"
	"harmony/internal/namespace"
	"harmony/internal/objective"
	"harmony/internal/predict"
	"harmony/internal/resource"
	"harmony/internal/rsl"
	"harmony/internal/simclock"
)

// copyEvaluation is greedy evaluation as it was before it moved onto one
// trial state, kept as the reference the evaluator is held to. Every other
// application is predicted against the base up front. A candidate is matched
// over a scan of the base (Scan.Match, which resolves the request again),
// charged to a private copy of the base columns and predicted there, and each
// application whose hosts it loads is re-predicted on that copy. It shares
// nothing with the evaluator but the controller's applications.
type copyEvaluation struct {
	c      *Controller
	app    *appState
	base   *resource.Snapshot
	cols   resource.Columns
	scan   match.Scan
	others []copyOther
}

type copyOther struct {
	owner string
	opt   *rsl.OptionSpec
	pl    *predict.Placement
	hosts map[int32]bool
	pred  predict.Prediction
	err   error
}

// placedHosts is the set of registered hosts a placement uses.
func placedHosts(pl *predict.Placement) map[int32]bool {
	hosts := make(map[int32]bool)
	for _, pos := range pl.NodeIndices() {
		if pos >= 0 {
			hosts[pos] = true
		}
	}
	return hosts
}

func newCopyEvaluation(c *Controller, app *appState) *copyEvaluation {
	snap := c.ledger.Snapshot()
	if app.claim != nil {
		_ = snap.Release(app.claim.ID)
	}
	r := &copyEvaluation{c: c, app: app, base: snap}
	snap.ReadColumns(&r.cols)
	r.scan.Reset(snap, snap.AppendNodes(nil), &r.cols)
	in := predict.Indexed{View: snap, Loads: r.cols.CPULoad, Reserved: r.cols.ReservedMbps}
	for _, id := range c.order {
		other := c.apps[id]
		if other == app || other.assignment == nil {
			continue
		}
		o := copyOther{owner: other.owner(), opt: other.bundle.Option(other.choice.Option), pl: predict.Resolve(snap, other.assignment)}
		o.hosts = placedHosts(o.pl)
		o.pred, o.err = c.predictIndexed(in, o.opt, o.pl)
		r.others = append(r.others, o)
	}
	return r
}

func (r *copyEvaluation) evaluateByCopy(ch Choice) (candidate, error) {
	c, app := r.c, r.app
	opt := app.bundle.Option(ch.Option)
	env := rsl.MapEnv(ch.Vars)
	asg, err := r.scan.Match(match.Request{Option: opt, Env: env, MemoryGrants: ch.Grants})
	if err != nil {
		return candidate{}, err
	}
	var trial resource.Columns
	r.base.ReadColumns(&trial)
	if err := match.ReserveColumns(&trial, r.base, app.owner(), asg, nil); err != nil {
		return candidate{}, err
	}
	pl := predict.Resolve(r.base, asg)
	in := predict.Indexed{View: r.base, Loads: trial.CPULoad, Reserved: trial.ReservedMbps}
	pred, err := c.predictIndexed(in, opt, pl)
	if err != nil {
		return candidate{}, err
	}
	hosts := placedHosts(pl)
	var jobs []objective.JobPrediction
	for i := range r.others {
		o := &r.others[i]
		if o.err != nil {
			return candidate{}, o.err
		}
		p := o.pred
		for pos := range hosts {
			if o.hosts[pos] {
				if p, err = c.predictIndexed(in, o.opt, o.pl); err != nil {
					return candidate{}, err
				}
				break
			}
		}
		jobs = append(jobs, objective.JobPrediction{App: o.owner, Seconds: p.Seconds})
	}
	jobs = append(jobs, objective.JobPrediction{App: app.owner(), Seconds: pred.Seconds})
	cand := candidate{choice: ch, assignment: asg, objective: c.cfg.Objective(jobs), predicted: pred.Seconds}
	if opt.Friction != nil {
		f, ferr := opt.Friction.Eval(rsl.ChainEnv{asg.MemoryEnv(), env})
		switch {
		case ferr != nil:
			cand.frictionWarn = fmt.Sprintf("core: %s option %s: friction evaluation failed: %v", app.bundle.App, opt.Name, ferr)
		case f > 0:
			cand.friction = f
		}
	}
	return cand, nil
}

// reduceByCopy picks the winner out of every candidate's outcome, in
// enumeration order, as the loop that collected them all first did, and
// returns the warnings it raised.
func (r *copyEvaluation) reduceByCopy(cands []candidate, errs []error, forInitial bool) (candidate, []string, error) {
	best := candidate{objective: math.Inf(1)}
	found := false
	var lastErr error
	var warns []string
	for i, cand := range cands {
		if errs[i] != nil {
			lastErr = errs[i]
			continue
		}
		if w := cand.frictionWarn; w != "" && !slices.Contains(warns, w) {
			warns = append(warns, w)
		}
		score := cand.objective
		if !forInitial && !cand.choice.Equal(r.app.choice) && !r.c.cfg.IgnoreFriction {
			score += cand.friction / float64(max(len(r.c.order), 1))
		}
		if score < best.objective {
			best = cand
			best.objective = score
			found = true
		}
	}
	if !found {
		if lastErr != nil {
			return candidate{}, warns, fmt.Errorf("%w for %s: %v", ErrNoFeasibleOption, r.app.bundle.App, lastErr)
		}
		return candidate{}, warns, fmt.Errorf("%w for %s", ErrNoFeasibleOption, r.app.bundle.App)
	}
	return best, warns, nil
}

// greedyTally counts what the differential test compared.
type greedyTally struct {
	evaluations, candidates, misfits, predictErrs, shared, noneFeasible, noneFit int
	predictions, refPredictions                                                  uint64
}

// sameCandidate fails unless two candidates agree on the choice, the
// placement (positions carried included, empty lists read as none, as in an
// assignment a search keeps) and, bit for bit, the objective, the prediction
// and the friction.
func sameCandidate(t *testing.T, what string, got, want candidate) {
	t.Helper()
	if !got.choice.Equal(want.choice) || !reflect.DeepEqual(got.assignment.Clone(), want.assignment.Clone()) ||
		math.Float64bits(got.objective) != math.Float64bits(want.objective) ||
		math.Float64bits(got.predicted) != math.Float64bits(want.predicted) ||
		math.Float64bits(got.friction) != math.Float64bits(want.friction) || got.frictionWarn != want.frictionWarn {
		t.Fatalf("%s:\n  got  %s obj %v pred %v fric %v %q %+v\n want %s obj %v pred %v fric %v %q %+v", what,
			got.choice, got.objective, got.predicted, got.friction, got.frictionWarn, got.assignment,
			want.choice, want.objective, want.predicted, want.friction, want.frictionWarn, want.assignment)
	}
}

// compareGreedy evaluates every choice of app the pass would evaluate,
// one after another on one context as the pass does, and by copyEvaluation,
// and requires the same outcome for each: the same error text, or the same
// candidate. Then it runs the pass's own loop and requires the winner, the
// error and the warnings raised to be the reference reduction's.
func compareGreedy(t *testing.T, c *Controller, app *appState, forInitial bool, what string, tally *greedyTally) {
	t.Helper()
	bs := c.staticFor(app)
	ctx := c.newEvalContext(app)
	p0 := c.predictions
	ks := c.pruneChoices(bs, app.choice, ctx.nodes, &ctx.cols)
	gots, gotErrs := make([]candidate, len(ks)), make([]error, len(ks))
	for i, k := range ks {
		prints := len(ctx.prints)
		gots[i], gotErrs[i] = c.evaluateChoice(ctx, bs.choices[k], &bs.stat[k])
		if gotErrs[i] == nil && len(ctx.prints) == prints && slices.ContainsFunc(ctx.others, func(o otherApp) bool { return o.overlaps }) {
			tally.shared++
		}
	}
	p1 := c.predictions
	ref := newCopyEvaluation(c, app)
	wants, wantErrs := make([]candidate, len(ks)), make([]error, len(ks))
	for i, k := range ks {
		wants[i], wantErrs[i] = ref.evaluateByCopy(bs.choices[k])
	}
	tally.predictions += p1 - p0
	tally.refPredictions += c.predictions - p1
	tally.evaluations++
	for i, k := range ks {
		at := fmt.Sprintf("%s: %s %s", what, app.owner(), bs.choices[k])
		tally.candidates++
		if fmt.Sprint(gotErrs[i]) != fmt.Sprint(wantErrs[i]) {
			t.Fatalf("%s: error %v, the reference says %v", at, gotErrs[i], wantErrs[i])
		}
		if wantErrs[i] != nil {
			if _, ok := wantErrs[i].(*match.NoFitError); ok {
				tally.misfits++
			} else if strings.HasPrefix(wantErrs[i].Error(), "predict:") {
				tally.predictErrs++
			}
			continue
		}
		sameCandidate(t, at, gots[i], wants[i])
	}

	c.warnings = nil // what the pass raises, and no more, is held after it
	got, gotErr := c.bestChoice(app, c.cfg.Clock.Now(), forInitial)
	want, wantWarns, wantErr := ref.reduceByCopy(wants, wantErrs, forInitial)
	if gotWarns := c.warnings; !slices.Equal(gotWarns, wantWarns) {
		t.Fatalf("%s: %s: warnings %q, the reference raises %q", what, app.owner(), gotWarns, wantWarns)
	}
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: %s: the pass says %v, the reference %v", what, app.owner(), gotErr, wantErr)
	}
	if wantErr != nil {
		tally.noneFeasible++
		if strings.Contains(wantErr.Error(), "does not fit") {
			tally.noneFit++
		}
		return
	}
	sameCandidate(t, fmt.Sprintf("%s: %s: the winner", what, app.owner()), got, want)
}

// slowHost is a node so slow that its effective speed rounds to zero once it
// carries two jobs: the prediction of anything placed there then fails.
const slowHost = "zz-slow"

// greedyRSL draws one application for the differential test: the genBundle
// shapes, clients sharing their hosts and the links from them to the server
// (sp2-01) with a grant ladder that does or does not move the link's load, an
// explicitly modelled application beside them, bags under a communication
// tag, and a bundle that can pin itself to the slow node.
func greedyRSL(t *testing.T, rng *rand.Rand, i int, hosts []string) *rsl.BundleSpec {
	switch rng.Intn(8) {
	case 0, 1:
		return genBundle(t, rng, i)
	case 2, 3:
		return decodeBundle(t, goldenShareRSL(i, hosts[rng.Intn(2)], rng.Intn(2) == 0))
	case 4:
		return decodeBundle(t, goldenModelRSL(i, hosts[rng.Intn(2)]))
	case 5:
		return decodeBundle(t, goldenCommRSL(i, 20+float64(rng.Intn(40))))
	}
	return decodeBundle(t, fmt.Sprintf(`harmonyBundle Slow%d:%d s {
	{pinned {node x %s {seconds 0} {memory 4}}}
	{away {node x * {seconds %d} {memory 4}}}
}`, i, i, slowHost, 4+rng.Intn(6)))
}

// TestGreedyEvaluationMatchesReference holds greedy evaluation — one trial
// state charged and restored per candidate, plans made once per bundle,
// other applications' base predictions made lazily and their re-predictions
// shared between candidates of one footprint — to copyEvaluation, on seeded
// random systems with pruning on and off (so that candidates that do not fit
// are evaluated too). Before every arrival the arrival's own evaluation is
// compared, after every event every resident's, and once per system with one
// resident's placement naming a host the cluster does not have, so that its
// prediction fails. Every candidate must come out the same, bit for bit or
// error for error, and so must the winner, the error and the warnings of the
// pass's own loop.
func TestGreedyEvaluationMatchesReference(t *testing.T) {
	var tally greedyTally
	for seed := int64(1); seed <= 12; seed++ {
		for _, pruning := range []bool{true, false} {
			runGreedyReference(t, seed, !pruning, fmt.Sprintf("seed %d, pruning %v", seed, pruning), &tally)
		}
	}
	t.Logf("%+v", tally)
	if tally.candidates < 5000 || tally.misfits < 100 || tally.predictErrs < 100 || tally.shared < 500 ||
		tally.noneFit == 0 || tally.predictions >= tally.refPredictions {
		t.Errorf("the systems drawn no longer cover what the test is for: %+v", tally)
	}
}

func runGreedyReference(t *testing.T, seed int64, disablePruning bool, what string, tally *greedyTally) {
	rng := rand.New(rand.NewSource(seed))
	cl, err := cluster.NewSP2(5 + rng.Intn(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.AddNode(&rsl.NodeDecl{Hostname: slowHost, Speed: 5e-324, MemoryMB: 128, OS: "linux", CPUs: 1}); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Cluster: cl, Clock: simclock.New()}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.disablePruning = disablePruning
	hosts := cl.Hosts()[1:]
	compareAll := func(at string) {
		for _, id := range c.order {
			compareGreedy(t, c, c.apps[id], false, at, tally)
		}
	}
	var live []int
	for op := 0; op < 24; op++ {
		at := fmt.Sprintf("%s, op %d", what, op)
		cfg.Clock.AdvanceTo(cfg.Clock.Now() + time.Duration(1+rng.Intn(90))*time.Second)
		switch k := rng.Intn(10); {
		case k < 5 || len(live) < 2:
			bundle := greedyRSL(t, rng, op+1, hosts)
			inst := c.nextInstance + 1
			arrival := &appState{instance: inst, bundle: bundle, ownerPath: namespace.InstancePath(bundle.App, inst), lastSwitch: -1}
			compareGreedy(t, c, arrival, true, at+", the arrival", tally)
			if inst, _, err := c.Register(bundle); err == nil {
				live = append(live, inst)
			}
		case k < 7:
			j := rng.Intn(len(live))
			if _, err := c.Unregister(live[j]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:j], live[j+1:]...)
		default:
			c.Reevaluate()
		}
		compareAll(at)
		if op == 12 && len(live) > 0 {
			// One resident's prediction fails wherever it is read: every
			// candidate that reaches it reports that.
			app := c.apps[live[0]]
			kept := app.assignment
			lost := kept.Clone()
			lost.Nodes[len(lost.Nodes)-1].Hostname = "no-such-host"
			app.assignment = lost
			compareAll(at + ", a resident on a host that is gone")
			app.assignment = kept
		}
	}
}
