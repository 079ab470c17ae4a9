package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"harmony/internal/match"
	"harmony/internal/namespace"
	"harmony/internal/objective"
	"harmony/internal/predict"
	"harmony/internal/replog"
	"harmony/internal/resource"
	"harmony/internal/rsl"
)

// searchByFork is the joint search as it was before it walked one trial state,
// before it was bounded and before it filtered choices: it releases every
// application's claim in its own fork of the ledger's capture base, every
// enumerated choice is tried under every inner node, every trial forks the
// snapshot of the level above, matches on the bare fork (which reads and
// orders the node table itself), reserves through the view and predicts by
// walking the fork's overlay chain; every request is resolved again at every
// inner node. It shares nothing with searchJoint but the applications, the
// capture and the trial counter, and is the reference searchJoint is held to.
// Warnings are collected per first-level choice, as the walk that fanned those
// out collected them.
func (c *Controller) searchByFork(base *resource.Snapshot, ids []int, skipInstance int) comboResult {
	released := base.Fork()
	perApp := make([][]Choice, len(ids))
	for i, id := range ids {
		app := c.apps[id]
		if app.claim != nil {
			_ = released.Release(app.claim.ID) // jointProblem dropped stale claims
		}
		perApp[i] = enumerateChoices(app.bundle)
	}
	best := comboResult{score: math.Inf(1)}
	for _, ch := range perApp[0] {
		br := comboResult{score: math.Inf(1)}
		if fork, cd, ok := c.tryChoiceByFork(released, ids[0], ch, &br); ok {
			c.walkByFork(fork, ids, perApp, skipInstance, 1, []candidate{cd}, &br)
		}
		best.warns = append(best.warns, br.warns...)
		if br.combo != nil && br.score < best.score {
			best.score = br.score
			best.combo = br.combo
		}
	}
	return best
}

// tryChoiceByFork matches and trial-reserves one choice for one app in a fresh
// fork of view, returning the fork, the candidate, and whether it fits.
func (c *Controller) tryChoiceByFork(view *resource.Snapshot, id int, ch Choice, br *comboResult) (*resource.Snapshot, candidate, bool) {
	app := c.apps[id]
	opt := app.bundle.Option(ch.Option)
	c.jointTrials++
	fork := view.Fork()
	matcher := c.matcher.WithView(fork)
	asg, err := matcher.Match(match.Request{Option: opt, Env: rsl.MapEnv(ch.Vars), MemoryGrants: ch.Grants})
	if err != nil {
		return nil, candidate{}, false
	}
	if _, err := matcher.Reserve(app.owner(), asg); err != nil {
		return nil, candidate{}, false
	}
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

// walkByFork recurses over the remaining applications' choices.
func (c *Controller) walkByFork(view *resource.Snapshot, ids []int, perApp [][]Choice, skipInstance, level int, acc []candidate, br *comboResult) {
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
		fork, cd, ok := c.tryChoiceByFork(view, ids[level], ch, br)
		if !ok {
			continue
		}
		c.walkByFork(fork, ids, perApp, skipInstance, level+1, append(acc, cd), br)
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

// jointRSL draws one application for the differential test: wildcard bags
// whose load reorders the scan from one level to the next, exclusive bags
// under an explicit model, named and half-named clients with links and a
// memory-grant ladder, bags under a communication tag, a memory-only cache,
// a bundle one of whose friction expressions cannot be evaluated, and
// prunableRSL's mix of an option that fits nowhere, duplicate variable values
// and a failing friction expression.
func jointRSL(rng *rand.Rand, i int, hosts []string) string {
	switch rng.Intn(8) {
	case 0:
		return fmt.Sprintf(`harmonyBundle Bag%d:%d parallelism {
	{workers
		{variable workerNodes {1 2 3}}
		{node worker * {os linux} {seconds {%d / workerNodes}} {memory %d} {replicate workerNodes}}
	}
}`, i, i, 8+rng.Intn(30), 16+8*rng.Intn(3))
	case 1:
		return bagRSL(fmt.Sprintf("Excl%d", i), i, 4, 60+float64(rng.Intn(900))/10)
	case 2:
		return replayDBRSL(i, hosts[rng.Intn(len(hosts))])
	case 3:
		return goldenDBRSL(i)
	case 4:
		return fmt.Sprintf(`harmonyBundle Comm%d:%d parallelism {
	{workers
		{variable workerNodes {1 2 3 4}}
		{node worker * {seconds {%d / workerNodes}} {memory 24} {replicate workerNodes}}
		{communication {%d * workerNodes ^ 2}}
	}
}`, i, i, 20+rng.Intn(40), 30+rng.Intn(90))
	case 5:
		return goldenCacheRSL(i)
	case 6:
		return prunableRSL(i)
	}
	return fmt.Sprintf(`harmonyBundle Fric%d:%d speed {
	{slow {node x * {seconds %d} {memory 8}} {friction {nosuch * 2}}}
	{fast {node x * {seconds %d} {memory >=20}} {node y %s {seconds 1} {memory 4}} {link x y {x.memory / 4}} {friction {x.memory / 4}}}
}`, i, i, 10+rng.Intn(10), 3+rng.Intn(5), hosts[rng.Intn(len(hosts))])
}

// nearRSL is a bag whose model puts its two worker counts within 0.1% of each
// other, the better one enumerated last: a bound that overshot a prediction by
// 1% would cut the winner.
func nearRSL(i, secs int) string {
	return fmt.Sprintf(`harmonyBundle Near%d:%d parallelism {
	{workers
		{variable workerNodes {1 2}}
		{node worker * {seconds {%d / workerNodes}} {memory 16} {replicate workerNodes}}
		{performance {{1 %d} {2 %g}}}
	}
}`, i, i, secs, secs, float64(secs)*0.999)
}

// jointTally counts what the differential test compared, so that it can tell
// a script that no longer reaches the cases it was written for.
type jointTally struct {
	problems, deep, infeasible, warned, degraded, skipped, cuts int
	trials, forkTrials                                          uint64
}

// compareJointProblem poses the joint problem the controller would
// search now, with skip held fixed, to searchJoint and to searchByFork, which
// tries every enumerated choice, and requires one answer: the same combination or none, the score and every
// prediction and friction cost bit for bit, the same placements down to the
// positions they carry and the bytes they encode to. The bounded search may
// try less than the fork walk, so it must make no more trials and predictions
// than the fork walk, and raise only warnings the fork walk raised, each once.
func compareJointProblem(t *testing.T, c *Controller, skip int, what string, tally *jointTally) {
	t.Helper()
	base, ids, perApp, degraded := c.jointProblem(skip)
	if len(ids) == 0 {
		return
	}
	p0, t0 := c.predictions, c.jointTrials
	got := c.searchJoint(base, ids, perApp, skip)
	p1, t1 := c.predictions, c.jointTrials
	want := c.searchByFork(base, ids, skip)
	p2, t2 := c.predictions, c.jointTrials

	tally.problems++
	tally.trials += t1 - t0
	tally.forkTrials += t2 - t1
	tally.cuts += got.cuts
	if len(ids) >= 3 {
		tally.deep++
	}
	if len(degraded) > 0 {
		tally.degraded++
	}
	if skip != 0 {
		tally.skipped++
	}
	if len(want.warns) > 0 {
		tally.warned++
	}
	if got.exhausted {
		t.Fatalf("%s: the search spent its budget", what)
	}
	if p1-p0 > p2-p1 || t1-t0 > t2-t1 {
		t.Fatalf("%s: %d trials and %d predictions, the fork walk made %d and %d", what, t1-t0, p1-p0, t2-t1, p2-p1)
	}
	for i, w := range got.warns {
		if !slices.Contains(want.warns, w) || slices.Contains(got.warns[:i], w) {
			t.Fatalf("%s: warnings are not the fork walk's, each once:\n  got %q\n want %q", what, got.warns, want.warns)
		}
	}
	if (got.combo == nil) != (want.combo == nil) {
		t.Fatalf("%s: found a combination: %v, the fork walk: %v", what, got.combo != nil, want.combo != nil)
	}
	if want.combo == nil {
		tally.infeasible++
		return
	}
	if math.Float64bits(got.score) != math.Float64bits(want.score) {
		t.Fatalf("%s: score %v, the fork walk's %v", what, got.score, want.score)
	}
	for i := range want.combo {
		g, w := got.combo[i], want.combo[i]
		owner := c.apps[ids[i]].owner()
		if !g.choice.Equal(w.choice) {
			t.Fatalf("%s: %s gets %s, the fork walk gives it %s", what, owner, g.choice, w.choice)
		}
		if math.Float64bits(g.predicted) != math.Float64bits(w.predicted) || math.Float64bits(g.friction) != math.Float64bits(w.friction) {
			t.Fatalf("%s: %s %s: predicted %v friction %v, the fork walk's %v and %v", what, owner, g.choice, g.predicted, g.friction, w.predicted, w.friction)
		}
		ga, wa := g.assignment, w.assignment
		if ga.Option != wa.Option || ga.CommunicationMbps != wa.CommunicationMbps ||
			!reflect.DeepEqual(ga.Nodes, wa.Nodes) || !reflect.DeepEqual(ga.Links, wa.Links) ||
			!reflect.DeepEqual(ga.Places(base, nil), wa.Places(base, nil)) {
			t.Fatalf("%s: %s %s: placements differ:\n  got %+v\n want %+v", what, owner, g.choice, ga, wa)
		}
		gj, _ := json.Marshal(ga)
		wj, _ := json.Marshal(wa)
		if string(gj) != string(wj) {
			t.Fatalf("%s: %s %s: placements encode differently:\n  got %s\n want %s", what, owner, g.choice, gj, wj)
		}
	}
}

// compareJointSearches is compareJointProblem on the controller as it
// stands, with no application and then with the last one held fixed: the two
// problems a controller in Exhaustive mode poses.
func compareJointSearches(t *testing.T, c *Controller, what string, tally *jointTally) {
	t.Helper()
	compareJointProblem(t, c, 0, what, tally)
	if n := len(c.order); n > 1 {
		compareJointProblem(t, c, c.order[n-1], what+", the last application fixed", tally)
	}
}

// compareOnArrival poses the problem Register falls back to when the bundle
// fits nowhere — every resident and the arrival, nobody placed — whether or
// not this arrival would have to fall back.
func compareOnArrival(t *testing.T, c *Controller, bundle *rsl.BundleSpec, what string, tally *jointTally) {
	t.Helper()
	inst := c.nextInstance + 1
	c.apps[inst] = &appState{instance: inst, bundle: bundle, ownerPath: namespace.InstancePath(bundle.App, inst), lastSwitch: -1}
	c.order = append(c.order, inst)
	compareJointProblem(t, c, 0, what, tally)
	delete(c.apps, inst)
	c.order = c.order[:len(c.order)-1]
}

// TestAccommodationIsBounded is the outage the bounded search removes, counted
// rather than timed: eight Figure-4 bags of nine choices fill a 40-node
// machine, five exclusive workers each, and one more arrives. The exhaustive
// walk did not decide that in 30 s (about 3 x 10^8 trials); the bounded one
// must place the arrival below its budget, in a trial count that repeats
// exactly.
func TestAccommodationIsBounded(t *testing.T) {
	c, _ := newController(t, 40, Config{})
	for job := 1; job <= 8; job++ {
		if _, _, err := c.Register(decodeBundle(t, bagRSL(fmt.Sprintf("Bag%d", job), job, 9, 300))); err != nil {
			t.Fatal(err)
		}
	}
	trials := c.JointTrials()
	if _, _, err := c.Register(decodeBundle(t, bagRSL("Bag9", 9, 9, 310))); err != nil {
		t.Fatal(err)
	}
	const want = 8177
	if got := c.JointTrials() - trials; got != want || c.JointBudgetHits() != 0 || got >= jointTrialBudget {
		t.Fatalf("accommodation took %d trials (want %d) against a budget of %d; budget hits %d", got, want, jointTrialBudget, c.JointBudgetHits())
	}
}

// TestJointBudgetReplays lowers the trial budget on the squeeze system — two
// Figure-4 bags fill ten nodes and a third arrives, which the whole search
// decides in 57 trials. Stopped at 20 trials it places the arrival on the best
// combination it has found; stopped at 2, before any, it turns the arrival
// away with ErrSearchBudget, which is also an ErrNoFeasibleOption, and leaves
// the state as it was. Either way two controllers applying the same entries
// end in the same state. In Exhaustive mode a pass that runs out keeps the
// placements it had.
func TestJointBudgetReplays(t *testing.T) {
	entries := []replog.Entry{
		{Index: 1, Op: replog.OpRegister, RSL: bagRSL("Bag1", 1, 8, 300)},
		{Index: 2, Op: replog.OpRegister, RSL: bagRSL("Bag2", 2, 8, 300)},
		{Index: 3, Op: replog.OpRegister, RSL: bagRSL("Job", 3, 8, 310)},
	}
	for _, tc := range []struct {
		budget   int
		rejected bool
	}{{20, false}, {2, true}} {
		var states [2][]byte
		for k := range states {
			what := fmt.Sprintf("budget %d, controller %d", tc.budget, k)
			c, _ := newController(t, 10, Config{})
			c.jointBudget = tc.budget
			if out := applyAll(t, c, entries[:2]); out[0]+out[1] != "" {
				t.Fatalf("%s: %q", what, out)
			}
			before, _ := c.EncodeState()
			trials := c.JointTrials()
			_, err := c.Apply(&entries[2])
			if got := c.JointTrials() - trials; got != uint64(tc.budget) || c.JointBudgetHits() != 1 {
				t.Fatalf("%s: %d trials, %d budget hits; want the budget spent once", what, got, c.JointBudgetHits())
			}
			states[k], _ = c.EncodeState()
			switch {
			case !tc.rejected && (err != nil || len(c.Apps()) != 3):
				t.Fatalf("%s: %v, %d apps; want the arrival placed", what, err, len(c.Apps()))
			case tc.rejected && (!errors.Is(err, ErrSearchBudget) || !errors.Is(err, ErrNoFeasibleOption) || !bytes.Equal(states[k], before)):
				t.Fatalf("%s: %v; want ErrSearchBudget and the state unchanged", what, err)
			}
			if w := c.Warnings(); len(w) == 0 || !strings.Contains(w[len(w)-1], "budget") {
				t.Fatalf("%s: warnings %q do not name the budget", what, w)
			}
		}
		if !bytes.Equal(states[0], states[1]) {
			t.Fatalf("budget %d: replayed states differ:\n%s\n%s", tc.budget, states[0], states[1])
		}
	}

	c, _ := newController(t, 10, Config{Exhaustive: true})
	if out := applyAll(t, c, entries[:2]); out[0]+out[1] != "" {
		t.Fatalf("exhaustive: %q", out)
	}
	c.jointBudget = 2
	before, _ := c.EncodeState()
	if events := c.Reevaluate(); len(events) != 0 || c.JointBudgetHits() != 1 {
		t.Fatalf("exhaustive pass at its budget: %d events, %d budget hits", len(events), c.JointBudgetHits())
	}
	if after, _ := c.EncodeState(); !bytes.Equal(after, before) {
		t.Fatalf("exhaustive pass at its budget changed the state:\n%s\n%s", before, after)
	}
}

// TestJointSearchMatchesForkWalk holds the joint search to the walk it
// replaced on seeded random systems of two to five applications — on
// controllers that search jointly at every event (Exhaustive) and on
// controllers that do so only to make room for an arrival
// — before every arrival, after every event, with a node down and with an
// application evicted and degraded — and on a system of near ties, where a
// bound that was not a bound would show.
func TestJointSearchMatchesForkWalk(t *testing.T) {
	var tally jointTally
	for seed := int64(1); seed <= 16; seed++ {
		for _, exhaustive := range []bool{false, true} {
			what := fmt.Sprintf("seed %d, exhaustive %v", seed, exhaustive)
			rng := rand.New(rand.NewSource(seed))
			nodes := 5 + rng.Intn(4)
			c, _ := newController(t, nodes, Config{Exhaustive: exhaustive})
			hosts := c.cfg.Cluster.Hosts()[1:]
			apps := 2 + rng.Intn(4)
			var insts []int
			arrive := func(i int) {
				bundle := decodeBundle(t, jointRSL(rng, i, hosts))
				at := fmt.Sprintf("%s, arrival %d", what, i)
				compareOnArrival(t, c, bundle, "before "+at, &tally)
				if inst, _, err := c.Register(bundle); err == nil {
					insts = append(insts, inst)
				}
				compareJointSearches(t, c, "after "+at, &tally)
			}
			for i := 1; i <= apps; i++ {
				arrive(i)
			}
			// A client pinned to a host that then fails cannot be placed
			// again: it stays registered, degraded, outside the search.
			pinned := hosts[rng.Intn(len(hosts))]
			if inst, _, err := c.Register(decodeBundle(t, replayDBRSL(apps+1, pinned))); err == nil {
				insts = append(insts, inst)
			}
			if _, err := c.MarkNodeDown(pinned); err != nil {
				t.Fatal(err)
			}
			compareJointSearches(t, c, what+", a host down", &tally)
			arrive(apps + 2)
			if len(insts) > 1 {
				if _, err := c.Unregister(insts[0]); err != nil {
					t.Fatal(err)
				}
				compareJointSearches(t, c, what+", a departure", &tally)
			}
		}
	}
	c, _ := newController(t, 6, Config{Exhaustive: true})
	for i := 1; i <= 4; i++ {
		bundle := decodeBundle(t, nearRSL(i, 20+10*i))
		at := fmt.Sprintf("near ties, arrival %d", i)
		compareOnArrival(t, c, bundle, "before "+at, &tally)
		if _, _, err := c.Register(bundle); err != nil {
			t.Fatal(err)
		}
		compareJointSearches(t, c, "after "+at, &tally)
	}
	t.Logf("%+v", tally)
	if tally.problems < 400 || tally.deep < 200 || tally.infeasible == 0 || tally.warned < 10 || tally.degraded < 10 || tally.skipped < 100 || tally.cuts == 0 {
		t.Errorf("the systems drawn no longer cover what the test is for: %+v", tally)
	}
}
