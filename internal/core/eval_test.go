package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"harmony/internal/cluster"
	"harmony/internal/match"
	"harmony/internal/rsl"
	"harmony/internal/simclock"
)

// genBundle builds one of several bundle shapes deterministically from rng,
// covering single-option, multi-option (QS/DS-style), and variable-expanded
// parallel bundles so the differential tests see choice lists of different
// sizes.
func genBundle(t *testing.T, rng *rand.Rand, i int) *rsl.BundleSpec {
	t.Helper()
	var src string
	switch rng.Intn(4) {
	case 0:
		src = fmt.Sprintf(`harmonyBundle Gen%d:%d s {
			{only {node x * {seconds %d} {memory %d}}}
		}`, i, i, 5+rng.Intn(20), 4+rng.Intn(8))
	case 1:
		src = fmt.Sprintf(`harmonyBundle Gen%d:%d where {
			{QS {node server sp2-01 {seconds %d} {memory 10}} {node client * {seconds 1} {memory 2}} {link client server 2}}
			{DS {node server sp2-01 {seconds 1} {memory 10}} {node client * {memory >=8} {seconds %d}} {link client server {20 - client.memory}}}
		}`, i, i, 3+rng.Intn(6), 8+rng.Intn(6))
	case 2:
		src = fmt.Sprintf(`harmonyBundle Gen%d:%d p {
			{w {variable n {1 2 4}} {node x * {seconds {%d / n}} {memory 16} {replicate n}} {performance {{1 %d} {2 %d} {4 %d}}}}
		}`, i, i, 40+rng.Intn(80), 40+rng.Intn(20), 25+rng.Intn(10), 18+rng.Intn(6))
	default:
		src = fmt.Sprintf(`harmonyBundle Gen%d:%d f {
			{slow {node x * {seconds %d} {memory 8}} {friction 5}}
			{fast {node x * {seconds %d} {memory 24}} {friction 9}}
		}`, i, i, 10+rng.Intn(10), 4+rng.Intn(4))
	}
	bundles, _, err := rsl.DecodeScript(src)
	if err != nil {
		t.Fatalf("decode generated bundle: %v", err)
	}
	return bundles[0]
}

// newPairedControllers builds two controllers over two identical clusters,
// one configured with EvalWorkers 1 and one with 8.
func newPairedControllers(t *testing.T, nodes int) (serial, par *Controller, clocks [2]*simclock.Clock) {
	t.Helper()
	ctrls := make([]*Controller, 2)
	for i, workers := range []int{1, 8} {
		cl, err := cluster.NewSP2(nodes)
		if err != nil {
			t.Fatal(err)
		}
		clock := simclock.New()
		ctrl, err := New(Config{Cluster: cl, Clock: clock, EvalWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(clock.Stop)
		ctrls[i] = ctrl
		clocks[i] = clock
	}
	return ctrls[0], ctrls[1], clocks
}

// requireSameState fails unless both controllers report byte-identical
// application states: same choices, same hosts, bit-equal predictions and
// objective values.
func requireSameState(t *testing.T, step string, serial, par *Controller) {
	t.Helper()
	sa, pa := serial.Apps(), par.Apps()
	if len(sa) != len(pa) {
		t.Fatalf("%s: app count diverged: serial=%d parallel=%d", step, len(sa), len(pa))
	}
	for i := range sa {
		s, p := sa[i], pa[i]
		if s.App != p.App || !s.Choice.Equal(p.Choice) {
			t.Fatalf("%s: app %s choice diverged: serial=%v parallel=%v", step, s.App, s.Choice, p.Choice)
		}
		if math.Float64bits(s.PredictedSeconds) != math.Float64bits(p.PredictedSeconds) {
			t.Fatalf("%s: app %s prediction diverged: serial=%v parallel=%v", step, s.App, s.PredictedSeconds, p.PredictedSeconds)
		}
		if fmt.Sprint(s.Hosts) != fmt.Sprint(p.Hosts) {
			t.Fatalf("%s: app %s hosts diverged: serial=%v parallel=%v", step, s.App, s.Hosts, p.Hosts)
		}
		if s.Switches != p.Switches {
			t.Fatalf("%s: app %s switch count diverged: serial=%d parallel=%d", step, s.App, s.Switches, p.Switches)
		}
	}
	so, po := serial.Objective(), par.Objective()
	if math.Float64bits(so) != math.Float64bits(po) {
		t.Fatalf("%s: objective diverged: serial=%v parallel=%v", step, so, po)
	}
}

// TestParallelMatchesSerial drives a controller configured with EvalWorkers 1
// and one configured with 8 through identical randomized workloads —
// registrations, clock advances, re-evaluations, unregistrations — and
// requires bit-identical decisions after every operation. EvalWorkers is
// deprecated and ignored, evaluation being one serial loop, so the two must
// never part; what the test holds beyond that is that nothing else — map
// order, a buffer kept from one evaluation to the next — makes two
// controllers fed the same operations decide differently.
func TestParallelMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			runParallelMatchesSerial(t, seed, rng, 4+rng.Intn(5), genBundle)
		})
	}
}

// runParallelMatchesSerial is one seeded run of TestParallelMatchesSerial on
// a cluster of the given size, with bundles drawn from gen.
func runParallelMatchesSerial(t *testing.T, seed int64, rng *rand.Rand, nodes int, gen func(*testing.T, *rand.Rand, int) *rsl.BundleSpec) {
	serial, par, clocks := newPairedControllers(t, nodes)
	var live [][2]int // [serial instance, parallel instance]
	nOps := 12 + rng.Intn(8)
	for op := 0; op < nOps; op++ {
		bump := time.Duration(1+rng.Intn(5)) * time.Second
		for _, ck := range clocks {
			ck.AdvanceTo(ck.Now() + bump)
		}
		switch k := rng.Intn(4); {
		case k < 2 || len(live) == 0: // register
			bundleRng := rand.New(rand.NewSource(seed*1000 + int64(op)))
			si, _, serr := serial.Register(gen(t, bundleRng, op))
			bundleRng = rand.New(rand.NewSource(seed*1000 + int64(op)))
			pi, _, perr := par.Register(gen(t, bundleRng, op))
			if (serr == nil) != (perr == nil) {
				t.Fatalf("op %d: register feasibility diverged: serial=%v parallel=%v", op, serr, perr)
			}
			if serr == nil {
				live = append(live, [2]int{si, pi})
			}
		case k == 2: // unregister
			idx := rng.Intn(len(live))
			pair := live[idx]
			if _, err := serial.Unregister(pair[0]); err != nil {
				t.Fatalf("op %d: serial unregister: %v", op, err)
			}
			if _, err := par.Unregister(pair[1]); err != nil {
				t.Fatalf("op %d: parallel unregister: %v", op, err)
			}
			live = append(live[:idx], live[idx+1:]...)
		default: // explicit re-evaluation pass
			serial.Reevaluate()
			par.Reevaluate()
		}
		requireSameState(t, fmt.Sprintf("op %d", op), serial, par)
	}
}

// TestParallelMatchesSerialExhaustive checks the same property for the
// exhaustive (A2) search, and the greedy evaluations around it (the arrival's
// first placement, re-admission of degraded applications).
func TestParallelMatchesSerialExhaustive(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ctrls := make([]*Controller, 2)
		for i, workers := range []int{1, 8} {
			cl, err := cluster.NewSP2(4)
			if err != nil {
				t.Fatal(err)
			}
			clock := simclock.New()
			ctrl, err := New(Config{Cluster: cl, Clock: clock, EvalWorkers: workers, Exhaustive: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(clock.Stop)
			ctrls[i] = ctrl
		}
		serial, par := ctrls[0], ctrls[1]
		for op := 0; op < 4; op++ {
			bundleRng := rand.New(rand.NewSource(seed*77 + int64(op)))
			_, _, serr := serial.Register(genBundle(t, bundleRng, op))
			bundleRng = rand.New(rand.NewSource(seed*77 + int64(op)))
			_, _, perr := par.Register(genBundle(t, bundleRng, op))
			if (serr == nil) != (perr == nil) {
				t.Fatalf("seed %d op %d: feasibility diverged: %v vs %v", seed, op, serr, perr)
			}
			requireSameState(t, fmt.Sprintf("seed %d op %d", seed, op), serial, par)
		}
		_ = rng
	}
}

// TestConcurrentRegisterUnregisterStress hammers one controller from several
// goroutines: they take turns at Register/Unregister/Reevaluate (the
// controller has one writer at a time) and read Apps, Objective and Status
// whenever they like. Run with -race in CI; here it asserts the final state
// is clean (no leaked reservations).
func TestConcurrentRegisterUnregisterStress(t *testing.T) {
	cl, err := cluster.NewSP2(40)
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.New()
	defer clock.Stop()
	ctrl, err := New(Config{Cluster: cl, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 4
	const opsPerWorker = 15
	var wg sync.WaitGroup
	var writer sync.Mutex
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				src := fmt.Sprintf(`harmonyBundle Stress%d_%d:%d s {{only {node x * {seconds 3} {memory 2}}}}`, w, i, w*opsPerWorker+i+1)
				if w == 0 {
					src = bagRSL(fmt.Sprintf("Stress%d_%d", w, i), i+1, 8, 300)
				}
				bundles, _, err := rsl.DecodeScript(src)
				if err != nil {
					t.Errorf("decode: %v", err)
					return
				}
				writer.Lock()
				inst, _, err := ctrl.Register(bundles[0])
				writer.Unlock()
				if err != nil {
					continue // capacity exhaustion is legitimate under load
				}
				ctrl.Apps()
				ctrl.Objective()
				ctrl.Status()
				writer.Lock()
				if i%3 == 0 {
					ctrl.Reevaluate()
				}
				if _, err := ctrl.Unregister(inst); err != nil {
					t.Errorf("unregister %d: %v", inst, err)
				}
				writer.Unlock()
			}
		}()
	}
	wg.Wait()
	if n := len(ctrl.Apps()); n != 0 {
		t.Fatalf("%d apps leaked", n)
	}
	installed, free := cl.Ledger().TotalMemory()
	if installed != free {
		t.Fatalf("memory leaked: installed=%g free=%g", installed, free)
	}
}

// TestFrictionEvalErrorSurfaced is the regression test for friction
// evaluation errors being silently discarded: an option whose friction
// expression cannot be evaluated must raise a controller warning, not be
// treated as free to switch.
func TestFrictionEvalErrorSurfaced(t *testing.T) {
	cl, err := cluster.NewSP2(2)
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.New()
	defer clock.Stop()
	ctrl, err := New(Config{Cluster: cl, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}

	// noSuchVar is not a bundle variable and not a memory-env name, so the
	// friction expression fails to evaluate.
	const src = `harmonyBundle Fric:1 f {
		{a {node x * {seconds 5} {memory 4}} {friction {noSuchVar * 2}}}
		{b {node x * {seconds 9} {memory 4}}}
	}`
	bundles, _, err := rsl.DecodeScript(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ctrl.Register(bundles[0]); err != nil {
		t.Fatal(err)
	}
	warns := ctrl.Warnings()
	if len(warns) == 0 {
		t.Fatal("friction evaluation error raised no warning")
	}
	found := false
	for _, w := range warns {
		if strings.Contains(w, "friction evaluation failed") && strings.Contains(w, "Fric") {
			found = true
		}
	}
	if !found {
		t.Fatalf("warnings %v do not mention the friction failure", warns)
	}
}

// TestFrictionWarningOncePerApp evaluates a choice whose friction does not
// evaluate on every pass that can: the registration, a re-evaluation, and a
// forced switch back to it. Its warning enters the ring once.
func TestFrictionWarningOncePerApp(t *testing.T) {
	ctrl, _ := newController(t, 2, Config{})
	bundles, _, err := rsl.DecodeScript(`harmonyBundle Fric:1 f {
		{a {node x * {seconds 5} {memory 4}} {friction {noSuchVar * 2}}}
		{b {node x * {seconds 9} {memory 4}}}
	}`)
	if err != nil {
		t.Fatal(err)
	}
	inst, _, err := ctrl.Register(bundles[0])
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Reevaluate()
	for _, option := range []string{"b", "a"} {
		if _, err := ctrl.ForceChoice(inst, Choice{Option: option}); err != nil {
			t.Fatal(err)
		}
	}
	copies := 0
	for _, w := range ctrl.Warnings() {
		if strings.Contains(w, "friction evaluation failed") {
			copies++
		}
	}
	if copies != 1 {
		t.Fatalf("%d copies of the friction warning in %q, want 1", copies, ctrl.Warnings())
	}
}

// TestWarningsRingBounded checks the ring buffer drops oldest entries, and
// that turning it over leaves the ring an earlier view published untouched.
func TestWarningsRingBounded(t *testing.T) {
	ctrl, _ := newController(t, 1, Config{})
	for i := 0; i < maxWarnings; i++ {
		ctrl.warn(fmt.Sprintf("w%d", i))
	}
	ctrl.Reevaluate() // publishes the full ring
	full := ctrl.view.Load().warnings
	for i := maxWarnings; i < maxWarnings+10; i++ {
		ctrl.warn(fmt.Sprintf("w%d", i))
	}
	ctrl.Reevaluate()
	warns := ctrl.Warnings()
	if len(warns) != maxWarnings {
		t.Fatalf("ring holds %d, want %d", len(warns), maxWarnings)
	}
	if warns[0] != "w10" || warns[len(warns)-1] != fmt.Sprintf("w%d", maxWarnings+9) {
		t.Fatalf("ring dropped wrong entries: first=%s last=%s", warns[0], warns[len(warns)-1])
	}
	if full[0] != "w0" || full[len(full)-1] != fmt.Sprintf("w%d", maxWarnings-1) {
		t.Fatalf("an earlier view's ring changed under it: first=%s last=%s", full[0], full[len(full)-1])
	}
}

// TestAdoptionFailureNeverDanglesClaim is the regression test for the
// released-claim bug: when adopting a new candidate fails at reservation
// time, the application must end up either with its previous claim restored
// (live in the ledger) or with a nil claim — never with app.claim pointing
// at a claim the ledger has already released.
func TestAdoptionFailureNeverDanglesClaim(t *testing.T) {
	ctrl, _ := newController(t, 2, Config{})
	inst, _, err := ctrl.Register(bagBundle(t))
	if err != nil {
		t.Fatal(err)
	}
	app := ctrl.apps[inst]
	prevID := app.claim.ID
	// A candidate whose assignment names a host the cluster does not have:
	// Reserve must fail after the previous claim was released.
	bad := candidate{
		choice:     Choice{Option: "workers", Vars: map[string]float64{"workerNodes": 1}},
		assignment: badAssignment(),
	}
	_, aerr := ctrl.adopt(app, bad, ctrl.cfg.Clock.Now(), false)
	claim := app.claim
	if aerr == nil {
		t.Fatal("adoption of an unreservable assignment succeeded")
	}
	if claim == nil {
		t.Fatal("previous placement was not restored")
	}
	if claim.ID == prevID {
		t.Fatalf("claim %d kept its released identity; want a fresh reservation", prevID)
	}
	// The restored claim must be live: releasing it through the ledger works.
	err = ctrl.ledger.Release(claim.ID)
	if err != nil {
		t.Fatalf("restored claim %d is not live in the ledger: %v", claim.ID, err)
	}
}

// TestStaleClaimWarnsAndRecovers covers the other half of the claim-safety
// contract: if the ledger no longer knows the app's claim (it was released
// behind the controller's back), re-evaluation must warn and recover with a
// fresh reservation instead of carrying the dangling pointer forward.
func TestStaleClaimWarnsAndRecovers(t *testing.T) {
	ctrl, _ := newController(t, 2, Config{})
	inst, _, err := ctrl.Register(bagBundle(t))
	if err != nil {
		t.Fatal(err)
	}
	app := ctrl.apps[inst]
	if err := ctrl.ledger.Release(app.claim.ID); err != nil {
		t.Fatal(err)
	}

	ctrl.Reevaluate()
	claim := app.claim
	warns := ctrl.Warnings()
	found := false
	for _, w := range warns {
		if strings.Contains(w, "stale claim") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no stale-claim warning in %v", warns)
	}
	if claim == nil {
		t.Fatal("controller did not re-place the app after losing its claim")
	}
	err = ctrl.ledger.Release(claim.ID)
	if err != nil {
		t.Fatalf("recovered claim is not live: %v", err)
	}
}

// badAssignment names a host that no cluster in these tests has.
func badAssignment() *match.Assignment {
	return &match.Assignment{
		Option: "workers",
		Nodes:  []match.NodeAssignment{{LocalName: "worker", Hostname: "no-such-host", Seconds: 1, MemoryMB: 1, CPULoad: 1}},
	}
}

// TestOptimizerDocInSync keeps docs/OPTIMIZER.md honest: the exported knobs
// and types it describes must be the ones that exist, the doc must mention
// each piece of the evaluation architecture, and it must say that the
// deprecated EvalWorkers does nothing.
func TestOptimizerDocInSync(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OPTIMIZER.md"))
	if err != nil {
		t.Fatalf("docs/OPTIMIZER.md missing: %v", err)
	}
	for _, sym := range []string{
		"Warnings", "MemoStats", "Predictions",
		"Snapshot", "Fork", "Placement", "Reevaluate",
		"PruneStats", "Misfit", "Where the fit proof runs", "TestNoFitQuotesLastChoice",
		"One pass, one table", "passState", "Ledger.Unchanged", "Columns.Release", "TestPassPredictionCounts",
		"`EvalWorkers` is deprecated and ignored",
		"One writer, one published view", "TestReadersNeverWaitForAPass",
		"jointTrialBudget", "ErrSearchBudget", "objective.Func", "TestJointBudgetReplays",
	} {
		if !strings.Contains(string(doc), sym) {
			t.Errorf("docs/OPTIMIZER.md does not mention %s", sym)
		}
	}
	for _, gone := range []string{
		"fanOutMinSize", "CopyFrom", "candScratch", "DisablePruning", "UseCriticalPath", "BestFit", "Dominance",
		"ReevalInterval", "WarnFunc", "GrantSteps", "SetObjective", "adoptLocked",
		"once per first-level choice", "exponential and unbounded",
		"evalContext", "newEvalContext", "Base predictions are made lazily", "Candidates with one footprint share",
		"pruneChoices", "disablePruning", "Static pruning", "TestPruningBitIdentical", "ExcludeHosts", "prune counter",
		"overlay chain", "records only its own deltas", "WithView",
	} {
		if strings.Contains(string(doc), gone) {
			t.Errorf("docs/OPTIMIZER.md still describes %s, which no longer exists", gone)
		}
	}
}

// TestPassPredictionCounts pins what the what-if table saves, in predictions,
// which repeat exactly. One arrival and departure beside 64 db-crowd clients
// (BenchmarkCrowdCycle's cycle) makes 1 096, where re-predicting the other
// clients for every candidate made 17 094. On the Figure 7 shape — a client
// on each host beside one server — a pass makes at most 6 predictions a
// resident, at 64 and at 256 residents: linear in the residents, where
// re-predicting made every evaluation cost O(residents) predictions and a
// pass O(residents²).
func TestPassPredictionCounts(t *testing.T) {
	crowd := crowdController(t, 64, Config{})
	arrival := decodeBundle(t, crowdRSL(65, 65))
	before := crowd.Predictions()
	inst, _, err := crowd.Register(arrival)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crowd.Unregister(inst); err != nil {
		t.Fatal(err)
	}
	if got := crowd.Predictions() - before; got != 1096 {
		t.Errorf("a db-crowd cycle made %d predictions, want 1096", got)
	}

	for _, residents := range []int{64, 256} {
		c := crowdControllerOn(t, residents, residents, Config{})
		clock := c.cfg.Clock
		for i := 0; i < 5; i++ {
			clock.AdvanceTo(clock.Now() + 4000*time.Second)
			if len(c.Reevaluate()) == 0 {
				break
			}
		}
		clock.AdvanceTo(clock.Now() + 4000*time.Second)
		before := c.Predictions()
		c.Reevaluate()
		if got := c.Predictions() - before; got > uint64(6*residents) {
			t.Errorf("a Figure 7 pass over %d residents made %d predictions, want at most %d", residents, got, 6*residents)
		} else {
			t.Logf("a Figure 7 pass over %d residents: %d predictions", residents, got)
		}
	}
}

// TestGreedyEvaluationAllocs holds a warmed greedy evaluation to no heap
// allocation: a resident's choices are placed, charged, predicted and reduced
// in the pass state's own buffers, and the best so far swaps storage with the
// trial instead of being copied out. Only adopt copies an assignment. The
// cases are a db-crowd resident's five choices and a wildcard bag of 40
// replicas under a communication tag, whose every choice charges more node
// and link claims than a small fixed buffer would hold.
func TestGreedyEvaluationAllocs(t *testing.T) {
	const wideBag = `
harmonyBundle WideBag:1 spread {
	{workers
		{variable workerNodes {33 40}}
		{node worker * {seconds {3000 / workerNodes}} {memory 8} {replicate workerNodes}}
		{communication {workerNodes / 4}}
	}
}`
	cases := []struct {
		name  string
		build func(t *testing.T) *Controller
	}{
		{"db-crowd", func(t *testing.T) *Controller { return crowdController(t, 64, Config{}) }},
		{"wildcard bag of 40 with communication", func(t *testing.T) *Controller {
			c, _ := newController(t, 48, Config{})
			bundles, _, err := rsl.DecodeScript(wideBag)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := c.Register(bundles[0]); err != nil {
				t.Fatal(err)
			}
			return c
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build(t)
			app := c.apps[c.order[len(c.order)/2]]
			if app.assignment == nil {
				t.Fatal("the evaluated app holds no placement")
			}
			now := c.cfg.Clock.Now()
			if _, err := c.bestChoice(app, now, false); err != nil { // opens the pass and fills its table
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := c.bestChoice(app, now, false); err != nil {
					t.Fatal(err)
				}
			})
			c.endPass()
			if allocs > 0 {
				t.Fatalf("a warmed greedy evaluation allocated %v times, want 0", allocs)
			}
		})
	}
}
