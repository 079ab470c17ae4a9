package experiments

import (
	"runtime"
	"testing"
	"time"
)

// TestOptBenchSmall runs the hot-path benchmark at toy scale and checks
// the report's invariants (the large configurations run from cmd/hbench).
func TestOptBenchSmall(t *testing.T) {
	rep, err := RunOptBench(OptBenchConfig{
		Shapes:     []string{"fig4", "fig7"},
		NodeCounts: []int{4},
		MinMeasure: 5 * time.Millisecond,
		MaxIters:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two shapes, each at GOMAXPROCS 1 and, where it differs, at the
	// process's own.
	want := 2
	if runtime.GOMAXPROCS(0) > 1 {
		want = 4
	}
	if len(rep.Points) != want {
		t.Fatalf("points = %d, want %d", len(rep.Points), want)
	}
	for _, p := range rep.Points {
		if p.Procs != 1 && p.Procs != rep.GoMaxProcs {
			t.Errorf("%s/%d: measured at GOMAXPROCS %d, want 1 or %d", p.Shape, p.Nodes, p.Procs, rep.GoMaxProcs)
		}
		if p.Apps <= 0 || p.ChoicesPerPass <= 0 {
			t.Errorf("%s/%d: degenerate workload: %+v", p.Shape, p.Nodes, p)
		}
		if !(p.NsPerReeval > 0) || !(p.EvalsPerSec > 0) || p.PredictionsPerPass == 0 {
			t.Errorf("%s/%d: non-positive timing, rate or prediction count: %+v", p.Shape, p.Nodes, p)
		}
	}
	if rep.GoMaxProcs < 1 || rep.GOOS == "" || rep.GOARCH == "" {
		t.Fatalf("environment not recorded: %+v", rep)
	}
	res := OptBenchResult(rep)
	if !res.Passed() || len(res.Rows) != want {
		t.Fatalf("result formatting broken: %+v", res)
	}
}

// TestOptBenchEnvMatches covers the baseline-comparability predicate.
func TestOptBenchEnvMatches(t *testing.T) {
	a := &OptBenchReport{GoMaxProcs: 4, GOOS: "linux", GOARCH: "amd64"}
	b := &OptBenchReport{GoMaxProcs: 4, GOOS: "linux", GOARCH: "amd64"}
	if !a.EnvMatches(b) {
		t.Fatal("identical environments reported as different")
	}
	b.GoMaxProcs = 8
	if a.EnvMatches(b) {
		t.Fatal("different GOMAXPROCS reported as comparable")
	}
	if a.EnvMatches(nil) {
		t.Fatal("nil baseline reported as comparable")
	}
}

// TestOptBenchRejectsEmptyConfig guards the config validation.
func TestOptBenchRejectsEmptyConfig(t *testing.T) {
	if _, err := RunOptBench(OptBenchConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

// TestOptBenchAccommodate measures the joint search beside two residents and
// checks the count it is reported in, the same at every accommodation: 47
// trials with 5 choices a bag and 58 with 9, where trying every choice under
// every inner node took 155 (5 under each of 1 + 5 + 25) and 495 (9 under each
// of 1 + 9 + 45; a third bag only fits beside two that leave it a node). Such
// a search is far from its budget.
func TestOptBenchAccommodate(t *testing.T) {
	cfg := OptBenchConfig{
		Shapes:          []string{"accommodate"},
		ShapeNodeCounts: map[string][]int{"accommodate": {2}},
		MinMeasure:      5 * time.Millisecond,
		MaxIters:        3,
	}
	rep, err := RunOptBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]uint64{5: 47, 9: 58}
	for _, p := range rep.Points {
		if p.Shape != "accommodate" || p.Nodes != 10 || p.Residents != 2 || p.BudgetHit {
			t.Fatalf("unexpected point: %+v", p)
		}
		if p.TrialsPerAccommodation != want[p.Choices] || !(p.NsPerAccommodation > 0) || p.Iters < 1 {
			t.Errorf("%d choices: %+v, want %d trials", p.Choices, p, want[p.Choices])
		}
	}
	if n := len(rep.Points); n != 2 && n != 4 {
		t.Fatalf("points = %d, want one per choice count and GOMAXPROCS setting", n)
	}
	if res := OptBenchResult(rep); !res.Passed() || len(res.Rows) != len(rep.Points) {
		t.Fatalf("result formatting broken: %+v", res)
	}
}

// TestOptBenchAccommodateBudgetHit measures beside ten residents, where bags
// of 5 choices are decided in 3 265 trials and bags of 9 run into the joint
// search's budget of 10 000: that point is flagged, and the accommodation it
// stops at still repeats exactly.
func TestOptBenchAccommodateBudgetHit(t *testing.T) {
	rep, err := RunOptBench(OptBenchConfig{
		Shapes:          []string{"accommodate"},
		ShapeNodeCounts: map[string][]int{"accommodate": {10}},
		MinMeasure:      time.Millisecond,
		MaxIters:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]uint64{5: 3265, 9: 10000}
	for _, p := range rep.Points {
		if p.TrialsPerAccommodation != want[p.Choices] || p.BudgetHit != (p.Choices == 9) {
			t.Errorf("%d choices: %+v, want %d trials and a budget hit only with 9", p.Choices, p, want[p.Choices])
		}
	}
}
