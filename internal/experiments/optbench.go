package experiments

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/rsl"
	"harmony/internal/simclock"
)

// This file benchmarks the controller's evaluation hot path (the greedy
// candidate evaluator of internal/core) on workloads shaped like the paper's
// Figure 4 (variable-parallelism jobs on an SP-2) and Figure 7
// (query-shipping/data-shipping database clients), at several cluster sizes,
// at GOMAXPROCS 1 and at the process's own GOMAXPROCS. It measures a full
// re-evaluation pass — every registered application's candidate set scored
// under the system objective — and reports ns/pass, candidate evaluations per
// second, predictions per pass and the share of candidates pruned. A third
// shape, accommodate, measures the joint search instead: one arrival on a
// machine its residents fill, in ns and in trials per accommodation.
// cmd/hbench -json serializes the report (BENCH_29.json is the committed
// baseline) and scripts/bench.sh gates CI on it.

// OptBenchConfig parameterizes the hot-path benchmark.
type OptBenchConfig struct {
	// Shapes selects workload shapes: "fig4", "fig7", "accommodate".
	Shapes []string
	// NodeCounts are the cluster sizes to measure fig4 and fig7 at.
	NodeCounts []int
	// ShapeNodeCounts are further sizes measured for one shape only (fig7
	// registers a client per node, each arrival re-evaluating every resident,
	// so it cannot follow fig4 to the largest sizes). The accommodate shape
	// has no others, and its sizes are resident counts: the machine is five
	// nodes per resident, which the residents fill.
	ShapeNodeCounts map[string][]int
	// MinMeasure is the minimum wall-clock per measurement.
	MinMeasure time.Duration
	// MaxIters caps re-evaluation passes per measurement.
	MaxIters int
}

// DefaultOptBenchConfig measures both shapes at the sizes the issue calls
// for.
func DefaultOptBenchConfig() OptBenchConfig {
	return OptBenchConfig{
		Shapes:     []string{"fig4", "fig7", "accommodate"},
		NodeCounts: []int{8, 64, 256},
		MinMeasure: 200 * time.Millisecond,
		MaxIters:   100,
	}
}

// OptBenchPoint is one measured (shape, cluster size) sample.
type OptBenchPoint struct {
	Shape string `json:"shape"`
	Nodes int    `json:"nodes"`
	// Procs is the GOMAXPROCS the point was measured at.
	Procs          int     `json:"go_max_procs"`
	Apps           int     `json:"apps"`
	ChoicesPerPass int     `json:"choices_per_pass"`
	NsPerReeval    float64 `json:"ns_per_reeval"`
	EvalsPerSec    float64 `json:"evals_per_sec"`
	// PredictionsPerPass is core.Controller.Predictions over one pass; it
	// depends on the workload alone and repeats exactly.
	PredictionsPerPass uint64 `json:"predictions_per_pass,omitempty"`
	// The Prune* counters are deltas over the measurement window, so points
	// are comparable across runs of different lengths only via their
	// per-iteration ratios.
	PruneConsidered  uint64 `json:"prune_considered"`
	PruneUnreachable uint64 `json:"prune_unreachable"`
	Iters            int    `json:"iters"`

	// An accommodate point has these in place of everything from
	// ChoicesPerPass on: Residents bags of Choices choices each (workerNodes
	// 1..Choices) fill the machine, and one more arrives. TrialsPerAccommodation
	// is the joint search's own count (core.Controller.JointTrials) and repeats
	// exactly; BudgetHit marks a point whose search stopped at its trial budget
	// (and then placed the arrival on the best combination it had found, or
	// turned it away).
	Residents              int     `json:"residents,omitempty"`
	Choices                int     `json:"choices,omitempty"`
	NsPerAccommodation     float64 `json:"ns_per_accommodation,omitempty"`
	TrialsPerAccommodation uint64  `json:"trials_per_accommodation,omitempty"`
	BudgetHit              bool    `json:"budget_hit,omitempty"`
}

// OptBenchReport is the machine-readable benchmark output (BENCH_29.json).
// GoMaxProcs is the process's setting, the larger of the two every point is
// measured at.
type OptBenchReport struct {
	Bench      string `json:"bench"`
	GoMaxProcs int    `json:"go_max_procs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// Notes is commentary kept with a committed baseline: what the numbers
	// were measured for and what they showed. A fresh run has none.
	Notes []string `json:"notes,omitempty"`
	// Parent holds, in a committed baseline, points measured on the parent
	// commit: what the change's points are read against.
	Parent []OptBenchPoint `json:"parent,omitempty"`
	Points []OptBenchPoint `json:"points"`
}

// EnvMatches reports whether two reports were measured in comparable
// environments; regression gating only makes sense when they were.
func (r *OptBenchReport) EnvMatches(o *OptBenchReport) bool {
	return o != nil && r.GoMaxProcs == o.GoMaxProcs && r.GOOS == o.GOOS && r.GOARCH == o.GOARCH
}

// optBenchFig7RSL is the Figure 3/7 client bundle with a granularity tag so
// that building large workloads stays quadratic: during registration every
// already-placed client is rate-limited out of re-evaluation, and the
// measured passes advance the virtual clock past the limit so every client
// is evaluated again.
func optBenchFig7RSL(instance int, clientHost string) string {
	return fmt.Sprintf(`
harmonyBundle DBclient:%d where {
	{QS
		{node server dbserver {seconds 5} {memory 20}}
		{node client %s {os linux} {seconds 1} {memory 2}}
		{link client server 2}
		{granularity 3600}
	}
	{DS
		{node server dbserver {seconds 1} {memory 20}}
		{node client %s {os linux} {memory >=17} {seconds 10}}
		{link client server {44 + (client.memory > 24 ? 24 : client.memory) - 17}}
		{granularity 3600}
	}
}`, instance, clientHost, clientHost)
}

// buildOptBenchController constructs one fully-registered workload.
func buildOptBenchController(shape string, nodes int) (*core.Controller, *simclock.Clock, error) {
	clock := simclock.New()
	fail := func(err error) (*core.Controller, *simclock.Clock, error) {
		clock.Stop()
		return nil, nil, err
	}
	switch shape {
	case "fig4":
		cl, err := cluster.NewSP2(nodes)
		if err != nil {
			return fail(err)
		}
		ctrl, err := core.New(core.Config{Cluster: cl, Clock: clock})
		if err != nil {
			return fail(err)
		}
		for job := 1; job <= 3; job++ {
			src, err := figure4RSL(job, nodes, 300, 1.2)
			if err != nil {
				return fail(err)
			}
			bundles, _, err := rsl.DecodeScript(src)
			if err != nil {
				return fail(err)
			}
			if _, _, err := ctrl.Register(bundles[0]); err != nil {
				return fail(fmt.Errorf("optbench fig4 register job %d: %w", job, err))
			}
		}
		return ctrl, clock, nil
	case "fig7":
		// The server's buffer pool scales with the client population so the
		// bench measures evaluation cost, not admission-control fallout (a
		// client that cannot fit would trigger the joint search).
		decls := []*rsl.NodeDecl{{Hostname: "dbserver", Speed: 1, MemoryMB: 64 + 24*float64(nodes), OS: "linux", CPUs: 1}}
		for i := 1; i < nodes; i++ {
			decls = append(decls, &rsl.NodeDecl{
				Hostname: fmt.Sprintf("dbclient%03d", i), Speed: 1, MemoryMB: 64, OS: "linux", CPUs: 1,
			})
		}
		cl, err := cluster.New(cluster.Config{}, decls)
		if err != nil {
			return fail(err)
		}
		ctrl, err := core.New(core.Config{Cluster: cl, Clock: clock})
		if err != nil {
			return fail(err)
		}
		for i := 1; i < nodes; i++ {
			src := optBenchFig7RSL(i, fmt.Sprintf("dbclient%03d", i))
			bundles, _, err := rsl.DecodeScript(src)
			if err != nil {
				return fail(err)
			}
			if _, _, err := ctrl.Register(bundles[0]); err != nil {
				return fail(fmt.Errorf("optbench fig7 register client %d: %w", i, err))
			}
		}
		return ctrl, clock, nil
	default:
		return fail(fmt.Errorf("optbench: unknown shape %q", shape))
	}
}

// measureReevals times full re-evaluation passes. Each pass advances the
// virtual clock past every granularity limit so no application is gated.
// The reported ns/pass is the minimum over three measurement blocks — the
// noise-robust estimator (scheduling interference only ever slows a block
// down), which keeps the CI regression gate's tolerance meaningful. Every
// measured pass makes the same predictions; predictions is how many.
func measureReevals(ctrl *core.Controller, clock *simclock.Clock, minDur time.Duration, maxIters int) (nsPerOp float64, iters int, predictions uint64, err error) {
	// Warm up to steady state: once choices stop changing, every further
	// pass performs identical work.
	for i := 0; i < 5; i++ {
		clock.AdvanceTo(clock.Now() + 4000*time.Second)
		if len(ctrl.Reevaluate()) == 0 {
			break
		}
	}
	best := math.Inf(1)
	made := ctrl.Predictions()
	for block := 0; block < 3; block++ {
		start := time.Now()
		n := 0
		for n == 0 || (time.Since(start) < minDur && n < maxIters) {
			clock.AdvanceTo(clock.Now() + 4000*time.Second)
			ctrl.Reevaluate()
			n++
		}
		if per := float64(time.Since(start).Nanoseconds()) / float64(n); per < best {
			best = per
		}
		iters += n
	}
	made = ctrl.Predictions() - made
	if predictions = made / uint64(iters); made != predictions*uint64(iters) {
		return 0, 0, 0, fmt.Errorf("%d predictions over %d passes: the count does not repeat", made, iters)
	}
	return best, iters, predictions, nil
}

// RunOptBench measures every configured (shape, nodes) point.
func RunOptBench(cfg OptBenchConfig) (*OptBenchReport, error) {
	if len(cfg.Shapes) == 0 || len(cfg.NodeCounts)+len(cfg.ShapeNodeCounts) == 0 {
		return nil, fmt.Errorf("optbench: config selects no workloads")
	}
	for shape := range cfg.ShapeNodeCounts {
		if !slices.Contains(cfg.Shapes, shape) {
			return nil, fmt.Errorf("optbench: sizes given for unknown shape %q", shape)
		}
	}
	if cfg.MinMeasure <= 0 {
		cfg.MinMeasure = 200 * time.Millisecond
	}
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 100
	}
	maxProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(maxProcs)
	report := &OptBenchReport{
		Bench:      "optimizer-hot-path",
		GoMaxProcs: maxProcs,
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	procsList := []int{1}
	if maxProcs > 1 {
		procsList = append(procsList, maxProcs)
	}
	for _, shape := range cfg.Shapes {
		if shape == "accommodate" {
			continue // measured last, below
		}
		for _, nodes := range slices.Concat(cfg.NodeCounts, cfg.ShapeNodeCounts[shape]) {
			for _, procs := range procsList {
				runtime.GOMAXPROCS(procs)
				pt, err := runOptBenchPoint(shape, nodes, cfg.MinMeasure, cfg.MaxIters)
				if err != nil {
					return nil, err
				}
				pt.Procs = procs
				report.Points = append(report.Points, *pt)
			}
		}
	}
	for _, residents := range cfg.ShapeNodeCounts["accommodate"] {
		for _, choices := range accommodateChoices {
			for _, procs := range procsList {
				runtime.GOMAXPROCS(procs)
				pt, err := runAccommodatePoint(residents, choices, cfg)
				if err != nil {
					return nil, err
				}
				pt.Procs = procs
				report.Points = append(report.Points, *pt)
			}
		}
	}
	return report, nil
}

// accommodateChoices are the choice counts every accommodate point is measured
// with: a bag may run on 1..5 or on 1..9 workers.
var accommodateChoices = []int{5, 9}

// runAccommodatePoint measures one arrival on a full machine: residents
// Figure-4 bags, each on the five exclusive workers that are its optimum, hold
// all 5 x residents nodes, so the arrival fits nowhere and Register searches
// the cross product of everybody's choices for the combination that makes
// room. The departure that follows (not timed) lets the residents grow back,
// so every accommodation does the same work. The time is the minimum over
// three blocks, as in measureReevals; a point whose first accommodation alone
// takes longer than a block is measured by that one.
func runAccommodatePoint(residents, choices int, cfg OptBenchConfig) (*OptBenchPoint, error) {
	nodes := 5 * residents
	pt := &OptBenchPoint{Shape: "accommodate", Nodes: nodes, Apps: residents, Residents: residents, Choices: choices}
	cl, err := cluster.NewSP2(nodes)
	if err != nil {
		return nil, err
	}
	clock := simclock.New()
	defer clock.Stop()
	ctrl, err := core.New(core.Config{Cluster: cl, Clock: clock})
	if err != nil {
		return nil, err
	}
	bag := func(job int, work float64) (*rsl.BundleSpec, error) {
		src, err := figure4RSL(job, choices, work, 1.2)
		if err != nil {
			return nil, err
		}
		bundles, _, err := rsl.DecodeScript(src)
		if err != nil {
			return nil, err
		}
		return bundles[0], nil
	}
	for job := 1; job <= residents; job++ {
		b, err := bag(job, 300)
		if err == nil {
			_, _, err = ctrl.Register(b)
		}
		if err != nil {
			return nil, fmt.Errorf("optbench accommodate register job %d: %w", job, err)
		}
	}
	arrival, err := bag(residents+1, 310)
	if err != nil {
		return nil, err
	}
	// An arrival turned away at the budget left the state as it found it, so
	// the next accommodation repeats its work as one that was placed does.
	accommodate := func() (time.Duration, error) {
		start := time.Now()
		inst, _, err := ctrl.Register(arrival)
		took := time.Since(start)
		switch {
		case err == nil:
			_, err = ctrl.Unregister(inst)
		case errors.Is(err, core.ErrSearchBudget):
			err = nil
		}
		return took, err
	}

	trials, hits := ctrl.JointTrials(), ctrl.JointBudgetHits()
	took, err := accommodate()
	if err != nil {
		return nil, fmt.Errorf("optbench accommodate %dx%d: %w", residents, choices, err)
	}
	pt.TrialsPerAccommodation = ctrl.JointTrials() - trials
	pt.BudgetHit = ctrl.JointBudgetHits() > hits
	pt.NsPerAccommodation, pt.Iters = float64(took.Nanoseconds()), 1
	if took >= cfg.MinMeasure {
		return pt, nil
	}
	pt.Iters = 0
	for block := 0; block < 3; block++ {
		var total time.Duration
		n := 0
		for n == 0 || (total < cfg.MinMeasure && n < cfg.MaxIters) {
			took, err := accommodate()
			if err != nil {
				return nil, fmt.Errorf("optbench accommodate %dx%d: %w", residents, choices, err)
			}
			total += took
			n++
		}
		if per := float64(total.Nanoseconds()) / float64(n); block == 0 || per < pt.NsPerAccommodation {
			pt.NsPerAccommodation = per
		}
		pt.Iters += n
	}
	if got := ctrl.JointTrials() - trials; got != uint64(pt.Iters+1)*pt.TrialsPerAccommodation {
		return nil, fmt.Errorf("optbench accommodate %dx%d: %d trials over %d accommodations, the first took %d: the count does not repeat",
			residents, choices, got, pt.Iters+1, pt.TrialsPerAccommodation)
	}
	return pt, nil
}

func runOptBenchPoint(shape string, nodes int, minDur time.Duration, maxIters int) (*OptBenchPoint, error) {
	ctrl, clock, err := buildOptBenchController(shape, nodes)
	if err != nil {
		return nil, err
	}
	defer clock.Stop()

	evalsPerPass, _ := ctrl.EvaluationCount()
	pt := &OptBenchPoint{Shape: shape, Nodes: nodes, Apps: len(ctrl.Apps()), ChoicesPerPass: evalsPerPass}
	p0 := ctrl.PruneStats()
	pt.NsPerReeval, pt.Iters, pt.PredictionsPerPass, err = measureReevals(ctrl, clock, minDur, maxIters)
	if err != nil {
		return nil, fmt.Errorf("optbench %s/%d: %w", shape, nodes, err)
	}
	p1 := ctrl.PruneStats()
	pt.PruneConsidered = p1.Considered - p0.Considered
	pt.PruneUnreachable = p1.Unreachable - p0.Unreachable
	if pt.NsPerReeval > 0 {
		pt.EvalsPerSec = float64(evalsPerPass) / (pt.NsPerReeval / 1e9)
	}
	return pt, nil
}

// OptBenchResult wraps a report in the experiments result format for
// terminal output.
func OptBenchResult(report *OptBenchReport) *Result {
	res := &Result{ID: "B3", Title: "optimizer hot path: greedy passes and joint accommodations"}
	for _, p := range report.Points {
		if p.Shape == "accommodate" {
			took := fmt.Sprintf("%.3fms trials=%d ns/trial=%.0f", p.NsPerAccommodation/1e6, p.TrialsPerAccommodation,
				p.NsPerAccommodation/float64(p.TrialsPerAccommodation))
			if p.BudgetHit {
				took += " (budget hit)"
			}
			res.Rows = append(res.Rows, fmt.Sprintf("%-5s n=%-4d procs=%-2d residents=%d choices=%d accommodation=%s",
				"accom", p.Nodes, p.Procs, p.Residents, p.Choices, took))
			continue
		}
		prunedPct := 0.0
		if p.PruneConsidered > 0 {
			prunedPct = 100 * float64(p.PruneUnreachable) / float64(p.PruneConsidered)
		}
		res.Rows = append(res.Rows, fmt.Sprintf(
			"%-5s n=%-4d procs=%-2d apps=%-4d choices/pass=%-5d pass=%.2fms evals/s=%.0f predictions/pass=%d pruned=%.0f%%",
			p.Shape, p.Nodes, p.Procs, p.Apps, p.ChoicesPerPass,
			p.NsPerReeval/1e6, p.EvalsPerSec, p.PredictionsPerPass, prunedPct))
	}
	allPositive := true
	for _, p := range report.Points {
		if p.Shape == "accommodate" {
			allPositive = allPositive && p.NsPerAccommodation > 0 && p.TrialsPerAccommodation > 0
			continue
		}
		if !(p.EvalsPerSec > 0) {
			allPositive = false
		}
	}
	res.Checks = append(res.Checks,
		check("every point measured a positive evaluation rate", allPositive,
			"%d points, GOMAXPROCS=%d", len(report.Points), report.GoMaxProcs))
	return res
}
