package experiments

import (
	"fmt"
	"math"
	"time"

	"harmony/internal/bag"
	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/procsim"
	"harmony/internal/rsl"
	"harmony/internal/simclock"
	"harmony/internal/trace"
)

// Figure4Config parameterizes the online-reconfiguration experiment.
type Figure4Config struct {
	// Nodes is the cluster size (paper: an 8-processor configuration).
	Nodes int
	// Jobs is how many instances of the parallel application arrive.
	Jobs int
	// ArrivalGapSeconds separates arrivals.
	ArrivalGapSeconds float64
	// HorizonSeconds ends the run.
	HorizonSeconds float64
	// TotalWork is the per-iteration bag size in reference seconds.
	TotalWork float64
	// Tasks divides each iteration.
	Tasks int
	// CommCoeff is the per-iteration communication cost coefficient: the
	// synchronization phase costs CommCoeff * workers^2 seconds, the
	// "communication requirements grow much faster than computation"
	// regime of Section 3.4. The default locates the single-job optimum at
	// five workers — the Figure 4b configuration the paper highlights.
	CommCoeff float64
	// Seed perturbs task sizes.
	Seed int64
}

// DefaultFigure4Config reproduces the paper's run.
func DefaultFigure4Config() Figure4Config {
	return Figure4Config{
		Nodes:             8,
		Jobs:              3,
		ArrivalGapSeconds: 300,
		HorizonSeconds:    900,
		TotalWork:         300,
		Tasks:             60,
		CommCoeff:         1.2,
		Seed:              1,
	}
}

// figure4RSL builds one job's bundle: every worker count 1..nodes with an
// explicit performance model derived from the same cost structure the
// simulated application exhibits.
func figure4RSL(job int, nodes int, totalWork, commCoeff float64) (string, error) {
	counts := make([]int, nodes)
	for i := range counts {
		counts[i] = i + 1
	}
	points, err := bag.PerfModel(totalWork, 1, commCoeff, counts)
	if err != nil {
		return "", err
	}
	values := ""
	for i := range counts {
		if i > 0 {
			values += " "
		}
		values += fmt.Sprintf("%d", counts[i])
	}
	return fmt.Sprintf(`
harmonyBundle Bag%d:%d parallelism {
	{workers
		{variable workerNodes {%s}}
		{node worker * {seconds {%g / workerNodes}} {memory 32} {replicate workerNodes} {exclusive 1}}
		{performance {%s}}
	}
}`, job, job, values, totalWork, bag.RSLPerformanceList(points)), nil
}

// Figure4Outcome carries the raw series.
type Figure4Outcome struct {
	// Recorder holds "job N workers" (parallelism per iteration start) and
	// "job N time" (iteration elapsed seconds) series.
	Recorder *trace.Recorder
	// FinalWorkers is each job's last-adopted parallelism.
	FinalWorkers []int
}

// RunFigure4 replays the paper's online reconfiguration run: instances of
// the variable-parallelism application arrive over time; Harmony shrinks
// running instances to accommodate newcomers, preferring near-equal
// partitions for average efficiency.
func RunFigure4(cfg Figure4Config) (*Result, error) {
	res, _, err := runFigure4(cfg)
	return res, err
}

// RunFigure4Outcome also returns raw series.
func RunFigure4Outcome(cfg Figure4Config) (*Result, *Figure4Outcome, error) {
	return runFigure4(cfg)
}

func runFigure4(cfg Figure4Config) (*Result, *Figure4Outcome, error) {
	if cfg.Jobs < 1 || cfg.Nodes < 1 {
		return nil, nil, fmt.Errorf("figure 4 needs jobs and nodes")
	}
	clock := simclock.New()
	defer clock.Stop()
	cl, err := cluster.NewSP2(cfg.Nodes)
	if err != nil {
		return nil, nil, err
	}
	// The joint (cross-product) optimizer reproduces Figure 4b's equal
	// partitions; the A2 ablation contrasts it with the greedy policy.
	ctrl, err := core.New(core.Config{Cluster: cl, Clock: clock, Exhaustive: true})
	if err != nil {
		return nil, nil, err
	}

	// One processor-sharing CPU per machine, shared by all applications.
	group, err := procsim.NewGroup(clock)
	if err != nil {
		return nil, nil, err
	}
	for _, h := range cl.Hosts() {
		if _, err := group.Add("cpu."+h, 1.0); err != nil {
			return nil, nil, err
		}
	}

	rec := trace.NewRecorder()
	outcome := &Figure4Outcome{Recorder: rec, FinalWorkers: make([]int, cfg.Jobs)}

	type jobState struct {
		job      int
		instance int
		app      *bag.App
		hosts    []string
	}
	jobs := make(map[int]*jobState) // by controller instance
	horizon := time.Duration(cfg.HorizonSeconds * float64(time.Second))

	// Reconfiguration events update each job's host set; the application
	// adopts it at its next iteration boundary (the bag's natural
	// granularity).
	if err := ctrl.Subscribe(func(ev core.Event) {
		js, ok := jobs[ev.Instance]
		if !ok {
			return
		}
		js.hosts = ev.Assignment.Hosts()
	}); err != nil {
		return nil, nil, err
	}

	var iterate func(js *jobState)
	iterate = func(js *jobState) {
		now := clock.Now()
		if now >= horizon {
			return
		}
		hosts := js.hosts
		if len(hosts) == 0 {
			return
		}
		w := len(hosts)
		outcome.FinalWorkers[js.job-1] = w
		_ = rec.Add(fmt.Sprintf("job %d workers", js.job), now, float64(w))
		cpus := make([]*procsim.Resource, 0, w)
		for _, h := range hosts {
			cpu := group.Get("cpu." + h)
			if cpu == nil {
				return
			}
			cpus = append(cpus, cpu)
		}
		err := js.app.RunIteration(cpus, func(r bag.IterationResult) {
			// Synchronization/communication phase after the bag drains.
			comm := time.Duration(cfg.CommCoeff * float64(w*w) * float64(time.Second))
			_, serr := clock.ScheduleAfter(comm, func(at time.Duration) {
				_ = rec.Add(fmt.Sprintf("job %d time", js.job), at, (r.Elapsed() + comm).Seconds())
				iterate(js)
			})
			if serr != nil {
				return
			}
		})
		if err != nil {
			_ = rec.Add("errors", now, 1)
		}
	}

	startJob := func(job int) error {
		src, err := figure4RSL(job, cfg.Nodes, cfg.TotalWork, cfg.CommCoeff)
		if err != nil {
			return err
		}
		bundles, _, err := rsl.DecodeScript(src)
		if err != nil {
			return err
		}
		app, err := bag.New(bag.Config{
			Clock:     clock,
			TotalWork: cfg.TotalWork,
			Tasks:     cfg.Tasks,
			TaskSkew:  0.5,
			Seed:      cfg.Seed + int64(job),
		})
		if err != nil {
			return err
		}
		inst, events, err := ctrl.Register(bundles[0])
		if err != nil {
			return err
		}
		js := &jobState{job: job, instance: inst, app: app}
		for _, ev := range events {
			if ev.Instance == inst {
				js.hosts = ev.Assignment.Hosts()
			}
		}
		jobs[inst] = js
		// Apply events that reconfigured existing jobs, then globally
		// rebalance (periodic re-evaluation would do the same).
		ctrl.Reevaluate()
		iterate(js)
		return nil
	}

	if err := startJob(1); err != nil {
		return nil, nil, err
	}
	gap := time.Duration(cfg.ArrivalGapSeconds * float64(time.Second))
	for j := 2; j <= cfg.Jobs; j++ {
		j := j
		if _, err := clock.ScheduleAt(gap*time.Duration(j-1), func(time.Duration) {
			if err := startJob(j); err != nil {
				_ = rec.Add("errors", clock.Now(), 1)
			}
		}); err != nil {
			return nil, nil, err
		}
	}

	clock.Run(horizon + gap)
	return buildFigure4Result(cfg, rec, outcome, gap)
}

func buildFigure4Result(cfg Figure4Config, rec *trace.Recorder, outcome *Figure4Outcome, gap time.Duration) (*Result, *Figure4Outcome, error) {
	res := &Result{ID: "F4", Title: "Figure 4 — online reconfiguration of a parallel application"}
	if rec.Len("errors") > 0 {
		return nil, nil, fmt.Errorf("figure 4: a job failed")
	}

	var workerNames, timeNames []string
	for j := 1; j <= cfg.Jobs; j++ {
		workerNames = append(workerNames, fmt.Sprintf("job %d workers", j))
		timeNames = append(timeNames, fmt.Sprintf("job %d time", j))
	}
	boundaries := []time.Duration{0}
	for j := 1; j <= cfg.Jobs; j++ {
		boundaries = append(boundaries, gap*time.Duration(j))
	}
	rows, err := rec.PhaseTable(workerNames, boundaries)
	if err != nil {
		return nil, nil, err
	}
	res.Rows = append(res.Rows, "(b) configurations chosen (mean workers per window):")
	for _, line := range splitLines(trace.FormatPhaseTable("", workerNames, rows)) {
		if line != "" {
			res.Rows = append(res.Rows, line)
		}
	}
	trows, err := rec.PhaseTable(timeNames, boundaries)
	if err != nil {
		return nil, nil, err
	}
	res.Rows = append(res.Rows, "(a) iteration times (mean seconds per window):")
	for _, line := range splitLines(trace.FormatPhaseTable("", timeNames, trows)) {
		if line != "" {
			res.Rows = append(res.Rows, line)
		}
	}
	res.Rows = append(res.Rows, fmt.Sprintf("final partitions: %v", outcome.FinalWorkers))

	// Shape checks.
	firstWorkers := rec.Series("job 1 workers")
	res.Checks = append(res.Checks, check(
		"single job gets five nodes, not six or eight (communication knee)",
		len(firstWorkers) > 0 && firstWorkers[0].Value == 5,
		"initial workers = %v", seriesFirst(firstWorkers)))

	// After the second arrival, both jobs settle on equal halves.
	if cfg.Jobs >= 2 {
		w1 := lastValueBefore(rec, "job 1 workers", 2*gap)
		w2 := lastValueBefore(rec, "job 2 workers", 2*gap)
		res.Checks = append(res.Checks, check(
			"two jobs settle on equal partitions (4/4)",
			w1 == 4 && w2 == 4,
			"job1=%g job2=%g before %v", w1, w2, 2*gap))
	}
	if cfg.Jobs >= 3 {
		final := outcome.FinalWorkers
		sum, minW, maxW := 0, math.MaxInt32, 0
		for _, w := range final {
			sum += w
			if w < minW {
				minW = w
			}
			if w > maxW {
				maxW = w
			}
		}
		res.Checks = append(res.Checks, check(
			"three jobs settle on near-equal partitions filling the machine",
			sum == cfg.Nodes && maxW-minW <= 1,
			"partitions=%v (sum %d of %d nodes)", final, sum, cfg.Nodes))
	}

	// Measured first-iteration time matches the exported model at w=5.
	times := rec.Series("job 1 time")
	model, err := bag.PerfModel(cfg.TotalWork, 1, cfg.CommCoeff, []int{5})
	if err != nil {
		return nil, nil, err
	}
	if len(times) > 0 {
		ratio := times[0].Value / model[0].Seconds
		res.Checks = append(res.Checks, check(
			"measured iteration time tracks the exported performance model",
			ratio > 0.85 && ratio < 1.5,
			"measured=%.1fs model=%.1fs ratio=%.2f", times[0].Value, model[0].Seconds, ratio))
	}
	return res, outcome, nil
}

func seriesFirst(pts []trace.Point) float64 {
	if len(pts) == 0 {
		return math.NaN()
	}
	return pts[0].Value
}

func lastValueBefore(rec *trace.Recorder, name string, cutoff time.Duration) float64 {
	pts := rec.SortedByTime(name)
	v := math.NaN()
	for _, p := range pts {
		if p.At < cutoff {
			v = p.Value
		}
	}
	return v
}
