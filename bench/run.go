package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// defaultSetupRepeats is how many deployments one untraced run sets up and
// measures.
const defaultSetupRepeats = 3

// RunConfig selects one benchmark run.
type RunConfig struct {
	Workload Workload
	Seed     int64
	Seconds  float64
	Trace    bool
	// Harmonyd is the built daemon; WorkDir holds the run's temp directory.
	Harmonyd string
	WorkDir  string
	// TraceOut, when set, receives the traced run's spans as JSON.
	TraceOut string
	// SetupRepeats overrides defaultSetupRepeats and Launch replaces the
	// harmonyd child processes; both are for the harness's own tests.
	SetupRepeats int
	Launch       func(dir string, w Workload) (*Deployment, error)
}

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one run's outcome. Counts holds sample counts by metric name.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	Counts    map[string]int    `json:"counts,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
	Env       *Env              `json:"env,omitempty"`
}

func (r *Result) set(name, unit string, value float64, n int) {
	r.Metrics[name] = Metric{Value: value, Unit: unit}
	if n > 0 {
		r.Counts[name] = n
	}
}

// absorb folds a window's or the oracle's attempt and failure counts in.
func (r *Result) absorb(attempted, failed int, notes []string) {
	r.Attempted += attempted
	r.Failed += failed
	for _, n := range notes {
		if len(r.Notes) < 40 {
			r.Notes = append(r.Notes, n)
		}
	}
}

// live is one deployment with its populated session.
type live struct {
	dep *Deployment
	s   *Session
	// unwatch detaches the deployment from the run's context.
	unwatch func() bool
}

func (l *live) Close() {
	l.unwatch()
	if l.s != nil {
		l.s.Close()
	}
	l.dep.Stop()
}

// setUp launches the children, admits the residents and runs the warm-up,
// and reports how long that took from process launch.
func setUp(ctx context.Context, cfg RunConfig, in *Inputs, dir string) (*live, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	launch := cfg.Launch
	if launch == nil {
		launch = func(dir string, w Workload) (*Deployment, error) { return startDeployment(cfg.Harmonyd, dir, w) }
	}
	dep, err := launch(dir, in.Workload)
	if err != nil {
		return nil, 0, err
	}
	// The client library's calls take no context. Killing the children when
	// the run is cancelled or out of time breaks every connection, which
	// returns every blocked call.
	l := &live{dep: dep, unwatch: context.AfterFunc(ctx, dep.Stop)}
	first := 0
	if len(dep.members) > 1 {
		// Dial a follower first, so the first call meets a leader redirect.
		leader, err := dep.waitLeader(clusterWait, -1)
		if err != nil {
			l.Close()
			return nil, 0, err
		}
		first = (leader + 1) % len(dep.members)
	}
	if l.s, err = openSession(ctx, in, dep, first); err != nil {
		l.Close()
		return nil, 0, err
	}
	if err := l.s.warmup(ctx, in.Workload.Warmup); err != nil {
		l.Close()
		return nil, 0, err
	}
	return l, time.Since(t0), nil
}

// run executes one benchmark run in a fresh temp directory under WorkDir and
// removes it on every path.
func run(ctx context.Context, cfg RunConfig) (*Result, error) {
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.WorkDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res := &Result{
		Workload: cfg.Workload.Name, Seed: cfg.Seed, Trace: cfg.Trace,
		Metrics: make(map[string]Metric), Counts: make(map[string]int),
		Env: readEnv(dir),
	}
	in := Generate(cfg.Workload, cfg.Seed)
	if cfg.Trace {
		// The traced run is one deployment from end to end; the lost-outcome
		// race restarts it whole.
		for attempt := 0; ; attempt++ {
			res.Metrics, res.Counts = make(map[string]Metric), make(map[string]int)
			res.Attempted, res.Failed = 0, 0
			err = runTraced(ctx, cfg, in, filepath.Join(dir, fmt.Sprintf("traced-%d", attempt)), res)
			if !isLostOutcome(err) || attempt == lostOutcomeRetries {
				break
			}
			res.Notes = append(res.Notes, fmt.Sprintf("traced run started again: %v", err))
		}
	} else {
		err = runUntraced(ctx, cfg, in, dir, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// lostOutcomeRetries bounds how often one deployment is set up again after
// harmonyd's lost-outcome race (see errLostOutcome) struck it.
const lostOutcomeRetries = 3

// runUntraced measures the end-to-end metrics. It sets the deployment up
// several times and measures an equal share of the window on each. A run
// reports each window metric's best value over its deployments — lowest
// latency and cost, highest rate: on a shared machine interference from
// other tenants only ever slows a window down, by a fifth for minutes at a
// time on the reference box, so the best of several windows spread over the
// run repeats better than their median does. setup_s and server_rss_mb are
// medians over the deployments. Every deployment is checked against the
// oracle.
func runUntraced(ctx context.Context, cfg RunConfig, in *Inputs, dir string, res *Result) error {
	repeats := cfg.SetupRepeats
	if repeats <= 0 {
		repeats = defaultSetupRepeats
	}
	share := time.Duration(cfg.Seconds * float64(time.Second) / float64(repeats))
	var setups, rss []float64
	windows := make(map[string][]float64)
	cycles := 0
	for i := 0; i < repeats; i++ {
		var part *deploymentRun
		for attempt := 0; ; attempt++ {
			var err error
			part, err = measureDeployment(ctx, cfg, in, filepath.Join(dir, fmt.Sprintf("setup-%d-%d", i, attempt)), share)
			if err == nil {
				break
			}
			if !isLostOutcome(err) || attempt == lostOutcomeRetries {
				return err
			}
			res.Notes = append(res.Notes, fmt.Sprintf("deployment %d set up again: %v", i, err))
		}
		setups = append(setups, part.setup.Seconds())
		rss = append(rss, part.rssMB)
		res.absorb(part.window.attempted, part.window.failed, part.window.failures)
		res.absorb(part.verdict.attempted, part.verdict.failed, part.verdict.notes)
		if part.window.cycles == 0 {
			return fmt.Errorf("no writer cycle completed in %v", share)
		}
		cycles += part.window.cycles
		for name, v := range windowMetrics(part.window) {
			windows[name] = append(windows[name], v)
		}
	}
	for _, m := range endToEndMetrics {
		switch v := windows[m.Name]; {
		case m.Name == "setup_s":
			res.set(m.Name, m.Unit, median(setups), len(setups))
		case m.Name == "server_rss_mb":
			res.set(m.Name, m.Unit, median(rss), len(rss))
		case m.Better == "higher":
			res.set(m.Name, m.Unit, slices.Max(v), cycles)
		default:
			res.set(m.Name, m.Unit, slices.Min(v), cycles)
		}
	}
	return nil
}

// deploymentRun is what one deployment contributed to an untraced run.
type deploymentRun struct {
	setup   time.Duration
	window  *windowStats
	rssMB   float64
	verdict verdict
}

// measureDeployment sets one deployment up, measures one window on it, takes
// it down and checks what it did against the oracle.
func measureDeployment(ctx context.Context, cfg RunConfig, in *Inputs, dir string, d time.Duration) (*deploymentRun, error) {
	l, took, err := setUp(ctx, cfg, in, dir)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	out := &deploymentRun{setup: took}
	if out.window, err = l.s.window(ctx, d); err != nil {
		return nil, err
	}
	if out.rssMB, err = l.dep.RSSMB(); err != nil {
		return nil, err
	}
	finals := collectFinal(l.dep, &out.verdict)
	a, f, notes := l.s.residentFailures()
	out.verdict.attempted += a
	out.verdict.failed += f
	out.verdict.notes = append(out.verdict.notes, notes...)
	ops, residents := l.s.ops, len(in.Residents)
	l.Close()

	sh, err := newShadow(in.Workload, 0, nil)
	if err != nil {
		return nil, err
	}
	defer sh.Close()
	if err := replayOps(sh, ops, -residents, &out.verdict); err != nil {
		return nil, err
	}
	for _, m := range finals {
		compareStatus(m.who, m.apps, m.objective, sh, &out.verdict)
	}
	return out, nil
}

// windowMetrics derives one window's client-visible metrics.
func windowMetrics(st *windowStats) map[string]float64 {
	return map[string]float64{
		"cycles_per_s":            float64(st.cycles) / st.seconds,
		"admit_ms_p50":            median(st.admit),
		"end_ms_p50":              median(st.end),
		"heartbeat_ms_p50":        median(st.heartbeat),
		"status_ms_p50":           median(st.status),
		"server_cpu_ms_per_cycle": st.cpuSeconds * 1000 / float64(st.cycles),
	}
}
