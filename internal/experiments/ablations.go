package experiments

import (
	"fmt"
	"time"

	"harmony/internal/bag"
	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/rsl"
	"harmony/internal/simclock"
)

// AblationFrictionConfig parameterizes the frictional-cost ablation.
type AblationFrictionConfig struct {
	// Cycles is how many times the background load toggles on and off.
	Cycles int
	// CycleSeconds is the period of one load toggle.
	CycleSeconds float64
	// Friction is the switching cost (virtual seconds) declared by the
	// adaptive application.
	Friction float64
}

// DefaultAblationFrictionConfig flaps the load six times.
func DefaultAblationFrictionConfig() AblationFrictionConfig {
	return AblationFrictionConfig{Cycles: 6, CycleSeconds: 40, Friction: 80}
}

// ablationAppRSL is a two-option application: run on the fast machine
// (best when idle) or retreat to the slow machine (best when the fast
// machine is loaded). The friction tag is the knob under test.
func ablationAppRSL(friction float64) string {
	return fmt.Sprintf(`
harmonyBundle Adapt:1 placement {
	{fast
		{node n fastbox {seconds 100} {memory 8}}
		{friction %g}
	}
	{slow
		{node n slowbox {seconds 120} {memory 8}}
		{friction %g}
	}
}`, friction, friction)
}

// ablationLoadRSL is the flapping background job: two processes pinned to
// the fast machine.
const ablationLoadRSL = `
harmonyBundle Load:1 pin {
	{only
		{node a fastbox {seconds 400} {memory 8}}
		{node b fastbox {seconds 400} {memory 8}}
	}
}`

// RunAblationFriction runs the same oscillating-load scenario twice — with
// the frictional cost honored and ignored — and compares how often the
// adaptive application is reconfigured. The paper argues the frictional
// cost function lets Harmony "evaluate if a tuning option is worth the
// effort required"; without it the optimizer chases every transient.
func RunAblationFriction(cfg AblationFrictionConfig) (*Result, error) {
	res := &Result{ID: "A1", Title: "Ablation — frictional switching cost on/off"}
	type outcome struct {
		switches int
	}
	run := func(ignoreFriction bool) (*outcome, error) {
		clock := simclock.New()
		defer clock.Stop()
		decls := []*rsl.NodeDecl{
			{Hostname: "fastbox", Speed: 2, MemoryMB: 64, OS: "linux", CPUs: 1},
			{Hostname: "slowbox", Speed: 1, MemoryMB: 64, OS: "linux", CPUs: 1},
		}
		cl, err := cluster.New(cluster.Config{}, decls)
		if err != nil {
			return nil, err
		}
		ctrl, err := core.New(core.Config{Cluster: cl, Clock: clock, IgnoreFriction: ignoreFriction})
		if err != nil {
			return nil, err
		}
		bundles, _, err := rsl.DecodeScript(ablationAppRSL(cfg.Friction))
		if err != nil {
			return nil, err
		}
		inst, _, err := ctrl.Register(bundles[0])
		if err != nil {
			return nil, err
		}
		loadBundles, _, err := rsl.DecodeScript(ablationLoadRSL)
		if err != nil {
			return nil, err
		}
		cycle := time.Duration(cfg.CycleSeconds * float64(time.Second))
		for c := 0; c < cfg.Cycles; c++ {
			clock.AdvanceTo(cycle * time.Duration(2*c+1))
			loadInst, _, err := ctrl.Register(loadBundles[0])
			if err != nil {
				return nil, err
			}
			clock.AdvanceTo(cycle * time.Duration(2*c+2))
			if _, err := ctrl.Unregister(loadInst); err != nil {
				return nil, err
			}
		}
		for _, snap := range ctrl.Apps() {
			if snap.Instance == inst {
				return &outcome{switches: snap.Switches}, nil
			}
		}
		return nil, fmt.Errorf("adaptive app vanished")
	}

	withFriction, err := run(false)
	if err != nil {
		return nil, err
	}
	withoutFriction, err := run(true)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows,
		fmt.Sprintf("load toggles: %d (period %gs), declared friction %g s", cfg.Cycles, cfg.CycleSeconds, cfg.Friction),
		fmt.Sprintf("reconfigurations with friction honored: %d", withFriction.switches),
		fmt.Sprintf("reconfigurations with friction ignored: %d", withoutFriction.switches))
	res.Checks = append(res.Checks,
		check("friction suppresses oscillation under flapping load",
			withFriction.switches < withoutFriction.switches,
			"with=%d without=%d", withFriction.switches, withoutFriction.switches),
		check("frictionless controller chases every transient",
			withoutFriction.switches >= cfg.Cycles,
			"switches=%d toggles=%d", withoutFriction.switches, cfg.Cycles))
	return res, nil
}

// RunAblationSearch contrasts the paper's greedy one-bundle-at-a-time
// policy (Section 4.3: "a simple form of greedy optimization that will not
// necessarily produce a globally optimal value") with the exhaustive
// cross-product search, on the Figure 4 two-job workload.
func RunAblationSearch() (*Result, error) {
	res := &Result{ID: "A2", Title: "Ablation — greedy vs exhaustive option search"}
	cfg := DefaultFigure4Config()
	run := func(exhaustive bool) (*core.Controller, func(), error) {
		clock := simclock.New()
		cl, err := cluster.NewSP2(cfg.Nodes)
		if err != nil {
			clock.Stop()
			return nil, nil, err
		}
		ctrl, err := core.New(core.Config{Cluster: cl, Clock: clock, Exhaustive: exhaustive})
		if err != nil {
			clock.Stop()
			return nil, nil, err
		}
		cleanup := clock.Stop
		for j := 1; j <= 2; j++ {
			src, err := figure4RSL(j, cfg.Nodes, cfg.TotalWork, cfg.CommCoeff)
			if err != nil {
				cleanup()
				return nil, nil, err
			}
			bundles, _, err := rsl.DecodeScript(src)
			if err != nil {
				cleanup()
				return nil, nil, err
			}
			if _, _, err := ctrl.Register(bundles[0]); err != nil {
				cleanup()
				return nil, nil, err
			}
		}
		ctrl.Reevaluate()
		return ctrl, cleanup, nil
	}

	greedy, gClean, err := run(false)
	if err != nil {
		return nil, err
	}
	defer gClean()
	exhaustive, eClean, err := run(true)
	if err != nil {
		return nil, err
	}
	defer eClean()

	partitions := func(c *core.Controller) []float64 {
		var out []float64
		for _, s := range c.Apps() {
			out = append(out, s.Choice.Vars["workerNodes"])
		}
		return out
	}
	gObj, eObj := greedy.Objective(), exhaustive.Objective()
	gPart, ePart := partitions(greedy), partitions(exhaustive)
	gEvals, eEvals := greedy.EvaluationCount()
	res.Rows = append(res.Rows,
		fmt.Sprintf("greedy:     partitions %v, objective %.2f s, ~%d evaluations/pass", gPart, gObj, gEvals),
		fmt.Sprintf("exhaustive: partitions %v, objective %.2f s, ~%d evaluations/pass", ePart, eObj, eEvals))
	res.Checks = append(res.Checks,
		check("exhaustive search finds the equal partition",
			len(ePart) == 2 && ePart[0] == 4 && ePart[1] == 4, "partitions=%v", ePart),
		check("exhaustive objective is at least as good as greedy",
			eObj <= gObj+1e-9, "exhaustive=%.2f greedy=%.2f", eObj, gObj),
		check("greedy evaluates far fewer configurations",
			gEvals < eEvals, "greedy=%d exhaustive=%d", gEvals, eEvals))
	return res, nil
}

// RunAblationModel contrasts Harmony's default prediction model with an
// application-supplied explicit model (the Table 1 "performance" tag) on
// the Bag workload: the default model cannot see the application's
// quadratic synchronization cost, so it over-parallelizes.
func RunAblationModel() (*Result, error) {
	res := &Result{ID: "A3", Title: "Ablation — default vs explicit performance model"}
	const nodes = 8
	cfg := DefaultFigure4Config()

	run := func(withModel bool) (float64, error) {
		clock := simclock.New()
		defer clock.Stop()
		cl, err := cluster.NewSP2(nodes)
		if err != nil {
			return 0, err
		}
		ctrl, err := core.New(core.Config{Cluster: cl, Clock: clock})
		if err != nil {
			return 0, err
		}
		perfTag := ""
		if withModel {
			counts := []int{1, 2, 3, 4, 5, 6, 7, 8}
			points, err := bag.PerfModel(cfg.TotalWork, 1, cfg.CommCoeff, counts)
			if err != nil {
				return 0, err
			}
			perfTag = fmt.Sprintf("{performance {%s}}", bag.RSLPerformanceList(points))
		}
		src := fmt.Sprintf(`
harmonyBundle Bag:1 parallelism {
	{workers
		{variable workerNodes {1 2 3 4 5 6 7 8}}
		{node worker * {seconds {%g / workerNodes}} {memory 32} {replicate workerNodes} {exclusive 1}}
		{communication {10 * workerNodes}}
		%s
	}
}`, cfg.TotalWork, perfTag)
		bundles, _, err := rsl.DecodeScript(src)
		if err != nil {
			return 0, err
		}
		inst, _, err := ctrl.Register(bundles[0])
		if err != nil {
			return 0, err
		}
		ch, err := ctrl.CurrentChoice(inst)
		if err != nil {
			return 0, err
		}
		return ch.Vars["workerNodes"], nil
	}

	defaultW, err := run(false)
	if err != nil {
		return nil, err
	}
	explicitW, err := run(true)
	if err != nil {
		return nil, err
	}
	// Ground truth: the application's real iteration cost function.
	truth := func(w float64) (float64, error) {
		pts, err := bag.PerfModel(cfg.TotalWork, 1, cfg.CommCoeff, []int{int(w)})
		if err != nil {
			return 0, err
		}
		return pts[0].Seconds, nil
	}
	defaultRealized, err := truth(defaultW)
	if err != nil {
		return nil, err
	}
	explicitRealized, err := truth(explicitW)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows,
		fmt.Sprintf("default model:  chose %g workers -> realized iteration %.1f s", defaultW, defaultRealized),
		fmt.Sprintf("explicit model: chose %g workers -> realized iteration %.1f s", explicitW, explicitRealized))
	res.Checks = append(res.Checks,
		check("explicit model finds the communication knee (5 workers)",
			explicitW == 5, "chose %g", explicitW),
		check("default model over-parallelizes past the knee",
			defaultW > explicitW, "default=%g explicit=%g", defaultW, explicitW),
		check("explicit model's choice runs faster in reality",
			explicitRealized < defaultRealized,
			"explicit=%.1fs default=%.1fs", explicitRealized, defaultRealized))
	return res, nil
}
