package experiments

import (
	"fmt"
	"sort"
	"time"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/minidb"
	"harmony/internal/rsl"
	"harmony/internal/simclock"
	"harmony/internal/trace"
)

// Figure7Config parameterizes the database adaptation experiment.
type Figure7Config struct {
	// PhaseSeconds is the interval between client arrivals (paper: about
	// three minutes; the figure's phases are ~200 s).
	PhaseSeconds float64
	// Clients is the number of arriving clients (paper: 3).
	Clients int
	// TuplesPerRelation sizes the Wisconsin instances (paper: 100,000).
	TuplesPerRelation int
	// ServerMemoryMB sizes the server's shared buffer pool.
	ServerMemoryMB float64
	// SwitchThreshold is the paper's configured rule: when at least this
	// many clients are active, all switch to data-shipping.
	SwitchThreshold int
	// RuleDelaySeconds is how long the controller observes the new load
	// before reconfiguring (the paper: the third client "eventually
	// triggers the Harmony system to send a re-configuration event" —
	// roughly 100 s into the phase in Figure 7).
	RuleDelaySeconds float64
	// UseOptimizer replaces the configured rule with the controller's
	// objective-driven optimizer (a variant the paper's Section 3.5 allows:
	// "the system could use data-shipping for some clients and
	// query-shipping for others").
	UseOptimizer bool
	// Seed perturbs the workloads.
	Seed int64
}

// DefaultFigure7Config reproduces the paper's run at simulation-friendly
// scale.
func DefaultFigure7Config() Figure7Config {
	return Figure7Config{
		PhaseSeconds:      200,
		Clients:           3,
		TuplesPerRelation: 100000,
		ServerMemoryMB:    64,
		SwitchThreshold:   3,
		RuleDelaySeconds:  100,
	}
}

// figure7ClientRSL pins each client to its own machine (queries are
// submitted where the user sits) while the server is fixed, as in Figure 3.
// A positive granularity (seconds) adds a granularity tag to both options.
func figure7ClientRSL(instance int, clientHost string, granularity float64) string {
	tag := ""
	if granularity > 0 {
		tag = fmt.Sprintf("\n\t\t{granularity %g}", granularity)
	}
	return fmt.Sprintf(`
harmonyBundle DBclient:%d where {
	{QS
		{node server dbserver {seconds 5} {memory 20}}
		{node client %s {os linux} {seconds 1} {memory 2}}
		{link client server 2}%s
	}
	{DS
		{node server dbserver {seconds 1} {memory 20}}
		{node client %s {os linux} {memory >=17} {seconds 10}}
		{link client server {44 + (client.memory > 24 ? 24 : client.memory) - 17}}%s
	}
}`, instance, clientHost, tag, clientHost, tag)
}

// Figure7Outcome carries the raw series for further analysis.
type Figure7Outcome struct {
	// Recorder holds per-client response-time series ("client N") and the
	// per-client mode series ("client N mode", 0=QS 1=DS).
	Recorder *trace.Recorder
	// SwitchAt is the virtual time of the QS->DS reconfiguration (zero if
	// none happened).
	SwitchAt time.Duration
}

// RunFigure7 replays the paper's experiment: clients arrive every phase;
// the Harmony controller reconfigures query processing from the server to
// the clients when the configured rule (or the optimizer) decides; each
// curve is the mean response time of one client's randomly perturbed join
// queries.
func RunFigure7(cfg Figure7Config) (*Result, error) {
	res, _, err := runFigure7(cfg)
	return res, err
}

// RunFigure7Outcome also returns the raw series.
func RunFigure7Outcome(cfg Figure7Config) (*Result, *Figure7Outcome, error) {
	return runFigure7(cfg)
}

func runFigure7(cfg Figure7Config) (*Result, *Figure7Outcome, error) {
	if cfg.Clients < 1 {
		return nil, nil, fmt.Errorf("figure 7 needs at least one client")
	}
	clock := simclock.New()
	defer clock.Stop()

	// Cluster: one database server machine plus one machine per client.
	decls := []*rsl.NodeDecl{{Hostname: "dbserver", Speed: 1, MemoryMB: 128, OS: "linux", CPUs: 1}}
	for i := 1; i <= cfg.Clients; i++ {
		decls = append(decls, &rsl.NodeDecl{
			Hostname: fmt.Sprintf("dbclient%d", i), Speed: 1, MemoryMB: 64, OS: "linux", CPUs: 1,
		})
	}
	cl, err := cluster.New(cluster.Config{}, decls)
	if err != nil {
		return nil, nil, err
	}
	ctrl, err := core.New(core.Config{Cluster: cl, Clock: clock})
	if err != nil {
		return nil, nil, err
	}

	engine, err := minidb.NewEngine(minidb.EngineConfig{
		Clock:             clock,
		TuplesPerRelation: cfg.TuplesPerRelation,
		ServerMemoryMB:    cfg.ServerMemoryMB,
		Seed:              cfg.Seed,
	})
	if err != nil {
		return nil, nil, err
	}

	rec := trace.NewRecorder()
	outcome := &Figure7Outcome{Recorder: rec}

	type clientState struct {
		instance int
		session  *minidb.Session
		loop     *minidb.ClientLoop
	}
	clients := make(map[int]*clientState) // by instance

	// Reconfiguration events flow to the sessions exactly as the Harmony
	// variable updates would: the mode changes take effect on the next
	// query ("complete the current query before reconfiguring").
	if err := ctrl.Subscribe(func(ev core.Event) {
		cs, ok := clients[ev.Instance]
		if !ok || ev.Initial {
			return
		}
		mode, err := minidb.ModeFromOption(ev.Choice.Option)
		if err != nil {
			return
		}
		if mode == minidb.DataShipping {
			// The last QS->DS event is the reconfiguration that sticks
			// (the optimizer may propose transient switches during a
			// registration that the configured rule immediately undoes).
			outcome.SwitchAt = ev.At
		}
		_ = cs.session.SetMode(mode)
		_ = rec.Add(fmt.Sprintf("client %d mode", cs.instance), ev.At, modeValue(mode))
	}); err != nil {
		return nil, nil, err
	}

	phase := time.Duration(cfg.PhaseSeconds * float64(time.Second))
	horizon := phase * time.Duration(cfg.Clients)

	startClient := func(i int) error {
		host := fmt.Sprintf("dbclient%d", i)
		bundles, _, err := rsl.DecodeScript(figure7ClientRSL(i, host, 0))
		if err != nil {
			return err
		}
		inst, events, err := ctrl.Register(bundles[0])
		if err != nil {
			return err
		}
		option := "QS"
		for _, ev := range events {
			if ev.Instance == inst {
				option = ev.Choice.Option
			}
		}
		mode, err := minidb.ModeFromOption(option)
		if err != nil {
			return err
		}
		sess, err := engine.NewSession(mode, 17)
		if err != nil {
			return err
		}
		cs := &clientState{instance: i, session: sess}
		clients[inst] = cs

		if !cfg.UseOptimizer {
			// The paper: "the controller was configured with a simple rule
			// for changing configurations based on the number of active
			// clients." Below the threshold every client runs
			// query-shipping immediately; crossing the threshold switches
			// everyone to data-shipping after an observation delay (the
			// Figure 7 spike persists for roughly half the phase before
			// the re-configuration event lands).
			forceAll := func(want string) {
				for _, id := range ctrl.ActiveInstances("DBclient") {
					if _, err := ctrl.ForceChoice(id, core.Choice{Option: want}); err != nil {
						_ = rec.Add("errors", clock.Now(), 1)
						return
					}
				}
			}
			if len(ctrl.ActiveInstances("DBclient")) < cfg.SwitchThreshold {
				forceAll("QS")
			} else {
				// Everyone keeps query-shipping while the rule observes the
				// new load, then the whole set switches to data-shipping.
				forceAll("QS")
				delay := time.Duration(cfg.RuleDelaySeconds * float64(time.Second))
				if delay <= 0 {
					forceAll("DS")
				} else if _, err := clock.ScheduleAfter(delay, func(time.Duration) {
					forceAll("DS")
				}); err != nil {
					return err
				}
			}
		}

		series := fmt.Sprintf("client %d", i)
		_ = rec.Add(series+" mode", clock.Now(), modeValue(sess.Mode()))
		loop, err := minidb.StartClientLoop(sess, cfg.Seed+int64(i)*97, func(r minidb.QueryResult) {
			_ = rec.Add(series, r.Finished, r.ResponseTime().Seconds())
		})
		if err != nil {
			return err
		}
		cs.loop = loop
		return nil
	}

	// Client 1 starts at t=0; later clients arrive each phase.
	if err := startClient(1); err != nil {
		return nil, nil, err
	}
	for i := 2; i <= cfg.Clients; i++ {
		i := i
		if _, err := clock.ScheduleAt(phase*time.Duration(i-1), func(time.Duration) {
			if err := startClient(i); err != nil {
				// Surface via a sentinel series; the checks will fail.
				_ = rec.Add("errors", clock.Now(), 1)
			}
		}); err != nil {
			return nil, nil, err
		}
	}

	clock.Run(horizon)
	for _, cs := range clients {
		cs.loop.Stop()
	}
	clock.Run(horizon + phase) // drain in-flight queries

	return buildFigure7Result(cfg, rec, outcome, phase)
}

func modeValue(m minidb.Mode) float64 {
	if m == minidb.DataShipping {
		return 1
	}
	return 0
}

func buildFigure7Result(cfg Figure7Config, rec *trace.Recorder, outcome *Figure7Outcome, phase time.Duration) (*Result, *Figure7Outcome, error) {
	res := &Result{ID: "F7", Title: "Figure 7 — client-server database adaptation (QS -> DS)"}
	if rec.Len("errors") > 0 {
		return nil, nil, fmt.Errorf("figure 7: a client failed to start")
	}

	names := make([]string, 0, cfg.Clients)
	for i := 1; i <= cfg.Clients; i++ {
		names = append(names, fmt.Sprintf("client %d", i))
	}

	// Phase table with an extra boundary at the reconfiguration.
	boundaries := []time.Duration{0}
	for i := 1; i <= cfg.Clients; i++ {
		boundaries = append(boundaries, phase*time.Duration(i))
	}
	if outcome.SwitchAt > 0 {
		boundaries = insertBoundary(boundaries, outcome.SwitchAt)
	}
	rows, err := rec.PhaseTable(names, boundaries)
	if err != nil {
		return nil, nil, err
	}
	res.Rows = append(res.Rows, "mean response time (s) per window:")
	for _, line := range splitLines(trace.FormatPhaseTable("", names, rows)) {
		if line != "" {
			res.Rows = append(res.Rows, line)
		}
	}
	if chart, err := rec.RenderASCII(names, 72, 14); err == nil {
		res.Rows = append(res.Rows, "response time over virtual time:")
		res.Rows = append(res.Rows, splitLines(chart)...)
	}

	// Shape checks against the paper's narrative.
	p1, ok1 := rec.WindowMean("client 1", 0, phase)
	p2, ok2 := rec.WindowMean("client 1", phase, 2*phase)
	res.Checks = append(res.Checks, check(
		"two clients roughly double the single-client response time",
		ok1 && ok2 && p2/p1 > 1.5 && p2/p1 < 2.6,
		"phase1=%.2fs phase2=%.2fs ratio=%.2f", p1, p2, p2/p1))

	if cfg.Clients >= 3 {
		// Pre-switch spike in phase 3.
		preFrom := 2 * phase
		preTo := outcome.SwitchAt
		if preTo <= preFrom {
			preTo = 2*phase + phase/4
		}
		p3pre, ok3 := rec.WindowMean("client 1", preFrom, preTo)
		res.Checks = append(res.Checks, check(
			"third client drives response time above the two-client level",
			ok3 && p3pre > p2*1.15,
			"pre-switch=%.2fs vs phase2=%.2fs", p3pre, p2))

		res.Checks = append(res.Checks, check(
			"Harmony reconfigures all clients to data-shipping at the third client",
			outcome.SwitchAt > 2*phase && outcome.SwitchAt < 3*phase,
			"switch at %.0fs (third client arrives at %.0fs)",
			outcome.SwitchAt.Seconds(), (2*phase).Seconds()))

		post, okPost := rec.WindowMean("client 1", outcome.SwitchAt+phase/8, 3*phase)
		res.Checks = append(res.Checks, check(
			"after the switch, response time returns to about the two-client level",
			okPost && post < p3pre && post/p2 > 0.5 && post/p2 < 1.6,
			"post-switch=%.2fs phase2=%.2fs pre-switch=%.2fs", post, p2, p3pre))
	}

	return res, outcome, nil
}

// insertBoundary inserts b into sorted boundaries (no duplicates).
func insertBoundary(bs []time.Duration, b time.Duration) []time.Duration {
	for _, x := range bs {
		if x == b {
			return bs
		}
	}
	bs = append(bs, b)
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	return bs
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
