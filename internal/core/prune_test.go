package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"harmony/internal/cluster"
	"harmony/internal/rsl"
	"harmony/internal/simclock"
)

// decodeBundle parses one bundle from RSL source.
func decodeBundle(t *testing.T, src string) *rsl.BundleSpec {
	t.Helper()
	bundles, _, err := rsl.DecodeScript(src)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return bundles[0]
}

// fig4ShapeRSL is the Figure 4 workload shape: every worker count up to
// nodes, with an explicit performance model whose knee sits well below the
// cluster size (so large counts are feasible but never optimal).
func fig4ShapeRSL(job, nodes int) string {
	counts, points := "", ""
	for n := 1; n <= nodes; n++ {
		if n > 1 {
			counts += " "
			points += " "
		}
		counts += fmt.Sprintf("%d", n)
		points += fmt.Sprintf("{%d %g}", n, 300.0/float64(n)+1.2*float64(n*n))
	}
	return fmt.Sprintf(`
harmonyBundle Bag%d:%d parallelism {
	{workers
		{variable workerNodes {%s}}
		{node worker * {seconds {300 / workerNodes}} {memory 32} {replicate workerNodes} {exclusive 1}}
		{performance {%s}}
	}
}`, job, job, counts, points)
}

// fig7ShapeRSL is the Figure 7 workload shape: database clients whose QS
// and DS options both load a shared server host.
func fig7ShapeRSL(instance int, clientHost string) string {
	return fmt.Sprintf(`
harmonyBundle DBclient:%d where {
	{QS
		{node server dbserver {seconds 5} {memory 20}}
		{node client %s {os linux} {seconds 1} {memory 2}}
		{link client server 2}
	}
	{DS
		{node server dbserver {seconds 1} {memory 20}}
		{node client %s {os linux} {memory >=17} {seconds 10}}
		{link client server {44 + (client.memory > 24 ? 24 : client.memory) - 17}}
	}
}`, instance, clientHost, clientHost)
}

// prunableRSL exercises every prune rule at once: duplicate variable
// values (duplicate footprints within "lead"), an option with identical
// requirements but a never-faster model ("respelled", bounds dominance),
// and an option whose memory demand exceeds any cluster this suite builds
// ("hog", unreachable against the view).
func prunableRSL(instance int) string {
	return fmt.Sprintf(`
harmonyBundle Mixed:%d plan {
	{lead
		{variable n {1 2 2 4}}
		{node worker * {memory {n * 8}} {seconds {120 / n}} {replicate n}}
		{performance {{1 40} {2 30} {4 20}}}
	}
	{respelled
		{variable n {1 2 2 4}}
		{node worker * {memory {n * 8}} {seconds {120 / n}} {replicate n}}
		{performance {{1 45} {2 30} {4 20}}}
	}
	{hog
		{node worker * {memory 100000}}
		{performance {{1 10}}}
	}
}`, instance)
}

// fig7Cluster builds a shared-server cluster like the Figure 7 bench.
func fig7Cluster(t *testing.T, clients int) *cluster.Cluster {
	t.Helper()
	decls := []*rsl.NodeDecl{{Hostname: "dbserver", Speed: 1, MemoryMB: 64 + 24*float64(clients+1), OS: "linux", CPUs: 1}}
	for i := 1; i <= clients; i++ {
		decls = append(decls, &rsl.NodeDecl{
			Hostname: fmt.Sprintf("dbclient%03d", i), Speed: 1, MemoryMB: 64, OS: "linux", CPUs: 1,
		})
	}
	cl, err := cluster.New(cluster.Config{}, decls)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func newFig7Controller(t *testing.T, clients int, cfg Config) (*Controller, *simclock.Clock) {
	t.Helper()
	clock := simclock.New()
	cfg.Cluster = fig7Cluster(t, clients)
	cfg.Clock = clock
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(ctrl.Stop)
	return ctrl, clock
}

// pruneScenario is one workload driven identically through a pruning and a
// non-pruning controller.
type pruneScenario struct {
	name       string
	exhaustive bool
	// wantPrunes asserts the pruning controller actually skipped candidates
	// (non-vacuity); left false where the workload legitimately has nothing
	// to prune.
	wantPrunes bool
	build      func(t *testing.T, cfg Config) (*Controller, *simclock.Clock)
	sources    func() []string
}

func pruneScenarios() []pruneScenario {
	return []pruneScenario{
		{
			name:       "fig4-greedy",
			wantPrunes: true,
			build: func(t *testing.T, cfg Config) (*Controller, *simclock.Clock) {
				return newController(t, 16, cfg)
			},
			sources: func() []string {
				var out []string
				for j := 1; j <= 3; j++ {
					out = append(out, fig4ShapeRSL(j, 16))
				}
				return out
			},
		},
		{
			name:       "fig4-exhaustive",
			exhaustive: true,
			wantPrunes: true,
			build: func(t *testing.T, cfg Config) (*Controller, *simclock.Clock) {
				return newController(t, 8, cfg)
			},
			sources: func() []string {
				return []string{fig4ShapeRSL(1, 8), fig4ShapeRSL(2, 8)}
			},
		},
		{
			name: "fig7-greedy",
			build: func(t *testing.T, cfg Config) (*Controller, *simclock.Clock) {
				return newFig7Controller(t, 4, cfg)
			},
			sources: func() []string {
				var out []string
				for i := 1; i <= 3; i++ {
					out = append(out, fig7ShapeRSL(i, fmt.Sprintf("dbclient%03d", i)))
				}
				return out
			},
		},
		{
			name:       "mixed-rules-exhaustive",
			exhaustive: true,
			wantPrunes: true,
			build: func(t *testing.T, cfg Config) (*Controller, *simclock.Clock) {
				return newController(t, 8, cfg)
			},
			sources: func() []string {
				return []string{prunableRSL(1), prunableRSL(2)}
			},
		},
		{
			name:       "mixed-rules-greedy",
			wantPrunes: true,
			build: func(t *testing.T, cfg Config) (*Controller, *simclock.Clock) {
				return newController(t, 8, cfg)
			},
			sources: func() []string {
				return []string{prunableRSL(1), prunableRSL(2), fig4ShapeRSL(9, 8)}
			},
		},
	}
}

// compareStates fails unless both controllers agree bit-for-bit on every
// decision, prediction and the system objective.
func compareStates(t *testing.T, stage string, pruned, plain *Controller) {
	t.Helper()
	pa, qa := pruned.Apps(), plain.Apps()
	if len(pa) != len(qa) {
		t.Fatalf("%s: app count diverged: pruned=%d plain=%d", stage, len(pa), len(qa))
	}
	for i := range pa {
		if !pa[i].Choice.Equal(qa[i].Choice) {
			t.Fatalf("%s: app %s choice diverged: pruned=%v plain=%v", stage, pa[i].App, pa[i].Choice, qa[i].Choice)
		}
		if math.Float64bits(pa[i].PredictedSeconds) != math.Float64bits(qa[i].PredictedSeconds) {
			t.Fatalf("%s: app %s prediction diverged: pruned=%v plain=%v",
				stage, pa[i].App, pa[i].PredictedSeconds, qa[i].PredictedSeconds)
		}
	}
	po, qo := pruned.Objective(), plain.Objective()
	if math.Float64bits(po) != math.Float64bits(qo) {
		t.Fatalf("%s: objective diverged: pruned=%v plain=%v", stage, po, qo)
	}
}

// TestPruningBitIdentical drives identical workloads through a pruning and
// a non-pruning controller — greedy and exhaustive, Figure 4 and Figure 7
// shapes plus rule-dense generated bundles — and requires bit-identical
// choices, predictions and objectives after every operation.
func TestPruningBitIdentical(t *testing.T) {
	for _, sc := range pruneScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			base := Config{Exhaustive: sc.exhaustive}
			pruned, pClock := sc.build(t, base)
			plainCfg := base
			plainCfg.DisablePruning = true
			plain, qClock := sc.build(t, plainCfg)

			var insts []int
			for i, src := range sc.sources() {
				pi, _, perr := pruned.Register(decodeBundle(t, src))
				qi, _, qerr := plain.Register(decodeBundle(t, src))
				if (perr == nil) != (qerr == nil) {
					t.Fatalf("register %d: error diverged: pruned=%v plain=%v", i, perr, qerr)
				}
				if perr != nil {
					continue
				}
				if pi != qi {
					t.Fatalf("register %d: instance diverged: pruned=%d plain=%d", i, pi, qi)
				}
				insts = append(insts, pi)
				compareStates(t, fmt.Sprintf("after register %d", i), pruned, plain)
			}
			for pass := 1; pass <= 4; pass++ {
				at := time.Duration(pass) * 40 * time.Second
				pClock.AdvanceTo(at)
				qClock.AdvanceTo(at)
				pruned.Reevaluate()
				plain.Reevaluate()
				compareStates(t, fmt.Sprintf("after pass %d", pass), pruned, plain)
			}
			if len(insts) > 1 {
				if _, err := pruned.Unregister(insts[0]); err != nil {
					t.Fatal(err)
				}
				if _, err := plain.Unregister(insts[0]); err != nil {
					t.Fatal(err)
				}
				pClock.AdvanceTo(200 * time.Second)
				qClock.AdvanceTo(200 * time.Second)
				pruned.Reevaluate()
				plain.Reevaluate()
				compareStates(t, "after unregister", pruned, plain)
			}

			ps, qs := pruned.PruneStats(), plain.PruneStats()
			if qs != (PruneStats{}) {
				t.Fatalf("disabled controller recorded prune activity: %+v", qs)
			}
			if ps.Considered == 0 {
				t.Fatal("pruning controller considered no candidates")
			}
			if sc.wantPrunes && ps.Unreachable+ps.Dominated == 0 {
				t.Fatalf("expected prunes, got %+v", ps)
			}
		})
	}
}

// TestFig4ShapePruneCounter pins the availability-pruning behavior behind
// the Figure 4 benchmark claim: once three bag-of-tasks jobs partition the
// cluster, re-evaluating any one of them leaves too few idle machines for
// the large worker counts, which are skipped without a snapshot fork.
func TestFig4ShapePruneCounter(t *testing.T) {
	ctrl, clock := newController(t, 16, Config{})
	for j := 1; j <= 3; j++ {
		if _, _, err := ctrl.Register(decodeBundle(t, fig4ShapeRSL(j, 16))); err != nil {
			t.Fatalf("register job %d: %v", j, err)
		}
	}
	before := ctrl.PruneStats()
	clock.AdvanceTo(40 * time.Second)
	ctrl.Reevaluate()
	after := ctrl.PruneStats()
	if after.Unreachable <= before.Unreachable {
		t.Fatalf("steady-state re-evaluation pruned no unreachable candidates: before=%+v after=%+v", before, after)
	}
}
