package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"harmony/internal/cluster"
	"harmony/internal/metric"
	"harmony/internal/namespace"
	"harmony/internal/objective"
	"harmony/internal/rsl"
	"harmony/internal/simclock"
)

// dbBundle mirrors Figure 3: query-shipping loads the server, data-shipping
// loads the client. Numbers are calibrated so QS is faster on an unloaded
// server and DS wins once the server saturates.
func dbBundle(t *testing.T, instance int) *rsl.BundleSpec {
	t.Helper()
	src := fmt.Sprintf(`
harmonyBundle DBclient:%d where {
	{QS
		{node server sp2-01 {seconds 5} {memory 20}}
		{node client * {os linux} {seconds 1} {memory 2}}
		{link client server 2}
	}
	{DS
		{node server sp2-01 {seconds 1} {memory 20}}
		{node client * {os linux} {memory >=17} {seconds 10}}
		{link client server {44 + (client.memory > 24 ? 24 : client.memory) - 17}}
	}
}`, instance)
	bundles, _, err := rsl.DecodeScript(src)
	if err != nil {
		t.Fatalf("decode db bundle: %v", err)
	}
	return bundles[0]
}

func bagBundle(t *testing.T) *rsl.BundleSpec {
	t.Helper()
	const src = `
harmonyBundle Bag:1 parallelism {
	{workers
		{variable workerNodes {1 2 4 8}}
		{node worker * {seconds {300 / workerNodes}} {memory 32} {replicate workerNodes} {exclusive 1}}
		{communication {2 * workerNodes ^ 2}}
		{performance {{1 300} {2 160} {4 90} {8 70}}}
	}
}`
	bundles, _, err := rsl.DecodeScript(src)
	if err != nil {
		t.Fatalf("decode bag bundle: %v", err)
	}
	return bundles[0]
}

func newController(t *testing.T, nodes int, cfg Config) (*Controller, *simclock.Clock) {
	t.Helper()
	cl, err := cluster.NewSP2(nodes)
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.New()
	cfg.Cluster = cl
	cfg.Clock = clock
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return ctrl, clock
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("config without cluster accepted")
	}
	cl, err := cluster.NewSP2(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Cluster: cl}); err == nil {
		t.Fatal("config without clock accepted")
	}
}

func TestRegisterSimpleBundle(t *testing.T) {
	ctrl, _ := newController(t, 4, Config{})
	bundles, _, err := rsl.DecodeScript(`
harmonyBundle Simple:1 config {
	{only {node worker * {seconds 300} {memory 32} {replicate 4}} {communication 10}}
}`)
	if err != nil {
		t.Fatal(err)
	}
	inst, events, err := ctrl.Register(bundles[0])
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if inst != 1 {
		t.Fatalf("instance = %d, want 1", inst)
	}
	if len(events) != 1 || !events[0].Initial || events[0].Choice.Option != "only" {
		t.Fatalf("events = %+v", events)
	}
	if got := len(events[0].Assignment.Nodes); got != 4 {
		t.Fatalf("placed %d nodes, want 4", got)
	}
	// Resources actually reserved: each node lost 32 MB.
	ns, err := ctrl.cfg.Cluster.Ledger().Node("sp2-01")
	if err != nil {
		t.Fatal(err)
	}
	if ns.FreeMemoryMB != 96 {
		t.Fatalf("free memory = %g, want 96", ns.FreeMemoryMB)
	}
}

func TestRegisterWritesNamespace(t *testing.T) {
	ctrl, _ := newController(t, 4, Config{})
	inst, _, err := ctrl.Register(dbBundle(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	leaves := namespaceLeaves(ctrl, fmt.Sprintf("DBclient.%d", inst))
	optVal, ok := leaves[fmt.Sprintf("DBclient.%d.where.option", inst)]
	if !ok {
		t.Fatalf("namespace option missing: %v", leaves)
	}
	if optVal.Str != "QS" {
		t.Fatalf("initial option = %q, want QS (faster on idle server)", optVal.Str)
	}
	mem, ok := leaves[fmt.Sprintf("DBclient.%d.where.QS.server.memory", inst)]
	if !ok || mem.IsString || mem.Num != 20 {
		t.Fatalf("server memory = %+v, %v", mem, ok)
	}
	host, ok := leaves[fmt.Sprintf("DBclient.%d.where.QS.server.node", inst)]
	if !ok || host.Str != "sp2-01" {
		t.Fatalf("server node = %+v, %v", host, ok)
	}
	if pred, ok := leaves[fmt.Sprintf("DBclient.%d.predicted", inst)]; !ok || pred.IsString {
		t.Fatalf("predicted = %+v, %v", pred, ok)
	}
}

// namespaceLeaves reads the controller's namespace leaves under prefix.
func namespaceLeaves(c *Controller, prefix string) map[string]namespace.Value {
	leaves := make(map[string]namespace.Value)
	_ = c.Namespace().Walk(prefix, func(p string, v namespace.Value) { leaves[p] = v })
	return leaves
}

func TestRegisterInfeasible(t *testing.T) {
	ctrl, _ := newController(t, 1, Config{})
	bundles, _, err := rsl.DecodeScript(`
harmonyBundle Huge:1 b {{O {node n * {memory 10000}}}}`)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = ctrl.Register(bundles[0])
	if !errors.Is(err, ErrNoFeasibleOption) {
		t.Fatalf("err = %v, want ErrNoFeasibleOption", err)
	}
	if _, _, err := ctrl.Register(nil); err == nil {
		t.Fatal("nil bundle accepted")
	}
}

// TestOverflowRefused: a bundle whose seconds overflow to +Inf is refused,
// with an error that names the tag, and no node's CPU load becomes NaN or
// infinite, whether the registration was refused or, if it was not, undone.
func TestOverflowRefused(t *testing.T) {
	ctrl, _ := newController(t, 4, Config{})
	bundle := decodeBundle(t, `harmonyBundle Over:1 w {{only {node w * {memory 8} {seconds {10 ^ 400}}}}}`)
	inst, _, err := ctrl.Register(bundle)
	switch {
	case err == nil:
		t.Error("a bundle whose seconds overflow was registered")
		if _, err := ctrl.Unregister(inst); err != nil {
			t.Fatal(err)
		}
	case !errors.Is(err, ErrNoFeasibleOption) || !strings.Contains(err.Error(), "seconds"):
		t.Errorf("err = %v, want ErrNoFeasibleOption naming seconds", err)
	}
	for _, ns := range ctrl.Ledger().Nodes() {
		if math.IsNaN(ns.CPULoad) || math.IsInf(ns.CPULoad, 0) {
			t.Errorf("node %s: CPU load %g", ns.Node.Hostname, ns.CPULoad)
		}
	}
}

// TestInfinitePredictionRefusedWithCause registers a bundle whose seconds
// are finite but whose prediction on the cluster's only node is +Inf: alone,
// through the greedy evaluation, and beside a resident that leaves no room,
// through the joint search. Either way Register refuses it and says which
// node's seconds overflowed, not a bare "no feasible option".
func TestInfinitePredictionRefusedWithCause(t *testing.T) {
	for _, resident := range []bool{false, true} {
		cl, err := cluster.New(cluster.Config{}, []*rsl.NodeDecl{{Hostname: "a", Speed: 0.5, MemoryMB: 64, OS: "linux", CPUs: 1}})
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := New(Config{Cluster: cl, Clock: simclock.New()})
		if err != nil {
			t.Fatal(err)
		}
		if resident {
			if _, _, err := ctrl.Register(decodeBundle(t, `harmonyBundle Hog:1 w {{big {node w * {memory 60} {seconds 1}}} {small {node w * {memory 4} {seconds 9}}}}`)); err != nil {
				t.Fatal(err)
			}
		}
		_, _, err = ctrl.Register(decodeBundle(t, `harmonyBundle Huge:1 w {{only {node w * {memory 8} {seconds 1e308}}}}`))
		if !errors.Is(err, ErrNoFeasibleOption) || !strings.Contains(err.Error(), "node w: seconds 1e+308") || !strings.Contains(err.Error(), "not a finite time") {
			t.Errorf("resident=%v: err = %v, want ErrNoFeasibleOption naming node w's seconds and the infinite time", resident, err)
		}
	}
}

func TestBagPicksBestParallelism(t *testing.T) {
	ctrl, _ := newController(t, 8, Config{})
	inst, events, err := ctrl.Register(bagBundle(t))
	if err != nil {
		t.Fatal(err)
	}
	// The explicit model says 8 workers finish in 70 s (vs 90 at 4); the
	// communication of 2*64=128 Mbps over 28 pairs is well under the
	// switch. 8 is optimal on an idle cluster.
	ch, err := ctrl.CurrentChoice(inst)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Vars["workerNodes"] != 8 {
		t.Fatalf("chose workerNodes=%g, want 8; events=%v", ch.Vars["workerNodes"], events)
	}
}

func TestTwoBagsSplitCluster(t *testing.T) {
	ctrl, _ := newController(t, 8, Config{})
	if _, _, err := ctrl.Register(bagBundle(t)); err != nil {
		t.Fatal(err)
	}
	// Second identical job arrives: re-evaluation should shrink the first
	// job so both get disjoint nodes (equal partitions, Figure 4b).
	if _, _, err := ctrl.Register(bagBundle(t)); err != nil {
		t.Fatal(err)
	}
	apps := ctrl.Apps()
	if len(apps) != 2 {
		t.Fatalf("apps = %d", len(apps))
	}
	w1 := apps[0].Choice.Vars["workerNodes"]
	w2 := apps[1].Choice.Vars["workerNodes"]
	if w1 != 4 || w2 != 4 {
		t.Fatalf("partitions = %g/%g, want 4/4", w1, w2)
	}
	// Disjoint host sets.
	used := make(map[string]int)
	for _, a := range apps {
		for _, h := range a.Hosts {
			used[h]++
		}
	}
	for h, n := range used {
		if n > 1 {
			t.Fatalf("host %s shared by %d apps", h, n)
		}
	}
}

func TestUnregisterRestoresAndReexpands(t *testing.T) {
	ctrl, _ := newController(t, 8, Config{})
	inst1, _, err := ctrl.Register(bagBundle(t))
	if err != nil {
		t.Fatal(err)
	}
	inst2, _, err := ctrl.Register(bagBundle(t))
	if err != nil {
		t.Fatal(err)
	}
	events, err := ctrl.Unregister(inst1)
	if err != nil {
		t.Fatalf("Unregister: %v", err)
	}
	// The survivor should re-expand to 8 workers.
	ch, err := ctrl.CurrentChoice(inst2)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Vars["workerNodes"] != 8 {
		t.Fatalf("survivor workers = %g, want 8 (events %v)", ch.Vars["workerNodes"], events)
	}
	if _, err := ctrl.Unregister(inst1); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("double unregister err = %v", err)
	}
	// All resources free after removing the last app.
	if _, err := ctrl.Unregister(inst2); err != nil {
		t.Fatal(err)
	}
	installed, free := ctrl.cfg.Cluster.Ledger().TotalMemory()
	if installed != free {
		t.Fatalf("memory leak: installed %g, free %g", installed, free)
	}
}

func TestForceChoiceSwitchesOption(t *testing.T) {
	ctrl, _ := newController(t, 4, Config{})
	inst, _, err := ctrl.Register(dbBundle(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	var seen []Event
	if err := ctrl.Subscribe(func(ev Event) { seen = append(seen, ev) }); err != nil {
		t.Fatal(err)
	}
	ev, err := ctrl.ForceChoice(inst, Choice{Option: "DS"})
	if err != nil {
		t.Fatalf("ForceChoice: %v", err)
	}
	if ev == nil || ev.Choice.Option != "DS" || ev.Initial {
		t.Fatalf("event = %+v", ev)
	}
	if len(seen) != 1 {
		t.Fatalf("listener saw %d events", len(seen))
	}
	// Forcing the same choice is a no-op.
	ev, err = ctrl.ForceChoice(inst, Choice{Option: "DS"})
	if err != nil || ev != nil {
		t.Fatalf("repeat force = %+v, %v", ev, err)
	}
	// Unknown option and instance fail.
	if _, err := ctrl.ForceChoice(inst, Choice{Option: "nope"}); err == nil {
		t.Fatal("unknown option forced")
	}
	if _, err := ctrl.ForceChoice(999, Choice{Option: "DS"}); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("unknown instance err = %v", err)
	}
	// Namespace reflects the switch.
	if v := namespaceLeaves(ctrl, "")[fmt.Sprintf("DBclient.%d.where.option", inst)]; v.Str != "DS" {
		t.Fatalf("namespace option = %+v", v)
	}
	// Switch counter advanced exactly once.
	if apps := ctrl.Apps(); apps[0].Switches != 1 {
		t.Fatalf("switches = %d, want 1", apps[0].Switches)
	}
}

func TestMemoryGrantLadderForDS(t *testing.T) {
	// Mean objective is indifferent to bandwidth unless links contend, so
	// drive contention high: a tiny cluster with a slow link.
	decls := []*rsl.NodeDecl{
		{Hostname: "server", Speed: 1, MemoryMB: 128, OS: "linux", CPUs: 1},
		{Hostname: "client", Speed: 1, MemoryMB: 128, OS: "linux", CPUs: 1},
	}
	cl, err := cluster.New(cluster.Config{LinkBandwidthMbps: 40}, decls)
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.New()
	ctrl, err := New(Config{Cluster: cl, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	// DS-only bundle whose bandwidth need falls with granted memory:
	// 60 - memory, so 17 MB -> 43 Mbps (over the 40 Mbps link, contended)
	// while 33+ MB -> 27 Mbps (fits).
	bundles, _, err := rsl.DecodeScript(`
harmonyBundle Mem:1 b {
	{DS
		{node server server {seconds 1} {memory 20}}
		{node client client {memory >=17} {seconds 10}}
		{link client server {60 - client.memory}}
	}
}`)
	if err != nil {
		t.Fatal(err)
	}
	inst, _, err := ctrl.Register(bundles[0])
	if err != nil {
		t.Fatal(err)
	}
	ch, err := ctrl.CurrentChoice(inst)
	if err != nil {
		t.Fatal(err)
	}
	grant := ch.Grants["client"]
	if grant < 25 {
		t.Fatalf("memory grant = %g, want >= 25 (trading memory for bandwidth)", grant)
	}
}

func TestGranularityGatesReevaluation(t *testing.T) {
	ctrl, clock := newController(t, 8, Config{})
	// A bundle with a 100-second granularity.
	bundles, _, err := rsl.DecodeScript(`
harmonyBundle Slow:1 b {
	{workers
		{variable w {2 4}}
		{node n * {seconds {100 / w}} {memory 32} {replicate w}}
		{performance {{2 50} {4 30}}}
		{granularity 100}
	}
}`)
	if err != nil {
		t.Fatal(err)
	}
	inst, _, err := ctrl.Register(bundles[0])
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := ctrl.CurrentChoice(inst)
	if ch.Vars["w"] != 4 {
		t.Fatalf("initial w = %g, want 4", ch.Vars["w"])
	}
	// Fill the cluster so 4 workers contend: a competing app on all nodes.
	bundles2, _, err := rsl.DecodeScript(`
harmonyBundle Filler:1 b {
	{only {node n * {seconds 1000} {memory 32} {replicate 8}}}
}`)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ctrl.Register(bundles2[0]); err != nil {
		t.Fatal(err)
	}
	// Within the granularity window, Slow.1 may not be reconfigured.
	clock.AdvanceTo(50 * time.Second)
	ctrl.Reevaluate()
	ch, _ = ctrl.CurrentChoice(inst)
	if ch.Vars["w"] != 4 {
		t.Fatalf("reconfigured inside granularity window: w = %g", ch.Vars["w"])
	}
}

func TestObjectiveAndApps(t *testing.T) {
	ctrl, _ := newController(t, 8, Config{})
	if got := ctrl.Objective(); got != 0 {
		t.Fatalf("empty objective = %g", got)
	}
	if _, _, err := ctrl.Register(bagBundle(t)); err != nil {
		t.Fatal(err)
	}
	if got := ctrl.Objective(); got != 70 {
		t.Fatalf("objective = %g, want 70 (8-worker model)", got)
	}
	apps := ctrl.Apps()
	if len(apps) != 1 || apps[0].App != "Bag" || apps[0].PredictedSeconds != 70 {
		t.Fatalf("apps = %+v", apps)
	}
	if len(apps[0].Hosts) != 8 {
		t.Fatalf("hosts = %v", apps[0].Hosts)
	}
}

func TestMetricsPublished(t *testing.T) {
	bus := metric.NewBus(0)
	ctrl, _ := newController(t, 8, Config{Bus: bus})
	if _, _, err := ctrl.Register(bagBundle(t)); err != nil {
		t.Fatal(err)
	}
	s, ok := bus.Last("Bag.1.predicted")
	if !ok || s.Value != 70 {
		t.Fatalf("metric = %+v, %v", s, ok)
	}
}

func TestActiveInstances(t *testing.T) {
	ctrl, _ := newController(t, 8, Config{})
	i1, _, err := ctrl.Register(dbBundle(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	i2, _, err := ctrl.Register(dbBundle(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	got := ctrl.ActiveInstances("DBclient")
	if len(got) != 2 || got[0] != i1 || got[1] != i2 {
		t.Fatalf("ActiveInstances = %v", got)
	}
	if got := ctrl.ActiveInstances("Nope"); got != nil {
		t.Fatalf("missing app instances = %v", got)
	}
}

func TestSubscribeNil(t *testing.T) {
	ctrl, _ := newController(t, 1, Config{})
	if err := ctrl.Subscribe(nil); err == nil {
		t.Fatal("nil listener accepted")
	}
}

func TestChoiceEqualAndString(t *testing.T) {
	a := Choice{Option: "QS", Vars: map[string]float64{"w": 4}, Grants: map[string]float64{"c": 17}}
	b := Choice{Option: "QS", Vars: map[string]float64{"w": 4}, Grants: map[string]float64{"c": 17}}
	if !a.Equal(b) {
		t.Fatal("equal choices differ")
	}
	b.Vars["w"] = 8
	if a.Equal(b) {
		t.Fatal("different vars equal")
	}
	if a.Equal(Choice{Option: "DS"}) {
		t.Fatal("different options equal")
	}
	s := a.String()
	if s != "QS w=4 c.memory=17" {
		t.Fatalf("String = %q", s)
	}
}

func TestExhaustiveMatchesGreedyOnSimpleSystem(t *testing.T) {
	greedy, _ := newController(t, 8, Config{})
	exhaustive, _ := newController(t, 8, Config{Exhaustive: true})
	for _, ctrl := range []*Controller{greedy, exhaustive} {
		if _, _, err := ctrl.Register(bagBundle(t)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ctrl.Register(bagBundle(t)); err != nil {
			t.Fatal(err)
		}
	}
	og, oe := greedy.Objective(), exhaustive.Objective()
	if oe > og+1e-9 {
		t.Fatalf("exhaustive objective %g worse than greedy %g", oe, og)
	}
	g, e := greedy.EvaluationCount()
	if g <= 0 || e <= 0 || e < g {
		t.Fatalf("evaluation counts greedy=%d exhaustive=%d", g, e)
	}
}

// TestEvaluationCountSaturates holds the exhaustive count of db-crowd's 64
// residents, five choices each — 5^64, far past an int — at math.MaxInt
// instead of letting it wrap.
func TestEvaluationCountSaturates(t *testing.T) {
	g, e := crowdController(t, 64, Config{}).EvaluationCount()
	if g != 64*5 || e != math.MaxInt {
		t.Fatalf("evaluation counts greedy=%d exhaustive=%d, want %d and %d", g, e, 64*5, math.MaxInt)
	}
	if g, e := crowdController(t, 3, Config{}).EvaluationCount(); g != 15 || e != 125 {
		t.Fatalf("evaluation counts greedy=%d exhaustive=%d, want 15 and 125", g, e)
	}
}

func TestObjectiveFunctionOverride(t *testing.T) {
	ctrl, _ := newController(t, 8, Config{Objective: objective.MaxResponseTime})
	if _, _, err := ctrl.Register(bagBundle(t)); err != nil {
		t.Fatal(err)
	}
	if got := ctrl.Objective(); got != 70 {
		t.Fatalf("makespan objective = %g", got)
	}
}
