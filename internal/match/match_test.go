package match

import (
	"errors"
	"strings"
	"testing"

	"harmony/internal/cluster"
	"harmony/internal/resource"
	"harmony/internal/rsl"
)

const dbBundleSrc = `
harmonyBundle DBclient:1 where {
	{QS
		{node server sp2-01 {seconds 42} {memory 20}}
		{node client * {os linux} {seconds 1} {memory 2}}
		{link client server 2}
	}
	{DS
		{node server sp2-01 {seconds 1} {memory 20}}
		{node client * {os linux} {memory >=17} {seconds 9}}
		{link client server {44 + (client.memory > 24 ? 24 : client.memory) - 17}}
	}
}
`

const bagBundleSrc = `
harmonyBundle Bag:1 parallelism {
	{workers
		{variable workerNodes {1 2 4 8}}
		{node worker * {seconds {300 / workerNodes}} {memory 32} {replicate workerNodes}}
		{communication {0.5 * workerNodes ^ 2}}
	}
}
`

func mustBundle(t *testing.T, src string) *rsl.BundleSpec {
	t.Helper()
	bundles, _, err := rsl.DecodeScript(src)
	if err != nil {
		t.Fatalf("DecodeScript: %v", err)
	}
	return bundles[0]
}

func sp2Matcher(t *testing.T, n int) (*Matcher, *cluster.Cluster) {
	t.Helper()
	c, err := cluster.NewSP2(n)
	if err != nil {
		t.Fatalf("NewSP2: %v", err)
	}
	return New(c.Ledger()), c
}

func TestMatchQueryShipping(t *testing.T) {
	m, _ := sp2Matcher(t, 4)
	b := mustBundle(t, dbBundleSrc)
	asg, err := m.Match(Request{Option: b.Option("QS")})
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	if len(asg.Nodes) != 2 {
		t.Fatalf("nodes = %v", asg.Nodes)
	}
	if asg.Nodes[0].Hostname != "sp2-01" {
		t.Fatalf("server placed on %s, want sp2-01", asg.Nodes[0].Hostname)
	}
	if asg.Nodes[0].Seconds != 42 || asg.Nodes[1].Seconds != 1 {
		t.Fatalf("seconds = %+v", asg.Nodes)
	}
	if len(asg.Links) != 1 || asg.Links[0].BandwidthMbps != 2 {
		t.Fatalf("links = %+v", asg.Links)
	}
	// Client should first-fit on a host other than the fixed server? The
	// wildcard scan starts at sp2-01, which is not yet "used" by wildcard
	// placement, so it lands there, making the link intra-host.
	if asg.Links[0].HostA != asg.Nodes[1].Hostname {
		t.Fatalf("link endpoint mismatch: %+v", asg.Links[0])
	}
}

func TestMatchDataShippingMemoryGrant(t *testing.T) {
	m, _ := sp2Matcher(t, 4)
	b := mustBundle(t, dbBundleSrc)
	ds := b.Option("DS")

	// Default grant: the minimum 17 MB -> bandwidth 44.
	asg, err := m.Match(Request{Option: ds})
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	var client *NodeAssignment
	for i := range asg.Nodes {
		if asg.Nodes[i].LocalName == "client" {
			client = &asg.Nodes[i]
		}
	}
	if client == nil || client.MemoryMB != 17 {
		t.Fatalf("client assignment = %+v", client)
	}
	if asg.Links[0].BandwidthMbps != 44 {
		t.Fatalf("bandwidth at min memory = %g, want 44", asg.Links[0].BandwidthMbps)
	}

	// Raising the grant to 32 MB caps the formula at 24 -> bandwidth 51.
	asg, err = m.Match(Request{Option: ds, MemoryGrants: map[string]float64{"client": 32}})
	if err != nil {
		t.Fatalf("Match with grant: %v", err)
	}
	for i := range asg.Nodes {
		if asg.Nodes[i].LocalName == "client" && asg.Nodes[i].MemoryMB != 32 {
			t.Fatalf("granted memory = %g", asg.Nodes[i].MemoryMB)
		}
	}
	if asg.Links[0].BandwidthMbps != 51 {
		t.Fatalf("bandwidth at 32 MB = %g, want 51", asg.Links[0].BandwidthMbps)
	}

	// A grant below the minimum fails.
	if _, err := m.Match(Request{Option: ds, MemoryGrants: map[string]float64{"client": 10}}); err == nil {
		t.Fatal("grant below minimum accepted")
	}
}

func TestMatchReplicatedWorkers(t *testing.T) {
	m, _ := sp2Matcher(t, 8)
	b := mustBundle(t, bagBundleSrc)
	opt := b.Option("workers")
	for _, w := range []float64{1, 2, 4, 8} {
		asg, err := m.Match(Request{Option: opt, Env: rsl.MapEnv{"workerNodes": w}})
		if err != nil {
			t.Fatalf("Match w=%g: %v", w, err)
		}
		if len(asg.Nodes) != int(w) {
			t.Fatalf("w=%g placed %d nodes", w, len(asg.Nodes))
		}
		hosts := asg.Hosts()
		if len(hosts) != int(w) {
			t.Fatalf("w=%g used %d distinct hosts, want %g: %v", w, len(hosts), w, hosts)
		}
		if asg.CommunicationMbps != 0.5*w*w {
			t.Fatalf("w=%g communication = %g", w, asg.CommunicationMbps)
		}
		if asg.Nodes[0].Seconds != 300/w {
			t.Fatalf("w=%g per-node seconds = %g", w, asg.Nodes[0].Seconds)
		}
	}
}

func TestMatchInsufficientNodes(t *testing.T) {
	m, _ := sp2Matcher(t, 4)
	b := mustBundle(t, bagBundleSrc)
	_, err := m.Match(Request{Option: b.Option("workers"), Env: rsl.MapEnv{"workerNodes": 8}})
	var nf *NoFitError
	if !errors.As(err, &nf) {
		t.Fatalf("err = %v, want NoFitError", err)
	}
	if !strings.Contains(nf.Reason(), "replica") {
		t.Fatalf("reason = %q", nf.Reason())
	}
}

func TestMatchOSConstraintPlacement(t *testing.T) {
	decls := []*rsl.NodeDecl{
		{Hostname: "aixbox", Speed: 1, MemoryMB: 128, OS: "aix", CPUs: 1},
		{Hostname: "linuxbox", Speed: 1, MemoryMB: 128, OS: "linux", CPUs: 1},
	}
	c, err := cluster.New(cluster.Config{}, decls)
	if err != nil {
		t.Fatal(err)
	}
	m := New(c.Ledger())
	b := mustBundle(t, `harmonyBundle A:1 b {{O {node n * {os linux} {memory 1}}}}`)
	asg, err := m.Match(Request{Option: &b.Options[0]})
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	if asg.Nodes[0].Hostname != "linuxbox" {
		t.Fatalf("placed on %s, want linuxbox", asg.Nodes[0].Hostname)
	}
}

func TestMatchExcludeHosts(t *testing.T) {
	m, _ := sp2Matcher(t, 3)
	b := mustBundle(t, `harmonyBundle A:1 b {{O {node n * {memory 1}}}}`)
	asg, err := m.Match(Request{
		Option:       &b.Options[0],
		ExcludeHosts: map[string]bool{"sp2-01": true, "sp2-02": true},
	})
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	if asg.Nodes[0].Hostname != "sp2-03" {
		t.Fatalf("placed on %s, want sp2-03", asg.Nodes[0].Hostname)
	}
}

func TestMatchMemoryFirstFitSkipsFullNodes(t *testing.T) {
	m, c := sp2Matcher(t, 3)
	// Fill sp2-01 memory.
	if _, err := c.Ledger().Reserve("filler",
		[]resource.NodeClaim{{Hostname: "sp2-01", MemoryMB: 128}}, nil); err != nil {
		t.Fatal(err)
	}
	b := mustBundle(t, `harmonyBundle A:1 b {{O {node n * {memory 100}}}}`)
	asg, err := m.Match(Request{Option: &b.Options[0]})
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	if asg.Nodes[0].Hostname != "sp2-02" {
		t.Fatalf("placed on %s, want sp2-02", asg.Nodes[0].Hostname)
	}
}

func TestMatchFixedHostMissing(t *testing.T) {
	m, _ := sp2Matcher(t, 2)
	b := mustBundle(t, `harmonyBundle A:1 b {{O {node n ghost.host {memory 1}}}}`)
	if _, err := m.Match(Request{Option: &b.Options[0]}); err == nil {
		t.Fatal("fixed missing host matched")
	}
}

func TestMatchLinkCapacityExceeded(t *testing.T) {
	m, _ := sp2Matcher(t, 2)
	// Require 1000 Mbps on a 320 Mbps switch between two distinct hosts.
	b := mustBundle(t, `harmonyBundle A:1 b {{O
		{node x sp2-01 {memory 1}}
		{node y sp2-02 {memory 1}}
		{link x y 1000}}}`)
	_, err := m.Match(Request{Option: &b.Options[0]})
	var nf *NoFitError
	if !errors.As(err, &nf) || !strings.Contains(nf.Reason(), "capacity") {
		t.Fatalf("err = %v", err)
	}
}

func TestMatchLatencyConstraint(t *testing.T) {
	m, _ := sp2Matcher(t, 2) // switch latency 0.5 ms
	b := mustBundle(t, `harmonyBundle A:1 b {{O
		{node x sp2-01 {memory 1}}
		{node y sp2-02 {memory 1}}
		{link x y 10 0.1}}}`)
	if _, err := m.Match(Request{Option: &b.Options[0]}); err == nil {
		t.Fatal("latency-violating link matched")
	}
	b2 := mustBundle(t, `harmonyBundle A:1 b {{O
		{node x sp2-01 {memory 1}}
		{node y sp2-02 {memory 1}}
		{link x y 10 2}}}`)
	if _, err := m.Match(Request{Option: &b2.Options[0]}); err != nil {
		t.Fatalf("latency-ok link rejected: %v", err)
	}
}

func TestMatchLinkUnknownLocalName(t *testing.T) {
	m, _ := sp2Matcher(t, 2)
	b := mustBundle(t, `harmonyBundle A:1 b {{O {node x * {memory 1}} {link x nope 1}}}`)
	if _, err := m.Match(Request{Option: &b.Options[0]}); err == nil {
		t.Fatal("link with unknown endpoint matched")
	}
}

func TestReserveAndReleaseRoundTrip(t *testing.T) {
	m, c := sp2Matcher(t, 8)
	b := mustBundle(t, bagBundleSrc)
	asg, err := m.Match(Request{Option: b.Option("workers"), Env: rsl.MapEnv{"workerNodes": 4}})
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	claim, err := m.Reserve("Bag.1", asg)
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	ns, err := c.Ledger().Node(asg.Nodes[0].Hostname)
	if err != nil {
		t.Fatal(err)
	}
	if ns.FreeMemoryMB != 96 || ns.CPULoad != 1 {
		t.Fatalf("node state after reserve = %+v", ns)
	}
	// Aggregate communication 8 Mbps over C(4,2)=6 pairs.
	ls, err := c.Ledger().Link(asg.Hosts()[0], asg.Hosts()[1])
	if err != nil {
		t.Fatal(err)
	}
	wantPer := 8.0 / 6.0
	if diff := ls.ReservedMbps - wantPer; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("per-pair comm = %g, want %g", ls.ReservedMbps, wantPer)
	}
	if err := c.Ledger().Release(claim.ID); err != nil {
		t.Fatalf("Release: %v", err)
	}
	ns, _ = c.Ledger().Node(asg.Nodes[0].Hostname)
	if ns.FreeMemoryMB != 128 || ns.CPULoad != 0 {
		t.Fatalf("node state after release = %+v", ns)
	}
}

func TestMatchSameHostLinkSkipsCapacityCheck(t *testing.T) {
	m, _ := sp2Matcher(t, 1)
	b := mustBundle(t, `harmonyBundle A:1 b {{O
		{node x sp2-01 {memory 1}}
		{node y sp2-01 {memory 1}}
		{link x y 99999}}}`)
	asg, err := m.Match(Request{Option: &b.Options[0]})
	if err != nil {
		t.Fatalf("intra-host link rejected: %v", err)
	}
	claim, err := m.Reserve("x", asg)
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if len(claim.Links) != 0 {
		t.Fatalf("intra-host link claimed bandwidth: %+v", claim.Links)
	}
}

func TestMatchNilOption(t *testing.T) {
	m, _ := sp2Matcher(t, 1)
	if _, err := m.Match(Request{}); err == nil {
		t.Fatal("nil option matched")
	}
	if _, err := m.Reserve("x", nil); err == nil {
		t.Fatal("nil assignment reserved")
	}
}

func TestAssignmentHelpers(t *testing.T) {
	asg := &Assignment{
		Nodes: []NodeAssignment{
			{LocalName: "a", Hostname: "h1", Seconds: 10, MemoryMB: 8},
			{LocalName: "b", Hostname: "h1", Seconds: 5, MemoryMB: 4},
			{LocalName: "c", Hostname: "h2", Seconds: 1, MemoryMB: 2},
		},
	}
	if got := asg.TotalSeconds(); got != 16 {
		t.Fatalf("TotalSeconds = %g", got)
	}
	hosts := asg.Hosts()
	if len(hosts) != 2 || hosts[0] != "h1" || hosts[1] != "h2" {
		t.Fatalf("Hosts = %v", hosts)
	}
	env := asg.MemoryEnv()
	if env["a.memory"] != 8 || env["c.seconds"] != 1 {
		t.Fatalf("MemoryEnv = %v", env)
	}
}

// wideBundleSrc is the 256-node benchmark shape: up to 32 exclusive workers
// with an explicit model and no links.
const wideBundleSrc = `
harmonyBundle Bag:1 parallelism {
	{workers
		{variable workerNodes {1 2 4 8 16 32}}
		{node worker * {seconds {300 / workerNodes}} {memory 32} {replicate workerNodes} {exclusive 1}}
		{performance {{1 300} {2 160} {4 90} {8 70} {16 60} {32 55}}}
	}
}
`

// TestMatchAllocations holds Match, on the 256-node shape and on a snapshot
// fork with residents in place as the controller calls it, to what its
// result needs: the assignment and its node list. The node table, the scan
// order and the used set come from reused scratch; a map or a fresh table per
// call shows up here.
func TestMatchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	m, c := sp2Matcher(t, 256)
	opt := mustBundle(t, wideBundleSrc).Option("workers")
	for _, workers := range []float64{4, 8, 16} {
		asg, err := m.Match(Request{Option: opt, Env: rsl.MapEnv{"workerNodes": workers}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Reserve("resident", asg); err != nil {
			t.Fatal(err)
		}
	}
	snap := c.Ledger().Snapshot()
	req := Request{Option: opt, Env: rsl.MapEnv{"workerNodes": 32}}
	var asg *Assignment
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if asg, err = m.WithView(snap).Match(req); err != nil {
			t.Fatal(err)
		}
	})
	if len(asg.Nodes) != 32 || asg.Nodes[0].Hostname != "sp2-117" {
		t.Fatalf("placed %d workers from %s, want 32 from sp2-117 (the 29th name in hostname order)", len(asg.Nodes), asg.Nodes[0].Hostname)
	}
	// The matcher copy, the assignment and its nodes.
	if allocs > 3 {
		t.Errorf("Match allocates %.0f objects per call on 256 nodes, want at most 3", allocs)
	}
}
