package match

import (
	"testing"

	"harmony/internal/cluster"
	"harmony/internal/resource"
	"harmony/internal/rsl"
)

// unevenCluster has three idle nodes with different free memory.
func unevenCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	decls := []*rsl.NodeDecl{
		{Hostname: "big", Speed: 1, MemoryMB: 256, OS: "linux", CPUs: 1},
		{Hostname: "mid", Speed: 1, MemoryMB: 128, OS: "linux", CPUs: 1},
		{Hostname: "small", Speed: 1, MemoryMB: 64, OS: "linux", CPUs: 1},
	}
	c, err := cluster.New(cluster.Config{}, decls)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// oneNodeOption asks for one node of any host with 32 MB.
func oneNodeOption(t *testing.T) *rsl.OptionSpec {
	t.Helper()
	bundles, _, err := rsl.DecodeScript(`harmonyBundle A:1 b {{O {node n * {memory 32}}}}`)
	if err != nil {
		t.Fatal(err)
	}
	return &bundles[0].Options[0]
}

func TestFirstFitTakesHostnameOrder(t *testing.T) {
	m := New(unevenCluster(t).Ledger())
	asg, err := m.Match(Request{Option: oneNodeOption(t)})
	if err != nil {
		t.Fatal(err)
	}
	if asg.Nodes[0].Hostname != "big" { // "big" < "mid" < "small"
		t.Fatalf("first-fit placed on %s", asg.Nodes[0].Hostname)
	}
}

func TestFirstFitTakesLoadFirst(t *testing.T) {
	// A loaded node loses to an idle one that sorts after it.
	c := unevenCluster(t)
	if _, err := c.Ledger().Reserve("bg", []resource.NodeClaim{
		{Hostname: "big", CPULoad: 1},
		{Hostname: "mid", CPULoad: 1},
	}, nil); err != nil {
		t.Fatal(err)
	}
	asg, err := New(c.Ledger()).Match(Request{Option: oneNodeOption(t)})
	if err != nil {
		t.Fatal(err)
	}
	if asg.Nodes[0].Hostname != "small" {
		t.Fatalf("first-fit placed on loaded %s, want idle small", asg.Nodes[0].Hostname)
	}
}
