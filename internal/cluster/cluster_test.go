package cluster

import (
	"testing"

	"harmony/internal/resource"
	"harmony/internal/rsl"
)

func TestNewSP2(t *testing.T) {
	c, err := NewSP2(8)
	if err != nil {
		t.Fatalf("NewSP2: %v", err)
	}
	if c.Size() != 8 {
		t.Fatalf("Size = %d, want 8", c.Size())
	}
	hosts := c.Hosts()
	if hosts[0] != "sp2-01" || hosts[7] != "sp2-08" {
		t.Fatalf("hosts = %v", hosts)
	}
	ls, err := c.Ledger().Link("sp2-01", "sp2-08")
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	if ls.Link.BandwidthMbps != DefaultSwitchBandwidthMbps {
		t.Fatalf("bandwidth = %g", ls.Link.BandwidthMbps)
	}
	ns, err := c.Ledger().Node("sp2-03")
	if err != nil || ns.Node.MemoryMB != 128 || ns.Node.OS != "linux" {
		t.Fatalf("node = %+v, %v", ns, err)
	}
}

func TestNewSP2Invalid(t *testing.T) {
	if _, err := NewSP2(0); err == nil {
		t.Fatal("NewSP2(0) succeeded")
	}
}

func TestNewFromDecls(t *testing.T) {
	decls := []*rsl.NodeDecl{
		{Hostname: "fast", Speed: 2, MemoryMB: 512, OS: "linux", CPUs: 4},
		{Hostname: "slow", Speed: 0.5, MemoryMB: 64, OS: "aix", CPUs: 1},
	}
	c, err := New(Config{LinkBandwidthMbps: 100}, decls)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if c.Size() != 2 {
		t.Fatalf("Size = %d", c.Size())
	}
	ls, err := c.Ledger().Link("slow", "fast")
	if err != nil || ls.Link.BandwidthMbps != 100 {
		t.Fatalf("link = %+v, %v", ls, err)
	}
}

func TestAddNodeNil(t *testing.T) {
	c, err := New(Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddNode(nil); err == nil {
		t.Fatal("AddNode(nil) succeeded")
	}
}

func TestAddNodeInvalidDecl(t *testing.T) {
	_, err := New(Config{}, []*rsl.NodeDecl{{Hostname: "x", Speed: -1, CPUs: 1}})
	if err == nil {
		t.Fatal("invalid decl accepted")
	}
}

func TestFullMeshContention(t *testing.T) {
	decls := []*rsl.NodeDecl{
		{Hostname: "a", Speed: 1, MemoryMB: 64, CPUs: 1},
		{Hostname: "b", Speed: 1, MemoryMB: 64, CPUs: 1},
	}
	c, err := New(Config{LinkBandwidthMbps: 100}, decls)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ledger().Reserve("x", nil, []resource.LinkClaim{
		{A: "a", B: "b", BandwidthMbps: 200},
	}); err != nil {
		t.Fatal(err)
	}
	// Each pair has a link of its own: the one claim oversubscribes it twice.
	ls, err := c.Ledger().Link("a", "b")
	if err != nil || ls.Utilization() != 2 {
		t.Fatalf("full mesh link = %+v, %v; want utilization 2", ls, err)
	}
}

func TestPad2(t *testing.T) {
	if pad2(3) != "03" || pad2(12) != "12" {
		t.Fatal("pad2 broken")
	}
}
