package vet_test

import (
	"testing"

	"harmony/internal/rsl"
	"harmony/internal/vet"
)

// decodeBundle decodes a single harmonyBundle command for tests.
func decodeBundle(t *testing.T, src string) *rsl.BundleSpec {
	t.Helper()
	cmds, err := rsl.ParseScript(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	b, err := rsl.DecodeBundleCommand(cmds[0])
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return b
}

func TestOptionVector(t *testing.T) {
	b := decodeBundle(t, `harmonyBundle app:1 work {
		{par
			{variable n {2 4}}
			{node worker * {memory 32} {seconds {300 / n}} {replicate n} {exclusive 1}}
			{node mon dbserver {memory >=16}}
			{performance {{2 200} {4 120}}}
		}
	}`)
	v := vet.NewBundle(b).Vector(0)
	// Two bindings, each with the monitor's grant ladder 16, 24, 32, 48.
	if v.Choices != 8 {
		t.Errorf("Choices = %d, want 8", v.Choices)
	}
	if want := (vet.Range{Lo: 3, Hi: 5}); v.Nodes != want {
		t.Errorf("Nodes = %v, want %v", v.Nodes, want)
	}
	if want := (vet.Range{Lo: 2, Hi: 4}); v.DistinctHosts != want {
		t.Errorf("DistinctHosts = %v, want %v", v.DistinctHosts, want)
	}
	// 32 MB per worker replica plus the monitor's grant, from 2*32+16 to
	// 4*32+16+32.
	if want := (vet.Range{Lo: 80, Hi: 176}); v.MemoryMB != want {
		t.Errorf("MemoryMB = %v, want %v", v.MemoryMB, want)
	}
	if want := (vet.Range{Lo: 2, Hi: 4}); v.ExclusiveNodes != want {
		t.Errorf("ExclusiveNodes = %v, want %v", v.ExclusiveNodes, want)
	}
	if want := (vet.Range{Lo: 16, Hi: 48}); v.PerHostMB["dbserver"] != want {
		t.Errorf("PerHostMB[dbserver] = %v, want %v", v.PerHostMB["dbserver"], want)
	}
	// The model at 3 and 5 nodes: interpolated 160, and 120 past the last
	// knot.
	if want := (vet.Range{Lo: 120, Hi: 160}); v.Seconds != want {
		t.Errorf("Seconds = %v, want %v", v.Seconds, want)
	}
}

// TestModelRange: an option's model range is its model at the node count of
// each choice, flat beyond the first and last knots.
func TestModelRange(t *testing.T) {
	cases := []struct {
		domain string
		want   vet.Range
	}{
		{"4", vet.Range{Lo: 40, Hi: 40}},
		{"1 2 3", vet.Range{Lo: 60, Hi: 100}},
		{"4 8 100", vet.Range{Lo: 40, Hi: 70}}, // flat beyond the last knot
		{"2 3", vet.Range{Lo: 60, Hi: 80}},     // interior interpolation only
	}
	for _, tc := range cases {
		b := decodeBundle(t, `harmonyBundle app:1 w {
			{o {variable n {`+tc.domain+`}} {node x * {memory 1} {replicate n}}
				{performance {{1 100} {4 40} {8 70}}}}
		}`)
		if got := vet.NewBundle(b).Vector(0).Seconds; got != tc.want {
			t.Errorf("n in {%s}: Seconds = %v, want %v", tc.domain, got, tc.want)
		}
	}
	b := decodeBundle(t, `harmonyBundle app:1 w {{o {node x * {memory 1}}}}`)
	if got := vet.NewBundle(b).Vector(0).Seconds; got != (vet.Range{}) {
		t.Errorf("Seconds without a model = %v, want zero", got)
	}
}

func TestUnreachable(t *testing.T) {
	decls := []*rsl.NodeDecl{
		{Hostname: "a", MemoryMB: 64},
		{Hostname: "b", MemoryMB: 64},
	}
	cases := []struct {
		name string
		src  string
		want bool
	}{
		{"fits", `harmonyBundle app:1 w {
			{o {node n * {memory 48} {replicate 2}}}
		}`, false},
		{"total memory", `harmonyBundle app:1 w {
			{o {node n * {memory 100} {replicate 2}}}
		}`, true},
		{"distinct hosts", `harmonyBundle app:1 w {
			{o {node n * {memory 1} {replicate 3}}}
		}`, true},
		{"pinned host", `harmonyBundle app:1 w {
			{o {node n a {memory 65}}}
		}`, true},
		{"pinned replicas stack", `harmonyBundle app:1 w {
			{o {node n a {memory 33} {replicate 2}}}
		}`, true},
		{"unknown host ignored", `harmonyBundle app:1 w {
			{o {node n elsewhere {memory 100}}}
		}`, false},
		{"open lower bound", `harmonyBundle app:1 w {
			{o {variable n {1 2}} {node x * {memory {n * 80}} {replicate n}}}
		}`, false}, // best case n=1 fits: lower bounds stay sound
	}
	for _, tc := range cases {
		why := vet.Analyze(decodeBundle(t, tc.src), decls).Options[0].Unreachable
		if got := why != ""; got != tc.want {
			t.Errorf("%s: unreachable = %v (%s), want %v", tc.name, got, why, tc.want)
		}
	}
	if why := vet.Analyze(decodeBundle(t, `harmonyBundle a:1 w {{o {node n * {memory 1e9}}}}`), nil).Options[0].Unreachable; why != "" {
		t.Errorf("unreachable proved with no declared cluster: %s", why)
	}
}

func TestRender(t *testing.T) {
	if got := (vet.Range{Lo: 3, Hi: 3}).String(); got != "3" {
		t.Errorf("point renders %q", got)
	}
	if got := (vet.Range{Lo: 1, Hi: 5}).String(); got != "[1, 5]" {
		t.Errorf("range renders %q", got)
	}
	// No choice of the option resolves, so it has no footprint to print.
	b := decodeBundle(t, `harmonyBundle a:1 w {{o {variable n {0 1}} {node x * {memory 1} {replicate {n - 5}}}}}`)
	if got := vet.Analyze(b, nil).Options[0]; got.Nodes != "-" || got.MemoryMB != "-" {
		t.Errorf("unresolvable option renders nodes %q, memory %q; want -", got.Nodes, got.MemoryMB)
	}
}
