package bounds_test

import (
	"math"
	"testing"

	"harmony/internal/bounds"
	"harmony/internal/rsl"
	"harmony/internal/vet/absint"
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
	v := bounds.Option(&b.Options[0])
	if want := absint.Of(3, 5); v.Nodes != want {
		t.Errorf("Nodes = %v, want %v", v.Nodes, want)
	}
	if want := absint.Of(2, 4); v.DistinctHosts != want {
		t.Errorf("DistinctHosts = %v, want %v", v.DistinctHosts, want)
	}
	// 32 MB per worker replica plus an open-ended >=16 on the monitor.
	if v.MemoryMB.Lo != 2*32+16 || !math.IsInf(v.MemoryMB.Hi, 1) {
		t.Errorf("MemoryMB = %v, want [80, inf]", v.MemoryMB)
	}
	if want := absint.Of(2, 4); v.ExclusiveNodes != want {
		t.Errorf("ExclusiveNodes = %v, want %v", v.ExclusiveNodes, want)
	}
	if got := v.PerHostMB["dbserver"]; got.Lo != 16 || !math.IsInf(got.Hi, 1) {
		t.Errorf("PerHostMB[dbserver] = %v, want [16, inf]", got)
	}
	// Model evaluated over Nodes = [3, 5]: interpolation between the
	// knots plus flat extension gives [120, 160].
	if want := absint.Of(120, 160); v.Seconds != want {
		t.Errorf("Seconds = %v, want %v", v.Seconds, want)
	}
}

func TestModelRange(t *testing.T) {
	pts := []rsl.PerfPoint{{X: 1, Y: 100}, {X: 4, Y: 40}, {X: 8, Y: 70}}
	cases := []struct {
		n    absint.Interval
		want absint.Interval
	}{
		{absint.Point(4), absint.Point(40)},
		{absint.Of(1, 8), absint.Of(40, 100)},
		{absint.Of(4, 100), absint.Of(40, 70)}, // flat beyond the last knot
		{absint.Of(2, 3), absint.Of(60, 80)},   // interior interpolation only
		{absint.Empty(), absint.Empty()},
	}
	for _, tc := range cases {
		if got := bounds.ModelRange(pts, tc.n); got != tc.want {
			t.Errorf("ModelRange(%v) = %v, want %v", tc.n, got, tc.want)
		}
	}
	if got := bounds.ModelRange(nil, absint.Point(1)); !got.IsEmpty() {
		t.Errorf("ModelRange(no model) = %v, want empty", got)
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
		b := decodeBundle(t, tc.src)
		u, got := bounds.Unreachable(bounds.Option(&b.Options[0]), decls)
		if got != tc.want {
			t.Errorf("%s: Unreachable = %v (%s), want %v", tc.name, got, u.Reason, tc.want)
		}
	}
	if _, got := bounds.Unreachable(bounds.Option(&decodeBundle(t, `harmonyBundle a:1 w {{o {node n * {memory 1e9}}}}`).Options[0]), nil); got {
		t.Error("Unreachable proved something with no declared cluster")
	}
}

func TestRender(t *testing.T) {
	if got := bounds.Render(absint.Point(3)); got != "3" {
		t.Errorf("Render point = %q", got)
	}
	if got := bounds.Render(absint.Of(1, math.Inf(1))); got != "[1, inf]" {
		t.Errorf("Render open = %q", got)
	}
	if got := bounds.Render(absint.Empty()); got != "-" {
		t.Errorf("Render empty = %q", got)
	}
}
