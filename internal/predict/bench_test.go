package predict

import (
	"testing"

	"harmony/internal/cluster"
	"harmony/internal/match"
	"harmony/internal/rsl"
)

func benchSetup(b *testing.B) (*Predictor, *match.Assignment) {
	b.Helper()
	c, err := cluster.NewSP2(8)
	if err != nil {
		b.Fatal(err)
	}
	p := New(c.Ledger())
	asg := &match.Assignment{
		Nodes: []match.NodeAssignment{
			{LocalName: "a", Hostname: "sp2-01", Seconds: 100, CPULoad: 1},
			{LocalName: "b", Hostname: "sp2-02", Seconds: 100, CPULoad: 1},
			{LocalName: "c", Hostname: "sp2-03", Seconds: 50, CPULoad: 0.5},
		},
		Links: []match.LinkAssignment{
			{HostA: "sp2-01", HostB: "sp2-02", BandwidthMbps: 40},
		},
		CommunicationMbps: 60,
	}
	return p, asg
}

func BenchmarkDefaultModel(b *testing.B) {
	p, asg := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Default(asg, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExplicitModel(b *testing.B) {
	p, asg := benchSetup(b)
	pts := []rsl.PerfPoint{{X: 1, Y: 300}, {X: 2, Y: 160}, {X: 4, Y: 90}, {X: 8, Y: 70}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Explicit(pts, asg, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpolate(b *testing.B) {
	pts := []rsl.PerfPoint{{X: 1, Y: 300}, {X: 2, Y: 160}, {X: 4, Y: 90}, {X: 8, Y: 70}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Interpolate(pts, float64(i%9)); err != nil {
			b.Fatal(err)
		}
	}
}
