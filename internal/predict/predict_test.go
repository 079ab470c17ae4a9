package predict

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"harmony/internal/cluster"
	"harmony/internal/match"
	"harmony/internal/resource"
	"harmony/internal/rsl"
)

// byOption predicts through the Predictor's front door, ForOption, with an
// option that has no performance curve (the default model) or one that has.
type byOption struct{ p *Predictor }

func (m byOption) Default(asg *match.Assignment, selfReserved bool) (Prediction, error) {
	return m.p.ForOption(&rsl.OptionSpec{}, asg, selfReserved)
}

func (m byOption) Explicit(points []rsl.PerfPoint, asg *match.Assignment, selfReserved bool) (Prediction, error) {
	return m.p.ForOption(&rsl.OptionSpec{Performance: points}, asg, selfReserved)
}

func sp2(t *testing.T, n int) (*cluster.Cluster, byOption, *match.Matcher) {
	t.Helper()
	c, err := cluster.NewSP2(n)
	if err != nil {
		t.Fatal(err)
	}
	return c, byOption{NewWithView(c.Ledger())}, match.New(c.Ledger())
}

func TestDefaultIdleCluster(t *testing.T) {
	_, p, _ := sp2(t, 2)
	asg := &match.Assignment{
		Option: "O",
		Nodes: []match.NodeAssignment{
			{LocalName: "a", Hostname: "sp2-01", Seconds: 100, CPULoad: 1},
		},
	}
	pred, err := p.Default(asg, false)
	if err != nil {
		t.Fatalf("Default: %v", err)
	}
	// Idle unit-speed node, load 1 <= 1 CPU: runs at nominal speed.
	if pred.Seconds != 100 || pred.CPUSeconds != 100 || pred.CommScale != 1 {
		t.Fatalf("prediction = %+v", pred)
	}
}

func TestDefaultCPUContention(t *testing.T) {
	c, p, _ := sp2(t, 1)
	// Two jobs already on sp2-01.
	if _, err := c.Ledger().Reserve("bg", []resource.NodeClaim{
		{Hostname: "sp2-01", CPULoad: 2},
	}, nil); err != nil {
		t.Fatal(err)
	}
	asg := &match.Assignment{Nodes: []match.NodeAssignment{
		{LocalName: "a", Hostname: "sp2-01", Seconds: 100, CPULoad: 1},
	}}
	pred, err := p.Default(asg, false)
	if err != nil {
		t.Fatal(err)
	}
	// Total load 3 on one CPU: effective speed 1/3 -> 300 s.
	if math.Abs(pred.Seconds-300) > 1e-9 {
		t.Fatalf("contended prediction = %g, want 300", pred.Seconds)
	}
	// With selfReserved=true only the pre-existing load of 2 counts.
	pred, err = p.Default(asg, true)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred.Seconds-200) > 1e-9 {
		t.Fatalf("selfReserved prediction = %g, want 200", pred.Seconds)
	}
}

func TestDefaultSlowestNodeDominates(t *testing.T) {
	decls := []*rsl.NodeDecl{
		{Hostname: "fast", Speed: 2, MemoryMB: 128, CPUs: 1},
		{Hostname: "slow", Speed: 0.5, MemoryMB: 128, CPUs: 1},
	}
	c, err := cluster.New(cluster.Config{}, decls)
	if err != nil {
		t.Fatal(err)
	}
	p := byOption{NewWithView(c.Ledger())}
	asg := &match.Assignment{Nodes: []match.NodeAssignment{
		{LocalName: "a", Hostname: "fast", Seconds: 100, CPULoad: 1}, // 50 s
		{LocalName: "b", Hostname: "slow", Seconds: 100, CPULoad: 1}, // 200 s
	}}
	pred, err := p.Default(asg, false)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Seconds != 200 {
		t.Fatalf("prediction = %g, want 200 (slowest node)", pred.Seconds)
	}
}

func TestDefaultLinkContention(t *testing.T) {
	c, p, _ := sp2(t, 2)
	// Background traffic fills 75% of the 320 Mbps link.
	if _, err := c.Ledger().Reserve("bg", nil, []resource.LinkClaim{
		{A: "sp2-01", B: "sp2-02", BandwidthMbps: 240},
	}); err != nil {
		t.Fatal(err)
	}
	asg := &match.Assignment{
		Nodes: []match.NodeAssignment{
			{LocalName: "a", Hostname: "sp2-01", Seconds: 100, CPULoad: 1},
			{LocalName: "b", Hostname: "sp2-02", Seconds: 100, CPULoad: 1},
		},
		Links: []match.LinkAssignment{
			{LocalA: "a", LocalB: "b", HostA: "sp2-01", HostB: "sp2-02", BandwidthMbps: 160},
		},
	}
	pred, err := p.Default(asg, false)
	if err != nil {
		t.Fatal(err)
	}
	// (240+160)/320 = 1.25 over-subscription.
	if math.Abs(pred.CommScale-1.25) > 1e-9 {
		t.Fatalf("comm scale = %g, want 1.25", pred.CommScale)
	}
	if math.Abs(pred.Seconds-125) > 1e-9 {
		t.Fatalf("prediction = %g, want 125", pred.Seconds)
	}
}

func TestDefaultCommunicationAggregate(t *testing.T) {
	_, p, m := sp2(t, 4)
	bundles, _, err := rsl.DecodeScript(`
harmonyBundle Bag:1 p {
	{workers
		{node worker * {seconds {300 / w}} {memory 32} {replicate w}}
		{communication {100 * w}}
	}
}`)
	if err != nil {
		t.Fatal(err)
	}
	opt := &bundles[0].Options[0]
	asg, err := m.Match(match.Request{Option: opt, Env: rsl.MapEnv{"w": 4}})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := p.Default(asg, false)
	if err != nil {
		t.Fatal(err)
	}
	// 400 Mbps aggregate over 6 pairs = 66.7 per pair, under 320: scale 1.
	if pred.CommScale != 1 {
		t.Fatalf("comm scale = %g, want 1", pred.CommScale)
	}
	// Push to w where per-pair demand exceeds capacity: 4000/6 = 666 > 320.
	asg.CommunicationMbps = 4000
	pred, err = p.Default(asg, false)
	if err != nil {
		t.Fatal(err)
	}
	if pred.CommScale <= 2 {
		t.Fatalf("comm scale = %g, want > 2", pred.CommScale)
	}
}

func TestDefaultErrors(t *testing.T) {
	_, p, _ := sp2(t, 1)
	if _, err := p.Default(nil, false); err == nil {
		t.Fatal("nil assignment accepted")
	}
	asg := &match.Assignment{Nodes: []match.NodeAssignment{{Hostname: "ghost", Seconds: 1}}}
	if _, err := p.Default(asg, false); err == nil {
		t.Fatal("unknown host accepted")
	}
}

func TestInterpolate(t *testing.T) {
	pts := []rsl.PerfPoint{{X: 1, Y: 300}, {X: 2, Y: 160}, {X: 4, Y: 90}, {X: 8, Y: 70}}
	cases := []struct{ x, want float64 }{
		{0.5, 300}, // flat below range
		{1, 300},
		{1.5, 230}, // midpoint of 300..160
		{2, 160},
		{3, 125}, // midpoint of 160..90
		{4, 90},
		{6, 80},
		{8, 70},
		{16, 70}, // flat above range
	}
	for _, tc := range cases {
		got, err := Interpolate(pts, tc.x)
		if err != nil {
			t.Fatalf("Interpolate(%g): %v", tc.x, err)
		}
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Interpolate(%g) = %g, want %g", tc.x, got, tc.want)
		}
	}
	if _, err := Interpolate(nil, 1); err == nil {
		t.Fatal("empty points accepted")
	}

	// Against a linear scan for the first knot with x <= X, bit for bit, over
	// sorted curves whose knots may repeat an X, at every knot, between
	// knots and beyond both ends.
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 2000; n++ {
		pts := make([]rsl.PerfPoint, 1+rng.Intn(8))
		for i := range pts {
			pts[i] = rsl.PerfPoint{X: float64(rng.Intn(10)), Y: rng.Float64() * 100}
		}
		slices.SortFunc(pts, func(a, b rsl.PerfPoint) int { return cmp.Compare(a.X, b.X) })
		for x := -0.5; x <= 10.5; x += 0.25 {
			got, _ := Interpolate(pts, x)
			if want := interpolateLinear(pts, x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Interpolate(%v, %g) = %g, a linear scan gives %g", pts, x, got, want)
			}
		}
	}
}

// interpolateLinear is Interpolate finding its segment by a linear scan.
func interpolateLinear(points []rsl.PerfPoint, x float64) float64 {
	last := points[len(points)-1]
	if x <= points[0].X {
		return points[0].Y
	}
	if x >= last.X {
		return last.Y
	}
	for i := 1; i < len(points); i++ {
		if x <= points[i].X {
			p0, p1 := points[i-1], points[i]
			return p0.Y + (x-p0.X)/(p1.X-p0.X)*(p1.Y-p0.Y)
		}
	}
	return last.Y
}

func TestExplicitModel(t *testing.T) {
	c, p, _ := sp2(t, 4)
	pts := []rsl.PerfPoint{{X: 1, Y: 300}, {X: 2, Y: 160}, {X: 4, Y: 90}}
	asg := &match.Assignment{Nodes: []match.NodeAssignment{
		{LocalName: "w", Hostname: "sp2-01", Seconds: 75, CPULoad: 1},
		{LocalName: "w", Hostname: "sp2-02", Seconds: 75, CPULoad: 1},
	}}
	pred, err := p.Explicit(pts, asg, false)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Seconds != 160 {
		t.Fatalf("explicit idle prediction = %g, want 160", pred.Seconds)
	}
	// Add background load on sp2-01: model time stretches 2x.
	if _, err := c.Ledger().Reserve("bg", []resource.NodeClaim{{Hostname: "sp2-01", CPULoad: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	pred, err = p.Explicit(pts, asg, false)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Seconds != 320 {
		t.Fatalf("explicit contended prediction = %g, want 320", pred.Seconds)
	}
}

func TestForOptionSelectsModel(t *testing.T) {
	_, p, m := sp2(t, 2)
	bundles, _, err := rsl.DecodeScript(`
harmonyBundle A:1 b {
	{explicit
		{node n * {seconds 50} {memory 1}}
		{performance {{1 42}}}
	}
	{implicit
		{node n * {seconds 50} {memory 1}}
	}
}`)
	if err != nil {
		t.Fatal(err)
	}
	b := bundles[0]
	asgE, err := m.Match(match.Request{Option: b.Option("explicit")})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := p.p.ForOption(b.Option("explicit"), asgE, false)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Seconds != 42 {
		t.Fatalf("explicit via ForOption = %g, want 42", pred.Seconds)
	}
	asgI, err := m.Match(match.Request{Option: b.Option("implicit")})
	if err != nil {
		t.Fatal(err)
	}
	pred, err = p.p.ForOption(b.Option("implicit"), asgI, false)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Seconds != 50 {
		t.Fatalf("default via ForOption = %g, want 50", pred.Seconds)
	}
	if _, err := p.p.ForOption(nil, asgI, false); err == nil {
		t.Fatal("nil option accepted")
	}
}

// Property: interpolation stays within the convex hull of Y values.
func TestPropertyInterpolateBounds(t *testing.T) {
	pts := []rsl.PerfPoint{{X: 1, Y: 300}, {X: 2, Y: 160}, {X: 4, Y: 90}, {X: 8, Y: 70}}
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		y, err := Interpolate(pts, x)
		return err == nil && y >= 70 && y <= 300
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: more background CPU load never improves the default prediction.
func TestPropertyMonotonicContention(t *testing.T) {
	f := func(loadsRaw []uint8) bool {
		c, err := cluster.NewSP2(1)
		if err != nil {
			return false
		}
		p := byOption{NewWithView(c.Ledger())}
		asg := &match.Assignment{Nodes: []match.NodeAssignment{
			{LocalName: "a", Hostname: "sp2-01", Seconds: 100, CPULoad: 1},
		}}
		prev := 0.0
		for _, lr := range loadsRaw {
			if _, err := c.Ledger().Reserve("bg", []resource.NodeClaim{
				{Hostname: "sp2-01", CPULoad: float64(lr%8) / 4},
			}, nil); err != nil {
				return false
			}
			pred, err := p.Default(asg, false)
			if err != nil {
				return false
			}
			if pred.Seconds+1e-9 < prev {
				return false
			}
			prev = pred.Seconds
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
