package main

import (
	"math"
	"testing"
	"time"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{99, 0.90, false}, {100, 0.90, true}, {999, 0.99, false}, {1000, 0.99, true}, {9999, 0.999, false}, {10000, 0.999, true},
	}
	for _, c := range cases {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	var s Samples
	for i := 1; i <= 99; i++ {
		s = append(s, float64(i))
	}
	if got := tailOf(s, 0.90); got != 0 {
		t.Errorf("p90 of 99 samples reported as %v, want unsupported (0)", got)
	}
	s = append(s, 100)
	if got := tailOf(s, 0.90); math.Abs(got-90.1) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, want 90.1", got)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
}

// spread must agree with Python's statistics.quantiles(v, n=4): for 1..10 the
// quartiles are 2.75 and 8.25 and the median 5.5.
func TestSpreadMatchesPythonQuartiles(t *testing.T) {
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if !math.IsNaN(spread([]float64{1, 2, 3})) {
		t.Error("spread of fewer than four values must be NaN")
	}
}

func TestTimeOpReportsPerCallTime(t *testing.T) {
	ns, n := timeOp(20*time.Millisecond, 10, func() { time.Sleep(100 * time.Microsecond) })
	if n < 5 || ns < 100e3 || ns > 5e6 {
		t.Errorf("timeOp = %v ns over %d batches for a 100 us call", ns, n)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "parent", Start: 0, End: 100e6},
		{ID: 2, Parent: 1, Name: "child", Start: 10e6, End: 40e6},
		{ID: 3, Parent: 1, Name: "child", Start: 30e6, End: 60e6}, // overlaps the first
		{ID: 4, Parent: 1, Name: "open", Start: 70e6, End: 0},     // never closed
	}
	self := selfTimes(spans)
	if got := self["parent"]; len(got) != 1 || got[0] != 50 {
		t.Errorf("parent self time = %v ms, want [50]", got)
	}
	if got := self["child"]; len(got) != 2 || got[0] != 30 || got[1] != 30 {
		t.Errorf("child self times = %v ms, want [30 30]", got)
	}
	if _, ok := self["open"]; ok {
		t.Error("a span that never closed has no self time")
	}
}
