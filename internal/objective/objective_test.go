package objective

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func jobs(times ...float64) []JobPrediction {
	out := make([]JobPrediction, len(times))
	for i, t := range times {
		out[i] = JobPrediction{App: "a", Seconds: t}
	}
	return out
}

func TestMeanResponseTime(t *testing.T) {
	if got := MeanResponseTime(jobs(10, 20, 30)); got != 20 {
		t.Fatalf("mean = %g", got)
	}
	if got := MeanResponseTime(nil); got != 0 {
		t.Fatalf("empty mean = %g", got)
	}
	if got := MeanResponseTime(jobs(-1)); !math.IsInf(got, 1) {
		t.Fatalf("negative time mean = %g, want +Inf", got)
	}
	if got := MeanResponseTime(jobs(math.NaN())); !math.IsInf(got, 1) {
		t.Fatalf("NaN mean = %g, want +Inf", got)
	}
}

func TestTotalResponseTime(t *testing.T) {
	if got := TotalResponseTime(jobs(10, 20)); got != 30 {
		t.Fatalf("total = %g", got)
	}
	if got := TotalResponseTime(nil); got != 0 {
		t.Fatalf("empty total = %g", got)
	}
	if got := TotalResponseTime(jobs(-1)); !math.IsInf(got, 1) {
		t.Fatal("negative accepted")
	}
}

func TestNegThroughput(t *testing.T) {
	if got := NegThroughput(jobs(10, 10)); got != -0.2 {
		t.Fatalf("negThroughput = %g", got)
	}
	if got := NegThroughput(jobs(0)); !math.IsInf(got, 1) {
		t.Fatal("zero time accepted")
	}
	if got := NegThroughput(nil); got != 0 {
		t.Fatalf("empty = %g", got)
	}
}

func TestMaxResponseTime(t *testing.T) {
	if got := MaxResponseTime(jobs(5, 50, 12)); got != 50 {
		t.Fatalf("max = %g", got)
	}
	if got := MaxResponseTime(jobs(-1)); !math.IsInf(got, 1) {
		t.Fatal("negative accepted")
	}
}

func TestWeightedMean(t *testing.T) {
	js := []JobPrediction{
		{Seconds: 10, Weight: 3},
		{Seconds: 20}, // weight defaults to 1
	}
	if got := WeightedMean(js); got != 12.5 {
		t.Fatalf("weighted mean = %g", got)
	}
	if got := WeightedMean(nil); got != 0 {
		t.Fatalf("empty = %g", got)
	}
	if got := WeightedMean([]JobPrediction{{Seconds: 1, Weight: -1}}); !math.IsInf(got, 1) {
		t.Fatal("negative weight accepted")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"", "mean", "meanResponseTime", "total", "throughput", "max", "makespan", "weighted"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("nonsense"); err == nil {
		t.Fatal("unknown objective accepted")
	}
	// Resolved function behaves like the original.
	f, err := ByName("mean")
	if err != nil {
		t.Fatal(err)
	}
	if f(jobs(4, 6)) != 5 {
		t.Fatal("resolved mean broken")
	}
}

// Property: for non-negative inputs, mean is between min and max, and
// adding a job equal to the current mean leaves the mean unchanged.
func TestPropertyMeanBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		js := make([]JobPrediction, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			v := float64(r)
			js[i] = JobPrediction{Seconds: v}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		m := MeanResponseTime(js)
		if m < lo-1e-9 || m > hi+1e-9 {
			return false
		}
		m2 := MeanResponseTime(append(js, JobPrediction{Seconds: m}))
		return math.Abs(m2-m) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestObjectivesAreMonotone holds every objective ByName resolves to the
// Func contract the joint search's bound rests on: on seeded random jobs —
// seconds from denormal to the largest float, weights zero or positive —
// raising any one job's positive seconds, by one ulp, by a random factor or to
// +Inf, never lowers the result, compared as float64s.
func TestObjectivesAreMonotone(t *testing.T) {
	names := []string{"", "mean", "meanResponseTime", "total", "totalResponseTime", "throughput", "max", "makespan", "weighted", "weightedMean"}
	rng := rand.New(rand.NewSource(1))
	seconds := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return math.SmallestNonzeroFloat64
		case 1:
			return math.MaxFloat64
		}
		return math.Exp(40*rng.Float64() - 20)
	}
	checked := 0
	for round := 0; round < 2000; round++ {
		js := make([]JobPrediction, 1+rng.Intn(12))
		for i := range js {
			js[i].Seconds = seconds()
			if rng.Intn(2) == 0 {
				js[i].Weight = math.Exp(10*rng.Float64() - 5)
			}
		}
		i := rng.Intn(len(js))
		s := js[i].Seconds
		for _, raised := range []float64{math.Nextafter(s, math.Inf(1)), s * (1 + rng.Float64()), s + seconds(), math.Inf(1)} {
			up := slices.Clone(js)
			up[i].Seconds = raised
			for _, name := range names {
				f, err := ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				if before, after := f(js), f(up); after < before {
					t.Fatalf("%q: raising job %d from %v to %v lowered %v to %v (jobs %+v)", name, i, s, raised, before, after, js)
				}
				checked++
			}
		}
	}
	t.Logf("%d raises checked", checked)
}

// Property: improving (reducing) any single job's time never worsens mean,
// total, max, or negated throughput.
func TestPropertyMonotoneObjectives(t *testing.T) {
	objectives := []Func{MeanResponseTime, TotalResponseTime, MaxResponseTime, NegThroughput}
	f := func(raw []uint16, idx uint8, delta uint16) bool {
		if len(raw) == 0 {
			return true
		}
		js := make([]JobPrediction, len(raw))
		for i, r := range raw {
			js[i] = JobPrediction{Seconds: float64(r) + 1} // strictly positive
		}
		i := int(idx) % len(js)
		improved := make([]JobPrediction, len(js))
		copy(improved, js)
		d := float64(delta)
		if d >= improved[i].Seconds {
			d = improved[i].Seconds / 2
		}
		improved[i].Seconds -= d
		for _, obj := range objectives {
			if obj(improved) > obj(js)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
