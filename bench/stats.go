package main

import (
	"math"
	"sort"
	"time"
)

// Samples collects one timing's observations in milliseconds.
type Samples []float64

func (s *Samples) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// sorted returns an ascending copy.
func (s Samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile reads the q-quantile (0..1) of an ascending slice by linear
// interpolation between closest ranks; NaN when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// tailSupported reports whether percentile p has ten samples beyond it. The
// epsilon absorbs 1-p not being exact in binary (100 × (1-0.9) < 10).
func tailSupported(n int, p float64) bool { return float64(n)*(1-p)+1e-9 >= 10 }

// spread is the interquartile distance as a share of the median, the
// steadiness figure the benchmark contract bounds.
func spread(v []float64) float64 {
	if len(v) < 4 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	// statistics.quantiles(n=4), exclusive method: positions (n+1)/4 and 3(n+1)/4.
	q := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(len(s)-1) {
			return s[len(s)-1]
		}
		lo := int(math.Floor(pos))
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	return (q(0.75) - q(0.25)) / quantile(s, 0.5)
}

// timeOp calls f in batches of batch calls for about budget and returns the
// median time of one call in nanoseconds and the number of batches timed.
// Sub-microsecond operations need batch > 1 to rise above the clock's grain.
func timeOp(budget time.Duration, batch int, f func()) (nsPerCall float64, batches int) {
	var per []float64
	deadline := time.Now().Add(budget)
	for len(per) < 5 || (time.Now().Before(deadline) && len(per) < 100000) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(batch))
	}
	return median(per), len(per)
}
