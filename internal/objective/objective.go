// Package objective implements Harmony's overarching objective functions
// (Section 4.2 of the paper). An objective is "a single variable that
// represents the overall behavior of the system we are trying to optimize
// (across multiple applications) ... a measure of goodness for each
// application scaled into a common currency". The controller minimizes the
// objective; the paper's current policy minimizes the average completion
// time of the jobs in the system.
package objective

import (
	"errors"
	"math"
)

// JobPrediction pairs an application identifier with its predicted response
// time and an optional weight.
type JobPrediction struct {
	// App identifies the application instance.
	App string
	// Seconds is the predicted completion/response time.
	Seconds float64
	// Weight scales the job's contribution for weighted objectives; zero
	// means 1.
	Weight float64
}

// Func reduces a set of job predictions to a single value to MINIMIZE.
// Implementations must return +Inf rather than an error for infeasible
// states so the optimizer can rank them last.
//
// An objective must be non-decreasing in every job's Seconds over positive
// values: raising one job's Seconds from a positive value, by however little,
// must never lower the result, whatever the other jobs hold. The controller's
// joint search rests on this: it skips a branch when the objective over lower
// bounds of the predictions still to be made cannot beat the best combination
// found, which is sound only if a larger prediction never scores better. Every
// objective ByName returns complies (TestObjectivesAreMonotone).
type Func func(jobs []JobPrediction) float64

// MeanResponseTime is the paper's default objective: the average predicted
// completion time of all jobs currently in the system. An empty system
// scores zero.
func MeanResponseTime(jobs []JobPrediction) float64 {
	if len(jobs) == 0 {
		return 0
	}
	sum := 0.0
	for _, j := range jobs {
		if j.Seconds < 0 || math.IsNaN(j.Seconds) {
			return math.Inf(1)
		}
		sum += j.Seconds
	}
	return sum / float64(len(jobs))
}

// TotalResponseTime sums predicted times; with a fixed job set it ranks
// identically to MeanResponseTime but composes additively.
func TotalResponseTime(jobs []JobPrediction) float64 {
	if len(jobs) == 0 {
		return 0
	}
	sum := 0.0
	for _, j := range jobs {
		if j.Seconds < 0 || math.IsNaN(j.Seconds) {
			return math.Inf(1)
		}
		sum += j.Seconds
	}
	return sum
}

// NegThroughput is system throughput (jobs per second) negated so that
// minimizing it maximizes throughput; the paper names throughput as the
// default overall objective for option evaluation.
func NegThroughput(jobs []JobPrediction) float64 {
	sum := 0.0
	for _, j := range jobs {
		if j.Seconds <= 0 || math.IsNaN(j.Seconds) {
			return math.Inf(1)
		}
		sum += 1.0 / j.Seconds
	}
	return -sum
}

// MaxResponseTime is a makespan-style objective: the worst predicted time.
func MaxResponseTime(jobs []JobPrediction) float64 {
	worst := 0.0
	for _, j := range jobs {
		if j.Seconds < 0 || math.IsNaN(j.Seconds) {
			return math.Inf(1)
		}
		if j.Seconds > worst {
			worst = j.Seconds
		}
	}
	return worst
}

// WeightedMean averages weighted response times (weight zero counts as 1).
func WeightedMean(jobs []JobPrediction) float64 {
	if len(jobs) == 0 {
		return 0
	}
	sum, wsum := 0.0, 0.0
	for _, j := range jobs {
		if j.Seconds < 0 || math.IsNaN(j.Seconds) {
			return math.Inf(1)
		}
		w := j.Weight
		if w == 0 {
			w = 1
		}
		if w < 0 {
			return math.Inf(1)
		}
		sum += w * j.Seconds
		wsum += w
	}
	if wsum == 0 {
		return 0
	}
	return sum / wsum
}

// ByName resolves the built-in objectives for configuration files and CLIs.
func ByName(name string) (Func, error) {
	switch name {
	case "", "mean", "meanResponseTime":
		return MeanResponseTime, nil
	case "total", "totalResponseTime":
		return TotalResponseTime, nil
	case "throughput":
		return NegThroughput, nil
	case "max", "makespan":
		return MaxResponseTime, nil
	case "weighted", "weightedMean":
		return WeightedMean, nil
	}
	return nil, errors.New("objective: unknown objective " + name)
}
