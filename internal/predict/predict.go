// Package predict implements Harmony's performance prediction (Section 4.2
// of the paper). Harmony's decisions are guided by predicted response
// times: a simple default model combines CPU and network requirements,
// "suitably scaled to reflect resource contention", and applications with
// more complicated behaviour supply explicit models as piecewise-linear
// curves over data points (Section 3.4).
package predict

import (
	"errors"
	"fmt"

	"harmony/internal/match"
	"harmony/internal/resource"
	"harmony/internal/rsl"
)

// Prediction breaks down a predicted response time.
type Prediction struct {
	// Seconds is the projected response time in virtual seconds.
	Seconds float64
	// CPUSeconds is the contention-scaled compute component.
	CPUSeconds float64
	// CommScale is the network contention multiplier applied (>= 1).
	CommScale float64
}

// Predictor computes response-time predictions against a resource view
// (the live ledger, or a snapshot for hypothetical evaluation).
type Predictor struct {
	ledger resource.View
}

// New returns a predictor over the ledger.
func New(ledger *resource.Ledger) *Predictor {
	return &Predictor{ledger: ledger}
}

// NewWithView returns a predictor over an arbitrary resource view.
func NewWithView(view resource.View) *Predictor {
	return &Predictor{ledger: view}
}

// WithView returns a predictor bound to another view, e.g. a ledger
// snapshot holding a trial reservation.
func (p *Predictor) WithView(view resource.View) *Predictor {
	return &Predictor{ledger: view}
}

// Default applies the paper's default model to an assignment.
//
// The compute component is the slowest node placement: each placement of S
// reference-seconds on a node runs at the node's contention-scaled
// effective speed. When selfReserved is false the assignment's own CPU load
// and bandwidth are added on top of the ledger state (evaluating a
// hypothetical placement); when true the ledger already includes them
// (re-evaluating a running application).
//
// The network component is a multiplicative slowdown: the worst
// over-subscription among the links the assignment uses stretches the
// response time proportionally, modelling senders that must share the wire.
func (p *Predictor) Default(asg *match.Assignment, selfReserved bool) (Prediction, error) {
	if asg == nil {
		return Prediction{}, errors.New("predict: nil assignment")
	}
	selfLoad := selfLoadByHost(asg, selfReserved)
	cpu := 0.0
	for _, n := range asg.Nodes {
		ns, err := p.ledger.Node(n.Hostname)
		if err != nil {
			return Prediction{}, fmt.Errorf("predict: %w", err)
		}
		load := ns.CPULoad + selfLoad[n.Hostname]
		speed := resource.EffectiveSpeed(ns.Node.Speed, ns.Node.CPUs, load)
		if speed <= 0 {
			return Prediction{}, fmt.Errorf("predict: node %s has no capacity", n.Hostname)
		}
		if t := n.Seconds / speed; t > cpu {
			cpu = t
		}
	}
	scale, err := p.commScale(asg, selfReserved)
	if err != nil {
		return Prediction{}, err
	}
	return Prediction{Seconds: cpu * scale, CPUSeconds: cpu, CommScale: scale}, nil
}

// selfLoadByHost sums the assignment's own CPU load per host (several
// processes may share one), for predicting a placement the view does not
// hold yet. A reserved assignment is already in the view: nil, which reads
// as zero for every host.
func selfLoadByHost(asg *match.Assignment, selfReserved bool) map[string]float64 {
	if selfReserved {
		return nil
	}
	selfLoad := make(map[string]float64, len(asg.Nodes))
	for _, n := range asg.Nodes {
		selfLoad[n.Hostname] += n.CPULoad
	}
	return selfLoad
}

// commScale finds the worst over-subscription among the assignment's links.
func (p *Predictor) commScale(asg *match.Assignment, selfReserved bool) (float64, error) {
	worst := 1.0
	consider := func(a, b string, ourBW float64) error {
		if a == b {
			return nil
		}
		ls, err := p.ledger.Link(a, b)
		if err != nil {
			return fmt.Errorf("predict: %w", err)
		}
		reserved := ls.ReservedMbps
		if !selfReserved {
			reserved += ourBW
		}
		if ls.Link.BandwidthMbps > 0 {
			if u := reserved / ls.Link.BandwidthMbps; u > worst {
				worst = u
			}
		}
		return nil
	}
	for _, l := range asg.Links {
		if err := consider(l.HostA, l.HostB, l.BandwidthMbps); err != nil {
			return 0, err
		}
	}
	if asg.CommunicationMbps > 0 {
		hosts := asg.Hosts()
		if len(hosts) > 1 {
			pairs := len(hosts) * (len(hosts) - 1) / 2
			per := asg.CommunicationMbps / float64(pairs)
			for i := 0; i < len(hosts); i++ {
				for j := i + 1; j < len(hosts); j++ {
					if err := consider(hosts[i], hosts[j], per); err != nil {
						return 0, err
					}
				}
			}
		}
	}
	return worst, nil
}

// Interpolate evaluates a piecewise-linear curve at x. Points must be
// sorted by X (the RSL decoder guarantees this); outside the data range the
// curve extends flat, matching the paper's "interpolate using a piecewise
// linear curve based on the supplied values".
func Interpolate(points []rsl.PerfPoint, x float64) (float64, error) {
	if len(points) == 0 {
		return 0, errors.New("predict: no performance points")
	}
	if x <= points[0].X {
		return points[0].Y, nil
	}
	last := points[len(points)-1]
	if x >= last.X {
		return last.Y, nil
	}
	for i := 1; i < len(points); i++ {
		if x <= points[i].X {
			p0, p1 := points[i-1], points[i]
			frac := (x - p0.X) / (p1.X - p0.X)
			return p0.Y + frac*(p1.Y-p0.Y), nil
		}
	}
	return last.Y, nil // unreachable with sorted points
}

// Explicit applies an application-supplied piecewise-linear model: the
// curve gives the unloaded running time at the assignment's node count, and
// the same contention factors as the default model stretch it when the
// chosen nodes or links are shared.
func (p *Predictor) Explicit(points []rsl.PerfPoint, asg *match.Assignment, selfReserved bool) (Prediction, error) {
	if asg == nil {
		return Prediction{}, errors.New("predict: nil assignment")
	}
	base, err := Interpolate(points, float64(len(asg.Nodes)))
	if err != nil {
		return Prediction{}, err
	}
	cpuScale, err := p.cpuContention(asg, selfReserved)
	if err != nil {
		return Prediction{}, err
	}
	commScale, err := p.commScale(asg, selfReserved)
	if err != nil {
		return Prediction{}, err
	}
	cpu := base * cpuScale
	return Prediction{Seconds: cpu * commScale, CPUSeconds: cpu, CommScale: commScale}, nil
}

// cpuContention is the worst slowdown factor among assigned nodes: nominal
// speed divided by contention-scaled effective speed.
func (p *Predictor) cpuContention(asg *match.Assignment, selfReserved bool) (float64, error) {
	selfLoad := selfLoadByHost(asg, selfReserved)
	worst := 1.0
	for _, n := range asg.Nodes {
		ns, err := p.ledger.Node(n.Hostname)
		if err != nil {
			return 0, fmt.Errorf("predict: %w", err)
		}
		load := ns.CPULoad + selfLoad[n.Hostname]
		eff := resource.EffectiveSpeed(ns.Node.Speed, ns.Node.CPUs, load)
		if eff <= 0 {
			return 0, fmt.Errorf("predict: node %s has no capacity", n.Hostname)
		}
		if s := ns.Node.Speed / eff; s > worst {
			worst = s
		}
	}
	return worst, nil
}

// ForOption predicts an assignment using the option's explicit model when
// present (the "performance" tag overrides Harmony's default prediction,
// Table 1), falling back to the default model otherwise.
func (p *Predictor) ForOption(opt *rsl.OptionSpec, asg *match.Assignment, selfReserved bool) (Prediction, error) {
	if opt == nil {
		return Prediction{}, errors.New("predict: nil option")
	}
	if len(opt.Performance) > 0 {
		return p.Explicit(opt.Performance, asg, selfReserved)
	}
	return p.Default(asg, selfReserved)
}
