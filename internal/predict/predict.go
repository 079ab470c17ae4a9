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
	"slices"

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

// Predictor predicts assignments named by hostname against a resource view
// (the live ledger, or a snapshot for hypothetical evaluation). It is the
// front door for callers that predict a placement once; each call resolves
// the assignment against the view and hands it to the model in Indexed,
// where the arithmetic lives.
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

// resolve reads the view by index and resolves asg against it.
func (p *Predictor) resolve(asg *match.Assignment) (Indexed, *Placement, error) {
	if asg == nil {
		return Indexed{}, nil, errors.New("predict: nil assignment")
	}
	snap := p.ledger.Indexed()
	return Indexed{View: snap}, Resolve(snap, asg), nil
}

// Default applies the paper's default model to an assignment; see
// Indexed.Default.
func (p *Predictor) Default(asg *match.Assignment, selfReserved bool) (Prediction, error) {
	in, pl, err := p.resolve(asg)
	if err != nil {
		return Prediction{}, err
	}
	return in.Default(pl, selfReserved)
}

// Placement is an assignment resolved against one topology: where each of
// its nodes sits in the hostname-ordered node table and the id of each link
// it loads, in the order the models visit them. Resolving is the only step
// of a prediction that looks anything up by hostname, so a caller that
// predicts one assignment many times (the controller predicts every resident
// once per candidate of every other resident) resolves it once. A Placement
// holds for every snapshot of the topology it was resolved against (Resolved
// tells whether a given snapshot is one) and changes only if its owner
// resolves another assignment into it.
type Placement struct {
	asg   *match.Assignment
	topo  resource.Topology
	at    []int32 // asg.Places: nodes, then the ids links carries
	nodes []int32 // index of each asg.Nodes entry's host; -1: not registered
	links []placedLink
}

// placedLink is one link the assignment loads, in match.Assignment.EachLink's
// order.
type placedLink struct {
	id   int32 // -1: the hosts are not linked
	a, b string
	rate float64
}

// Resolve resolves asg against the snapshot's topology. It cannot fail: a
// host or link the topology does not know is marked, and the model reports
// it when it reaches it, as reading by hostname would. An assignment that
// Match placed on this topology brings its indices with it and nothing is
// looked up.
func Resolve(snap *resource.Snapshot, asg *match.Assignment) *Placement {
	pl := &Placement{at: make([]int32, 0, len(asg.Nodes)+len(asg.Links))}
	return pl.Resolve(snap, asg)
}

// Resolve makes pl the placement Resolve(snap, asg) returns, in pl's own
// storage, and returns pl: for a caller that resolves one trial assignment
// after another and keeps none. Whoever held pl's previous contents sees them
// change.
func (pl *Placement) Resolve(snap *resource.Snapshot, asg *match.Assignment) *Placement {
	pl.at = asg.Places(snap, pl.at[:0])
	pl.asg, pl.topo = asg, snap.Topology()
	pl.nodes = pl.at[:len(asg.Nodes):len(asg.Nodes)]
	pl.links = pl.links[:0]
	if ids := pl.at[len(asg.Nodes):]; len(ids) > 0 {
		pl.links = slices.Grow(pl.links, len(ids))
		asg.EachLink(func(a, b string, rate float64) {
			pl.links = append(pl.links, placedLink{id: ids[len(pl.links)], a: a, b: b, rate: rate})
		})
	}
	return pl
}

// Assignment returns the assignment the placement resolves.
func (pl *Placement) Assignment() *match.Assignment { return pl.asg }

// Resolved reports whether the placement's indices are the snapshot's: they
// stop being so when a node or link is added to the cluster.
func (pl *Placement) Resolved(snap *resource.Snapshot) bool {
	return pl.topo == snap.Topology()
}

// NodeIndices returns the node-table index of each node placement's host, in
// assignment order, -1 standing for a host that is not registered. The slice
// is the placement's own and must not be written to.
func (pl *Placement) NodeIndices() []int32 { return pl.nodes }

// LinkIDs returns the id of each link the placement loads, in the order the
// models visit them, -1 standing for a pair that is not linked. The slice is
// the placement's own and must not be written to.
func (pl *Placement) LinkIDs() []int32 { return pl.at[len(pl.nodes):] }

// selfLoad sums the assignment's own CPU load on the host at index pos
// (several of its processes may share one), in placement order.
func (pl *Placement) selfLoad(pos int32) float64 {
	load := 0.0
	for j, at := range pl.nodes {
		if at == pos {
			load += pl.asg.Nodes[j].CPULoad
		}
	}
	return load
}

// Indexed is where the models read the cluster from: a snapshot, by node
// index and link id. Loads and Reserved, when set, are the CPU load by node
// index and the reserved bandwidth by link id that the models read in place
// of the snapshot's own (resource.Columns holds such a pair): either a dense
// copy of the snapshot's state, or that state with a trial reservation on top
// that the snapshot knows nothing of. The node and link descriptions always
// come from View.
type Indexed struct {
	View     *resource.Snapshot
	Loads    []float64
	Reserved []float64
}

// current returns pl, resolved afresh if View is not of pl's topology.
func (in Indexed) current(pl *Placement) *Placement {
	if !pl.Resolved(in.View) {
		return Resolve(in.View, pl.asg)
	}
	return pl
}

// speeds reports the nominal and the contention-scaled effective speed of
// the node the i-th placement runs on. When selfReserved is false the
// assignment's own load on that host is added to what the view holds.
func (in Indexed) speeds(pl *Placement, i int, selfReserved bool) (nominal, effective float64, err error) {
	pos := pl.nodes[i]
	if pos < 0 {
		_, err := in.View.Node(pl.asg.Nodes[i].Hostname)
		return 0, 0, fmt.Errorf("predict: %w", err)
	}
	var load float64
	if in.Loads != nil {
		load = in.Loads[pos]
	} else {
		load = in.View.LoadAt(int(pos))
	}
	if !selfReserved {
		load += pl.selfLoad(pos)
	}
	node := in.View.NodeAt(int(pos))
	effective = resource.EffectiveSpeed(node.Speed, node.CPUs, load)
	if effective <= 0 {
		return 0, 0, fmt.Errorf("predict: node %s has no capacity", node.Hostname)
	}
	return node.Speed, effective, nil
}

// link reports the description and reserved bandwidth of the k-th link the
// placement loads.
func (in Indexed) link(pl *Placement, k int) (*resource.Link, float64, error) {
	l := &pl.links[k]
	if l.id < 0 {
		_, err := in.View.Link(l.a, l.b)
		return nil, 0, fmt.Errorf("predict: %w", err)
	}
	if in.Reserved != nil {
		return in.View.LinkAt(int(l.id)), in.Reserved[l.id], nil
	}
	return in.View.LinkAt(int(l.id)), in.View.ReservedAt(int(l.id)), nil
}

// Default applies the paper's default model to a resolved assignment.
//
// The compute component is the slowest node placement: each placement of S
// reference-seconds on a node runs at the node's contention-scaled
// effective speed. When selfReserved is false the assignment's own CPU load
// and bandwidth are added on top of the view's state (evaluating a
// hypothetical placement); when true the view already includes them
// (re-evaluating a running application).
//
// The network component is a multiplicative slowdown: the worst
// over-subscription among the links the assignment uses stretches the
// response time proportionally, modelling senders that must share the wire.
func (in Indexed) Default(pl *Placement, selfReserved bool) (Prediction, error) {
	pl = in.current(pl)
	cpu := 0.0
	for i := range pl.nodes {
		_, speed, err := in.speeds(pl, i, selfReserved)
		if err != nil {
			return Prediction{}, err
		}
		if t := pl.asg.Nodes[i].Seconds / speed; t > cpu {
			cpu = t
		}
	}
	scale, err := in.commScale(pl, selfReserved)
	if err != nil {
		return Prediction{}, err
	}
	return Prediction{Seconds: cpu * scale, CPUSeconds: cpu, CommScale: scale}, nil
}

// commScale finds the worst over-subscription among the assignment's links.
func (in Indexed) commScale(pl *Placement, selfReserved bool) (float64, error) {
	worst := 1.0
	for k := range pl.links {
		lk, reserved, err := in.link(pl, k)
		if err != nil {
			return 0, err
		}
		if !selfReserved {
			reserved += pl.links[k].rate
		}
		if lk.BandwidthMbps > 0 {
			if u := reserved / lk.BandwidthMbps; u > worst {
				worst = u
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

// Explicit applies an application-supplied piecewise-linear model to an
// assignment; see Indexed.Explicit.
func (p *Predictor) Explicit(points []rsl.PerfPoint, asg *match.Assignment, selfReserved bool) (Prediction, error) {
	in, pl, err := p.resolve(asg)
	if err != nil {
		return Prediction{}, err
	}
	return in.Explicit(points, pl, selfReserved)
}

// Explicit applies an application-supplied piecewise-linear model: the
// curve gives the unloaded running time at the assignment's node count, and
// the same contention factors as the default model stretch it when the
// chosen nodes or links are shared.
func (in Indexed) Explicit(points []rsl.PerfPoint, pl *Placement, selfReserved bool) (Prediction, error) {
	pl = in.current(pl)
	base, err := Interpolate(points, float64(len(pl.nodes)))
	if err != nil {
		return Prediction{}, err
	}
	cpuScale, err := in.cpuContention(pl, selfReserved)
	if err != nil {
		return Prediction{}, err
	}
	commScale, err := in.commScale(pl, selfReserved)
	if err != nil {
		return Prediction{}, err
	}
	cpu := base * cpuScale
	return Prediction{Seconds: cpu * commScale, CPUSeconds: cpu, CommScale: commScale}, nil
}

// cpuContention is the worst slowdown factor among assigned nodes: nominal
// speed divided by contention-scaled effective speed.
func (in Indexed) cpuContention(pl *Placement, selfReserved bool) (float64, error) {
	worst := 1.0
	for i := range pl.nodes {
		nominal, eff, err := in.speeds(pl, i, selfReserved)
		if err != nil {
			return 0, err
		}
		if s := nominal / eff; s > worst {
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
	in, pl, err := p.resolve(asg)
	if err != nil {
		return Prediction{}, err
	}
	return in.ForOption(opt, pl, selfReserved)
}

// ForOption is Predictor.ForOption for a resolved assignment.
func (in Indexed) ForOption(opt *rsl.OptionSpec, pl *Placement, selfReserved bool) (Prediction, error) {
	if opt == nil {
		return Prediction{}, errors.New("predict: nil option")
	}
	if len(opt.Performance) > 0 {
		return in.Explicit(opt.Performance, pl, selfReserved)
	}
	return in.Default(pl, selfReserved)
}
