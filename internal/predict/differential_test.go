package predict

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"harmony/internal/match"
	"harmony/internal/resource"
	"harmony/internal/rsl"
)

// byName is the prediction arithmetic as it read the cluster before
// placements were resolved: every node and link looked up by hostname, one
// lookup per use. It is kept here, and only here, as the oracle the
// index-resolved models are held to, bit for bit and error for error.
type byName struct{ view resource.View }

func (p byName) selfLoad(asg *match.Assignment, selfReserved bool) map[string]float64 {
	if selfReserved {
		return nil
	}
	load := make(map[string]float64, len(asg.Nodes))
	for _, n := range asg.Nodes {
		load[n.Hostname] += n.CPULoad
	}
	return load
}

func (p byName) Default(asg *match.Assignment, selfReserved bool) (Prediction, error) {
	selfLoad := p.selfLoad(asg, selfReserved)
	cpu := 0.0
	for _, n := range asg.Nodes {
		ns, err := p.view.Node(n.Hostname)
		if err != nil {
			return Prediction{}, fmt.Errorf("predict: %w", err)
		}
		speed := resource.EffectiveSpeed(ns.Node.Speed, ns.Node.CPUs, ns.CPULoad+selfLoad[n.Hostname])
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

// eachLink visits the links in the order the models do: the explicit links,
// then the communication tag's share of every host pair.
func eachLink(asg *match.Assignment, visit func(a, b string, rate float64) error) error {
	for _, l := range asg.Links {
		if err := visit(l.HostA, l.HostB, l.BandwidthMbps); err != nil {
			return err
		}
	}
	if hosts := asg.Hosts(); asg.CommunicationMbps > 0 && len(hosts) > 1 {
		per := asg.CommunicationMbps / float64(len(hosts)*(len(hosts)-1)/2)
		for i := range hosts {
			for j := i + 1; j < len(hosts); j++ {
				if err := visit(hosts[i], hosts[j], per); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (p byName) commScale(asg *match.Assignment, selfReserved bool) (float64, error) {
	worst := 1.0
	err := eachLink(asg, func(a, b string, rate float64) error {
		if a == b {
			return nil
		}
		ls, err := p.view.Link(a, b)
		if err != nil {
			return fmt.Errorf("predict: %w", err)
		}
		reserved := ls.ReservedMbps
		if !selfReserved {
			reserved += rate
		}
		if ls.Link.BandwidthMbps > 0 {
			if u := reserved / ls.Link.BandwidthMbps; u > worst {
				worst = u
			}
		}
		return nil
	})
	return worst, err
}

func (p byName) Explicit(points []rsl.PerfPoint, asg *match.Assignment, selfReserved bool) (Prediction, error) {
	base, err := Interpolate(points, float64(len(asg.Nodes)))
	if err != nil {
		return Prediction{}, err
	}
	selfLoad := p.selfLoad(asg, selfReserved)
	cpuScale := 1.0
	for _, n := range asg.Nodes {
		ns, err := p.view.Node(n.Hostname)
		if err != nil {
			return Prediction{}, fmt.Errorf("predict: %w", err)
		}
		eff := resource.EffectiveSpeed(ns.Node.Speed, ns.Node.CPUs, ns.CPULoad+selfLoad[n.Hostname])
		if eff <= 0 {
			return Prediction{}, fmt.Errorf("predict: node %s has no capacity", n.Hostname)
		}
		if s := ns.Node.Speed / eff; s > cpuScale {
			cpuScale = s
		}
	}
	commScale, err := p.commScale(asg, selfReserved)
	if err != nil {
		return Prediction{}, err
	}
	cpu := base * cpuScale
	return Prediction{Seconds: cpu * commScale, CPUSeconds: cpu, CommScale: commScale}, nil
}

// randomLedger builds a cluster of mixed speeds and CPU counts whose links
// have mixed capacities; one pair in eight is left unlinked.
func randomLedger(t *testing.T, rng *rand.Rand) (*resource.Ledger, []string) {
	t.Helper()
	l := resource.NewLedger()
	n := 3 + rng.Intn(10)
	hosts := make([]string, n)
	// Registration order is not hostname order, so node ids and indices
	// differ.
	for i, p := range rng.Perm(n) {
		hosts[i] = fmt.Sprintf("h%02d", p)
		node := resource.Node{Hostname: hosts[i], Speed: 0.5 + 2*rng.Float64(), MemoryMB: 4096, OS: "linux", CPUs: 1 + rng.Intn(4)}
		if err := l.AddNode(node); err != nil {
			t.Fatal(err)
		}
	}
	for i := range hosts {
		for j := i + 1; j < n; j++ {
			if rng.Intn(8) == 0 {
				continue
			}
			lk := resource.Link{A: hosts[i], B: hosts[j], BandwidthMbps: 1 + 300*rng.Float64(), LatencyMs: 1}
			if err := l.AddLink(lk); err != nil {
				t.Fatal(err)
			}
		}
	}
	return l, hosts
}

// randomAssignment places one to six processes, often several on one host,
// with explicit links (some between processes sharing a host, some of rate
// zero) and sometimes a communication tag; one in ten names a host the
// cluster does not have.
func randomAssignment(rng *rand.Rand, hosts []string) *match.Assignment {
	asg := &match.Assignment{Option: "o"}
	pool := hosts[:1+rng.Intn(len(hosts))]
	for i, k := 0, 1+rng.Intn(6); i < k; i++ {
		asg.Nodes = append(asg.Nodes, match.NodeAssignment{
			LocalName: fmt.Sprintf("n%d", i),
			Hostname:  pool[rng.Intn(len(pool))],
			Seconds:   float64(rng.Intn(40)) / 3,
			MemoryMB:  float64(rng.Intn(16)),
			CPULoad:   rng.Float64() * 2,
		})
	}
	if rng.Intn(10) == 0 {
		asg.Nodes[rng.Intn(len(asg.Nodes))].Hostname = "nosuch"
	}
	for i, k := 0, rng.Intn(4); i < k; i++ {
		a, b := asg.Nodes[rng.Intn(len(asg.Nodes))], asg.Nodes[rng.Intn(len(asg.Nodes))]
		asg.Links = append(asg.Links, match.LinkAssignment{
			LocalA: a.LocalName, LocalB: b.LocalName, HostA: a.Hostname, HostB: b.Hostname,
			BandwidthMbps: float64(rng.Intn(4)) * 40 * rng.Float64(),
		})
	}
	if rng.Intn(3) == 0 {
		asg.CommunicationMbps = 200 * rng.Float64()
	}
	return asg
}

// reserveSome charges a few random claims, ignoring the ones that name an
// unlinked pair, and returns the ids of those that held.
func reserveSome(rng *rand.Rand, view resource.View, hosts []string) []uint64 {
	var ids []uint64
	for i, k := 0, 1+rng.Intn(4); i < k; i++ {
		a, b := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
		nodes := []resource.NodeClaim{{Hostname: a, MemoryMB: 1, CPULoad: 3 * rng.Float64()}}
		var links []resource.LinkClaim
		if a != b {
			links = []resource.LinkClaim{{A: a, B: b, BandwidthMbps: 250 * rng.Float64()}}
		}
		if c, err := view.Reserve("other", nodes, links); err == nil {
			ids = append(ids, c.ID)
		}
	}
	return ids
}

func samePrediction(a, b Prediction) bool {
	return math.Float64bits(a.Seconds) == math.Float64bits(b.Seconds) &&
		math.Float64bits(a.CPUSeconds) == math.Float64bits(b.CPUSeconds) &&
		math.Float64bits(a.CommScale) == math.Float64bits(b.CommScale)
}

// TestIndexedMatchesByName predicts random assignments on random clusters
// three ways — by hostname (the oracle above), through the Predictor front
// door, and over a placement resolved once with and without a dense load
// column — against the ledger and against snapshots with zero, one and two
// overlay layers. All must agree to the bit, and fail with the same words.
//
// A link of zero bandwidth, which commScale skips, cannot be built: AddLink
// refuses it. The guard stays in the one place the arithmetic lives.
func TestIndexedMatchesByName(t *testing.T) {
	points := []rsl.PerfPoint{{X: 1, Y: 30}, {X: 3, Y: 14}, {X: 6, Y: 9}}
	models := []struct {
		name    string
		byName  func(byName, *match.Assignment, bool) (Prediction, error)
		door    func(*Predictor, *match.Assignment, bool) (Prediction, error)
		indexed func(Indexed, *Placement, bool) (Prediction, error)
	}{
		{
			"default",
			func(p byName, a *match.Assignment, self bool) (Prediction, error) { return p.Default(a, self) },
			func(p *Predictor, a *match.Assignment, self bool) (Prediction, error) { return p.Default(a, self) },
			func(in Indexed, pl *Placement, self bool) (Prediction, error) { return in.Default(pl, self) },
		},
		{
			"explicit",
			func(p byName, a *match.Assignment, self bool) (Prediction, error) { return p.Explicit(points, a, self) },
			func(p *Predictor, a *match.Assignment, self bool) (Prediction, error) {
				return p.Explicit(points, a, self)
			},
			func(in Indexed, pl *Placement, self bool) (Prediction, error) { return in.Explicit(points, pl, self) },
		},
	}
	noNode, noLink, stacked := 0, 0, 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ledger, hosts := randomLedger(t, rng)
		reserveSome(rng, ledger, hosts)

		// Views of increasing depth: the ledger, a plain snapshot, a fork
		// holding reservations, and a fork of that which also released one.
		base := ledger.Snapshot()
		one := base.Fork()
		held := reserveSome(rng, one, hosts)
		two := one.Fork()
		reserveSome(rng, two, hosts)
		if len(held) > 0 {
			if err := two.Release(held[0]); err != nil {
				t.Fatal(err)
			}
		}
		views := []resource.View{ledger, base, one, two}

		for trial := 0; trial < 20; trial++ {
			asg := randomAssignment(rng, hosts)
			if len(asg.Hosts()) < len(asg.Nodes) {
				stacked++
			}
			for vi, view := range views {
				snap := view.Indexed()
				pl := Resolve(snap, asg)
				var loads []float64
				for _, ns := range snap.Nodes() {
					loads = append(loads, ns.CPULoad)
				}
				for _, m := range models {
					for _, self := range []bool{true, false} {
						want, wantErr := m.byName(byName{view}, asg, self)
						switch {
						case errors.Is(wantErr, resource.ErrUnknownNode):
							noNode++
						case errors.Is(wantErr, resource.ErrUnknownLink):
							noLink++
						}
						check := func(how string, got Prediction, gotErr error) {
							t.Helper()
							if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) ||
								errors.Is(gotErr, resource.ErrUnknownNode) != errors.Is(wantErr, resource.ErrUnknownNode) ||
								errors.Is(gotErr, resource.ErrUnknownLink) != errors.Is(wantErr, resource.ErrUnknownLink) {
								t.Fatalf("seed %d trial %d view %d %s self=%v %s: err = %v, by name %v", seed, trial, vi, m.name, self, how, gotErr, wantErr)
							}
							if !samePrediction(got, want) {
								t.Fatalf("seed %d trial %d view %d %s self=%v %s: %+v, by name %+v", seed, trial, vi, m.name, self, how, got, want)
							}
						}
						got, err := m.door(NewWithView(view), asg, self)
						check("front door", got, err)
						got, err = m.indexed(Indexed{View: snap}, pl, self)
						check("indexed", got, err)
						got, err = m.indexed(Indexed{View: snap, Loads: loads}, pl, self)
						check("indexed over a load column", got, err)
					}
				}
			}
		}
	}
	if noNode == 0 || noLink == 0 || stacked == 0 {
		t.Fatalf("the generator produced %d unknown-node and %d unknown-link failures and %d assignments with two names on one host; want all three", noNode, noLink, stacked)
	}
	t.Logf("%d unknown-node, %d unknown-link failures, %d stacked assignments", noNode, noLink, stacked)
}

// TestPlacementOutlivesNoTopologyChange checks what a Placement promises: it
// holds across reservations and snapshots, stops holding when a node is
// added (every index after the new hostname moves), and a model handed a
// stale one resolves it again instead of reading the wrong rows.
func TestPlacementOutlivesNoTopologyChange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ledger, hosts := randomLedger(t, rng)
	asg := &match.Assignment{Option: "o", Nodes: []match.NodeAssignment{
		{LocalName: "a", Hostname: hosts[0], Seconds: 5, CPULoad: 1},
		{LocalName: "b", Hostname: hosts[1], Seconds: 3, CPULoad: 1},
	}}
	before := ledger.Snapshot()
	pl := Resolve(before, asg)
	reserveSome(rng, ledger, hosts)
	if after := ledger.Snapshot(); !pl.Resolved(after) || !pl.Resolved(after.Fork()) {
		t.Fatal("a reservation invalidated the placement")
	}
	if err := ledger.AddNode(resource.Node{Hostname: "a-first", Speed: 9, MemoryMB: 1, CPUs: 1}); err != nil {
		t.Fatal(err)
	}
	after := ledger.Snapshot()
	if pl.Resolved(after) {
		t.Fatal("the placement still claims to hold after AddNode moved every index")
	}
	if !pl.Resolved(before) {
		t.Fatal("the placement no longer holds for the snapshot it was resolved against")
	}
	got, err := Indexed{View: after}.Default(pl, true)
	want, wantErr := byName{after}.Default(asg, true)
	if err != nil || wantErr != nil || !samePrediction(got, want) {
		t.Fatalf("stale placement: %+v, %v; by name %+v, %v", got, err, want, wantErr)
	}
}
