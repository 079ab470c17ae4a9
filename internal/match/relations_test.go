package match

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"harmony/internal/resource"
)

// FuzzPlanRelations holds Plan's two relations to placement, over
// FuzzMayFit's clusters with links added and FuzzMayFit's specs: plans that
// are SameAs place on the same hosts and links and charge them alike, and
// wherever a plan places, one Within it places on a subset of its hosts. The
// second option is the first respelled, which must be SameAs it, or the first
// with one spec's replicas, memory or seconds, or its link or communication
// tag, drawn again.
func FuzzPlanRelations(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 256; i++ {
		in := make([]byte, 80)
		rng.Read(in)
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		l, nodes := fuzzCluster(t, &in)
		// Most pairs of hosts are linked, with some capacity and latency.
		for a := 0; a < nodes; a++ {
			for b := a + 1; b < nodes; b++ {
				if in.next(4) > 0 {
					lk := resource.Link{A: fuzzHost(a), B: fuzzHost(b), BandwidthMbps: float64(100 * (1 + in.next(3))), LatencyMs: float64(5 * in.next(3))}
					if err := l.AddLink(lk); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		specs := fuzzSpecs(&in, nodes)
		// Two specs may have a link between them, with or without a latency
		// bound, or a communication tag.
		var more fuzzLinks
		if len(specs) == 2 {
			more = fuzzLinks{kind: in.next(4), mbps: 100 * in.next(4), ms: 5 * in.next(3)}
		}
		twin, twinMore := slices.Clone(specs), more
		respelled := in.next(2) == 0
		if respelled {
			for k := range twin {
				twin[k].respell = true
			}
		} else {
			sp := &twin[in.next(len(twin))]
			switch in.next(6) {
			case 0:
				sp.replicas = 1 + in.next(3)
			case 1:
				sp.memory = 4 * in.next(5)
			case 2:
				sp.seconds = 1 + in.next(5)
			case 3:
				twinMore.mbps = 100 * in.next(4)
			case 4:
				twinMore.ms = 5 * in.next(3)
			default:
				twinMore.kind = in.next(4)
			}
		}
		p := NewPlan(Request{Option: fuzzOption(t, "p", specs, more.String())})
		q := NewPlan(Request{Option: fuzzOption(t, "q", twin, twinMore.String())})
		if respelled && !p.SameAs(q) {
			t.Fatalf("%v respelled is not SameAs it", specs)
		}

		snap := l.Snapshot()
		var cols resource.Columns
		snap.ReadColumns(&cols)
		var scan Scan
		scan.Reset(snap, snap.AppendNodes(nil), &cols)
		var ap, aq Assignment
		placedP, placedQ := scan.Place(p, &ap), scan.Place(q, &aq)
		if p.SameAs(q) {
			if placedP != placedQ {
				t.Fatalf("SameAs plans of %v: one places (%v), the other does not", specs, placedP)
			}
			if placedP && !samePlacement(snap, &ap, &aq) {
				t.Fatalf("SameAs plans of %v place apart: %+v and %+v", specs, ap, aq)
			}
		}
		within := func(a, b *Plan, asgA, asgB *Assignment, placedA, placedB bool) {
			if !a.Within(b) || !placedB {
				return
			}
			if !placedA {
				t.Fatalf("%v places on %v, and a plan Within it does not place", specs, asgB.Hosts())
			}
			for _, h := range asgA.Hosts() {
				if !slices.Contains(asgB.Hosts(), h) {
					t.Fatalf("a plan Within another places on %v, outside its %v", asgA.Hosts(), asgB.Hosts())
				}
			}
		}
		within(p, q, &ap, &aq, placedP, placedQ)
		within(q, p, &aq, &ap, placedQ, placedP)
	})
}

// samePlacement reports whether two assignments take the same hosts and
// links and reserving them claims the same.
func samePlacement(snap *resource.Snapshot, a, b *Assignment) bool {
	nodesA, linksA := a.appendClaims(nil, nil)
	nodesB, linksB := b.appendClaims(nil, nil)
	return slices.Equal(a.Nodes, b.Nodes) && slices.Equal(a.Links, b.Links) &&
		a.CommunicationMbps == b.CommunicationMbps &&
		slices.Equal(a.Places(snap, nil), b.Places(snap, nil)) &&
		slices.Equal(nodesA, nodesB) && slices.Equal(linksA, linksB)
}

// fuzzLinks is what joins the two specs of a generated option: nothing, a
// link, a link with a latency bound, or a communication tag.
type fuzzLinks struct{ kind, mbps, ms int }

func (l fuzzLinks) String() string {
	switch l.kind {
	case 1:
		return fmt.Sprintf("{link s0 s1 %d}", l.mbps)
	case 2:
		return fmt.Sprintf("{link s0 s1 %d %d}", l.mbps, l.ms)
	case 3:
		return fmt.Sprintf("{communication %d}", l.mbps)
	}
	return ""
}
