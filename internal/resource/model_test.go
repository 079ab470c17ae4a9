package resource

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
)

// ledgerOps is what the tests drive a Ledger and its reference model through
// alike, so one path of operations can be applied to both.
type ledgerOps interface {
	AddNode(n Node) error
	AddLink(lk Link) error
	SetNodeHealth(hostname string, h NodeHealth) error
	Reserve(owner string, nodes []NodeClaim, links []LinkClaim) (*Claim, error)
	Release(id uint64) error
}

var (
	_ ledgerOps = (*Ledger)(nil)
	_ ledgerOps = (*denseLedger)(nil)
)

// denseLedger is the reference the Ledger, its snapshots and Columns are
// held to: a ledger in the plainest dense form. Nodes sit in hostname order,
// reserved bandwidth in one column by link id in order of registration, and
// every charge and release is a loop of its own. It shares no code with the
// package but the error values: the same node and link ids, the same
// arithmetic in the same order and the same refusals, computed again.
type denseLedger struct {
	states   []NodeState // hostname order
	links    []Link      // by link id
	reserved []float64   // by link id
	claims   []*Claim    // id order
	nextID   uint64
}

func newDenseLedger() *denseLedger { return &denseLedger{} }

// node reports the index of hostname, or -1.
func (d *denseLedger) node(hostname string) int {
	i := sort.Search(len(d.states), func(i int) bool { return d.states[i].Node.Hostname >= hostname })
	if i < len(d.states) && d.states[i].Node.Hostname == hostname {
		return i
	}
	return -1
}

// link reports the id of the link between a and b, in either direction, or -1.
func (d *denseLedger) link(a, b string) int {
	for id, lk := range d.links {
		if (lk.A == a && lk.B == b) || (lk.A == b && lk.B == a) {
			return id
		}
	}
	return -1
}

func (d *denseLedger) AddNode(n Node) error {
	fresh := NodeState{Node: n, FreeMemoryMB: n.MemoryMB}
	if p := d.node(n.Hostname); p >= 0 {
		if old := d.states[p]; old.CPULoad > 0 || old.FreeMemoryMB != old.Node.MemoryMB {
			return fmt.Errorf("resource: node %s has outstanding claims", n.Hostname)
		}
		d.states[p] = fresh
		return nil
	}
	p := sort.Search(len(d.states), func(i int) bool { return d.states[i].Node.Hostname > n.Hostname })
	d.states = slices.Insert(d.states, p, fresh)
	return nil
}

func (d *denseLedger) AddLink(lk Link) error {
	if d.node(lk.A) < 0 || d.node(lk.B) < 0 {
		return fmt.Errorf("model: link %s-%s names an unknown node", lk.A, lk.B)
	}
	if id := d.link(lk.A, lk.B); id >= 0 {
		d.links[id], d.reserved[id] = lk, 0
		return nil
	}
	d.links = append(d.links, lk)
	d.reserved = append(d.reserved, 0)
	return nil
}

func (d *denseLedger) SetNodeHealth(hostname string, h NodeHealth) error {
	p := d.node(hostname)
	if p < 0 {
		return fmt.Errorf("%w: %s", ErrUnknownNode, hostname)
	}
	d.states[p].Health = h
	return nil
}

func (d *denseLedger) Reserve(owner string, nodes []NodeClaim, links []LinkClaim) (*Claim, error) {
	for _, nc := range nodes {
		p := d.node(nc.Hostname)
		if p < 0 {
			return nil, fmt.Errorf("%w: %s", ErrUnknownNode, nc.Hostname)
		}
		if nc.MemoryMB < 0 || nc.CPULoad < 0 {
			return nil, fmt.Errorf("resource: negative claim on %s", nc.Hostname)
		}
		if math.IsNaN(nc.MemoryMB) || math.IsNaN(nc.CPULoad) || math.IsInf(nc.MemoryMB, 1) || math.IsInf(nc.CPULoad, 1) {
			return nil, fmt.Errorf("resource: non-finite claim on %s", nc.Hostname)
		}
		if free := d.states[p].FreeMemoryMB; nc.MemoryMB > free {
			return nil, fmt.Errorf("%w: %s memory (need %g MB, free %g MB)", ErrInsufficient, nc.Hostname, nc.MemoryMB, free)
		}
	}
	for _, lc := range links {
		if d.link(lc.A, lc.B) < 0 {
			return nil, fmt.Errorf("%w: %s-%s", ErrUnknownLink, lc.A, lc.B)
		}
		if lc.BandwidthMbps < 0 {
			return nil, fmt.Errorf("resource: negative bandwidth claim on %s-%s", lc.A, lc.B)
		}
		if math.IsNaN(lc.BandwidthMbps) || math.IsInf(lc.BandwidthMbps, 1) {
			return nil, fmt.Errorf("resource: non-finite bandwidth claim on %s-%s", lc.A, lc.B)
		}
	}
	for _, nc := range nodes {
		st := &d.states[d.node(nc.Hostname)]
		st.FreeMemoryMB -= nc.MemoryMB
		st.CPULoad += nc.CPULoad
	}
	for _, lc := range links {
		d.reserved[d.link(lc.A, lc.B)] += lc.BandwidthMbps
	}
	d.nextID++
	c := &Claim{ID: d.nextID, Owner: owner, Nodes: slices.Clone(nodes), Links: slices.Clone(links)}
	d.claims = append(d.claims, c)
	return c, nil
}

func (d *denseLedger) Release(id uint64) error {
	i := slices.IndexFunc(d.claims, func(c *Claim) bool { return c.ID == id })
	if i < 0 {
		return fmt.Errorf("%w: %d", ErrUnknownClaim, id)
	}
	c := d.claims[i]
	for _, nc := range c.Nodes {
		if p := d.node(nc.Hostname); p >= 0 {
			st := &d.states[p]
			st.FreeMemoryMB += nc.MemoryMB
			st.CPULoad -= nc.CPULoad
			if st.CPULoad < 1e-12 {
				st.CPULoad = 0
			}
			if st.FreeMemoryMB > st.Node.MemoryMB {
				st.FreeMemoryMB = st.Node.MemoryMB
			}
		}
	}
	for _, lc := range c.Links {
		if id := d.link(lc.A, lc.B); id >= 0 {
			d.reserved[id] -= lc.BandwidthMbps
			if d.reserved[id] < 1e-12 {
				d.reserved[id] = 0
			}
		}
	}
	d.claims = slices.Delete(d.claims, i, i+1)
	return nil
}

// sameBits reports whether two floats are the same bits.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// requireColumnsEqual fails unless the columns hold, bit for bit, what the
// model holds at every node index and every link id, not only the ones
// written last, and unless they list as held exactly the links whose
// reservation is not zero.
func requireColumnsEqual(t *testing.T, what string, cols *Columns, want *denseLedger) {
	t.Helper()
	nodes, links := len(want.states), len(want.links)
	if len(cols.FreeMemoryMB) != nodes || len(cols.CPULoad) != nodes || len(cols.ReservedMbps) != links {
		t.Fatalf("%s: columns are %d/%d/%d long, want %d/%d/%d", what,
			len(cols.FreeMemoryMB), len(cols.CPULoad), len(cols.ReservedMbps), nodes, nodes, links)
	}
	for i, ns := range want.states {
		if !sameBits(cols.FreeMemoryMB[i], ns.FreeMemoryMB) {
			t.Fatalf("%s: free memory of %s: columns %v, model %v", what, ns.Node.Hostname, cols.FreeMemoryMB[i], ns.FreeMemoryMB)
		}
		if !sameBits(cols.CPULoad[i], ns.CPULoad) {
			t.Fatalf("%s: load of %s: columns %v, model %v", what, ns.Node.Hostname, cols.CPULoad[i], ns.CPULoad)
		}
	}
	nonzero := 0
	for id, reserved := range want.reserved {
		if got := cols.ReservedMbps[id]; !sameBits(got, reserved) {
			t.Fatalf("%s: reserved on link %d (%s): columns %v, model %v", what, id, want.links[id].Key(), got, reserved)
		}
		if reserved != 0 {
			nonzero++
			if !slices.Contains(cols.held, int32(id)) {
				t.Fatalf("%s: link %d holds %v but is not listed as held", what, id, reserved)
			}
		}
	}
	if len(cols.held) != nonzero {
		t.Fatalf("%s: %d links listed as held (%v), %d hold a reservation", what, len(cols.held), cols.held, nonzero)
	}
}

// requireSnapshotEqual fails unless the snapshot reads, bit for bit, what the
// model holds: node by node, link by link and through ReadColumns.
func requireSnapshotEqual(t *testing.T, what string, s *Snapshot, want *denseLedger) {
	t.Helper()
	got := s.Nodes()
	if len(got) != len(want.states) {
		t.Fatalf("%s: %d nodes, model %d", what, len(got), len(want.states))
	}
	for i, ns := range want.states {
		if got[i].Node != ns.Node || got[i].Health != ns.Health ||
			!sameBits(got[i].FreeMemoryMB, ns.FreeMemoryMB) || !sameBits(got[i].CPULoad, ns.CPULoad) {
			t.Fatalf("%s: node %d: snapshot %+v, model %+v", what, i, got[i], ns)
		}
	}
	for id, reserved := range want.reserved {
		if got := s.ReservedAt(id); !sameBits(got, reserved) {
			t.Fatalf("%s: reserved on link %d: snapshot %v, model %v", what, id, got, reserved)
		}
		if *s.LinkAt(id) != want.links[id] {
			t.Fatalf("%s: link %d: snapshot %+v, model %+v", what, id, *s.LinkAt(id), want.links[id])
		}
	}
	var cols Columns
	s.ReadColumns(&cols)
	requireColumnsEqual(t, what+", read out", &cols, want)
}

// requireLedgerEqual fails unless the ledger's own columns and a capture of
// it hold what the model does.
func requireLedgerEqual(t *testing.T, what string, l *Ledger, want *denseLedger) {
	t.Helper()
	requireColumnsEqual(t, what+": the ledger's columns", &l.cols, want)
	requireSnapshotEqual(t, what+": a capture", l.Snapshot(), want)
}
