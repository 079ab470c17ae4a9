package resource

import (
	"cmp"
	"fmt"
	"slices"
)

// View is the read/reserve surface shared by the live Ledger and
// hypothetical Snapshots of it, for callers that place and predict by
// hostname. A hypothetical reservation, whether one of the controller's
// searches charges it to Columns read from a snapshot or a caller reserves it
// in a Snapshot, lands in Columns and never in the shared ledger.
//
// Both implementations store their nodes in hostname order, so the order
// Nodes and AppendNodes report is the order of the table itself: no
// implementation sorts, and none can disagree with another about the order.
type View interface {
	// Nodes returns snapshots of all nodes sorted by hostname.
	Nodes() []NodeState
	// AppendNodes appends what Nodes returns to dst, so a caller that scans
	// the nodes repeatedly can reuse one buffer.
	AppendNodes(dst []NodeState) []NodeState
	// Node returns the state of one node.
	Node(hostname string) (NodeState, error)
	// Link returns the state of one link.
	Link(a, b string) (LinkState, error)
	// Reserve atomically applies node and link claims, or none on failure.
	Reserve(owner string, nodes []NodeClaim, links []LinkClaim) (*Claim, error)
	// Release returns a claim's resources to the pool.
	Release(id uint64) error
	// Indexed returns the snapshot through which the view is read by index
	// instead of by hostname: a Snapshot is its own, the Ledger captures one.
	Indexed() *Snapshot
}

var (
	_ View = (*Ledger)(nil)
	_ View = (*Snapshot)(nil)
)

// snapBase is the immutable capture of a ledger taken by Ledger.Snapshot.
// It is shared by every fork of the snapshot and never written after
// construction. The topology, and with it every node and link description,
// is the ledger's own, shared until the ledger next writes to it; the rest
// are copies.
type snapBase struct {
	topo *topology
	// freeMem, load and health are the nodes' state by index.
	freeMem, load []float64
	health        []NodeHealth
	reserved      []linkReservation
	claims        []*Claim // id order
	nextID        uint64
}

// linkReservation is the bandwidth reserved on one link. A capture holds one
// for every link whose reservation is not zero, in id order, and nothing for
// the rest.
type linkReservation struct {
	id   int32
	mbps float64
}

// Snapshot is a Ledger as it stood when Snapshot() was called: the capture,
// shared by every snapshot taken while the ledger is unchanged and never
// written, and from the first Reserve or Release on, a Columns of the
// snapshot's own that holds the capture with those hypothetical reservations
// and releases on top. The columns are charged and released with
// Columns.Charge and Columns.Release, the ledger's own arithmetic; the ledger
// is never touched. Fork() produces an independent copy.
//
// The controller's searches do not write snapshots: they read a capture into
// Columns of their own (ReadColumns) and try placements there. Reserve,
// Release and Fork are front doors over the same columns for callers that
// place by hostname one claim at a time.
//
// Nodes reports the topology's hostname-ordered node table with the
// snapshot's free memory, load and health beside it by index, so it agrees
// with Ledger.Nodes on order by construction.
//
// A Snapshot is NOT safe for concurrent use; forks share nothing writable
// and may be used from different goroutines concurrently.
type Snapshot struct {
	base *snapBase
	// own is the snapshot's state once it has been written to, nil until
	// then: an unwritten snapshot reads the capture.
	own *Columns
	// claims is the outstanding claims in id order: the capture's until the
	// first write, then a list of the snapshot's own.
	claims []*Claim
	nextID uint64
}

// Snapshot captures the ledger's current state. After a mutation the capture
// copies the nodes' free memory, load and health, the links that hold a
// reservation and the claim list; the topology (the node and link
// descriptions and the name index) is shared, the ledger cloning it before it
// next writes to it. While the ledger is unchanged the capture is O(1), the
// immutable base being cached.
func (l *Ledger) Snapshot() *Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.snapCache == nil {
		l.topoShared = true
		reserved := make([]linkReservation, len(l.cols.held))
		for i, id := range l.cols.held {
			reserved[i] = linkReservation{id, l.cols.ReservedMbps[id]}
		}
		slices.SortFunc(reserved, func(a, b linkReservation) int { return cmp.Compare(a.id, b.id) })
		l.snapCache = &snapBase{
			topo:     l.topo,
			freeMem:  slices.Clone(l.cols.FreeMemoryMB),
			load:     slices.Clone(l.cols.CPULoad),
			health:   slices.Clone(l.health),
			reserved: reserved,
			// Claims are immutable after creation, so sharing pointers is safe.
			claims: slices.Clone(l.claims),
			nextID: l.nextID,
		}
	}
	return &Snapshot{base: l.snapCache, claims: l.snapCache.claims, nextID: l.snapCache.nextID}
}

// Unchanged reports whether the ledger still holds the state snapshot s
// captured: nothing reserved, released, added or changed in health since. It
// compares captures, not contents, so it is O(1); what was reserved or
// released in s itself is not the ledger's and is not looked at.
func (l *Ledger) Unchanged(s *Snapshot) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapCache != nil && l.snapCache == s.base
}

// Fork returns an independent copy. Forking an unwritten snapshot is O(1);
// forking a written one copies its columns, O(nodes + links). Either may be
// written afterwards without the other seeing it.
func (s *Snapshot) Fork() *Snapshot {
	f := &Snapshot{base: s.base, claims: s.claims, nextID: s.nextID}
	if s.own != nil {
		f.own = new(Columns)
		s.ReadColumns(f.own)
		f.claims = slices.Clone(s.claims)
	}
	return f
}

// write returns the snapshot's own columns, read from the capture on the
// first write along with a claim list of its own.
func (s *Snapshot) write() *Columns {
	if s.own == nil {
		own := new(Columns)
		s.ReadColumns(own)
		s.own, s.claims = own, slices.Clone(s.claims)
	}
	return s.own
}

// nodeAt reports the free memory and load of the node at index pos.
func (s *Snapshot) nodeAt(pos int) (freeMem, cpuLoad float64) {
	if s.own != nil {
		return s.own.FreeMemoryMB[pos], s.own.CPULoad[pos]
	}
	return s.base.freeMem[pos], s.base.load[pos]
}

// ReservedAt reports the bandwidth reserved on the link with the given id
// (see LinkIndex). An unwritten snapshot looks the link up among the
// capture's reservations.
func (s *Snapshot) ReservedAt(id int) float64 {
	if s.own != nil {
		return s.own.ReservedMbps[id]
	}
	r := s.base.reserved
	if i, ok := slices.BinarySearchFunc(r, int32(id), func(e linkReservation, id int32) int { return cmp.Compare(e.id, id) }); ok {
		return r[i].mbps
	}
	return 0
}

// Claim returns the outstanding claim with the given id.
func (s *Snapshot) Claim(id uint64) (*Claim, error) {
	if i, ok := findClaim(s.claims, id); ok {
		return s.claims[i], nil
	}
	return nil, fmt.Errorf("%w: %d", ErrUnknownClaim, id)
}

// Nodes returns the state of all nodes sorted by hostname, matching
// Ledger.Nodes ordering exactly (the matcher's scan order depends on it).
func (s *Snapshot) Nodes() []NodeState {
	return s.AppendNodes(make([]NodeState, 0, len(s.base.topo.nodes)))
}

// AppendNodes appends every node's state to dst in hostname order.
func (s *Snapshot) AppendNodes(dst []NodeState) []NodeState {
	for p := range s.base.topo.nodes {
		dst = append(dst, s.StateAt(p))
	}
	return dst
}

// Indexed implements View: a snapshot is read by index as it stands.
func (s *Snapshot) Indexed() *Snapshot { return s }

// Topology names the inventory of nodes and links a snapshot was taken over.
// Node indices and link ids mean the same thing in two snapshots exactly when
// their Topology values are equal: the ledger never writes to a topology a
// snapshot holds, so AddNode (which re-sorts the indices or replaces a node's
// description) and AddLink always show up as a different value. Holding one
// keeps it from being reused.
type Topology struct{ t *topology }

// Topology reports which inventory the snapshot's indices refer to. It is
// the same for every fork.
func (s *Snapshot) Topology() Topology { return Topology{s.base.topo} }

// NodeIndex reports a node's index in the slice Nodes returns, for callers
// that keep per-node scratch addressed by index instead of by hostname. It
// holds for every fork of the snapshot, and for any snapshot of the same
// Topology.
func (s *Snapshot) NodeIndex(hostname string) (int, bool) {
	return s.base.topo.node(hostname)
}

// LinkIndex reports the id of the link between two hosts, in either
// direction; like a node index it holds across snapshots of one Topology.
func (s *Snapshot) LinkIndex(a, b string) (int, bool) {
	return s.base.topo.link(a, b)
}

// LinkBetween reports the id of the link between the nodes at two indices, in
// either direction.
func (s *Snapshot) LinkBetween(posA, posB int) (int, bool) {
	return s.base.topo.linkAt(posA, posB)
}

// NodeAt returns the description of the node at index pos. It points into
// the shared topology and must not be written through.
func (s *Snapshot) NodeAt(pos int) *Node { return &s.base.topo.nodes[pos] }

// LinkAt returns the description of the link with the given id. It points
// into the shared topology and must not be written through.
func (s *Snapshot) LinkAt(id int) *Link { return &s.base.topo.links[id] }

// LoadAt reports the CPU load on the node at index pos.
func (s *Snapshot) LoadAt(pos int) float64 {
	_, cpuLoad := s.nodeAt(pos)
	return cpuLoad
}

// StateAt returns the state of the node at index pos.
func (s *Snapshot) StateAt(pos int) NodeState {
	freeMem, cpuLoad := s.nodeAt(pos)
	return NodeState{Node: s.base.topo.nodes[pos], FreeMemoryMB: freeMem, CPULoad: cpuLoad, Health: s.base.health[pos]}
}

// Node returns the snapshot state of one node.
func (s *Snapshot) Node(hostname string) (NodeState, error) {
	p, ok := s.base.topo.node(hostname)
	if !ok {
		return NodeState{}, fmt.Errorf("%w: %s", ErrUnknownNode, hostname)
	}
	return s.StateAt(p), nil
}

// Link returns the snapshot state of one link.
func (s *Snapshot) Link(a, b string) (LinkState, error) {
	id, ok := s.base.topo.link(a, b)
	if !ok {
		return LinkState{}, fmt.Errorf("%w: %s-%s", ErrUnknownLink, a, b)
	}
	return LinkState{Link: s.base.topo.links[id], ReservedMbps: s.ReservedAt(id)}, nil
}

// Reserve charges node and link claims to the snapshot's columns with
// Columns.Charge, whose validation and arithmetic are Ledger.Reserve's, so a
// hypothetical reservation is bit for bit what committing it would produce.
func (s *Snapshot) Reserve(owner string, nodes []NodeClaim, links []LinkClaim) (*Claim, error) {
	var buf [32]int32
	if err := s.write().Charge(nodes, links, s.base.topo.locate(buf[:0], nodes, links), nil); err != nil {
		return nil, err
	}
	s.nextID++
	c := &Claim{ID: s.nextID, Owner: owner}
	c.Nodes = append(c.Nodes, nodes...)
	c.Links = append(c.Links, links...)
	s.claims = append(s.claims, c)
	return c, nil
}

// Release returns a claim's resources to the snapshot's columns with
// Columns.Release, whether the claim was reserved in this snapshot or
// captured from the underlying ledger.
func (s *Snapshot) Release(id uint64) error {
	cl, err := s.Claim(id)
	if err != nil {
		return err
	}
	s.write().Release(cl, s.Topology(), nil)
	i, _ := findClaim(s.claims, id)
	s.claims = slices.Delete(s.claims, i, i+1)
	return nil
}
