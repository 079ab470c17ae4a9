package resource

import (
	"fmt"
	"slices"
)

// View is the read/reserve surface shared by the live Ledger and
// hypothetical Snapshots of it. The matcher and predictor operate against a
// View, so the controller can evaluate candidate configurations
// side-effect-free: trial reservations land in Columns read from a snapshot
// (both of the controller's searches) or in a snapshot fork, never in the
// shared ledger.
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
// construction. The topology and the reserved column are the ledger's own,
// shared until the ledger next writes to them; the rest are copies.
type snapBase struct {
	topo     *topology
	states   []NodeState // hostname order
	reserved []float64   // by link id
	claims   []*Claim    // id order
	nextID   uint64
}

// nodeDelta is one node's free memory and load as a snapshot layer left
// them. Health and the node description never change inside a snapshot.
type nodeDelta struct {
	pos     int32 // index in hostname order
	freeMem float64
	cpuLoad float64
}

// linkDelta is one link's reservation as a snapshot layer left it.
type linkDelta struct {
	id       int32
	reserved float64
}

// Snapshot is a copy-on-write view of a Ledger at the moment Snapshot() was
// called. Reserve and Release mutate only the snapshot's private overlay;
// the underlying ledger is untouched. Fork() produces an independent child
// sharing all state accumulated so far, so a controller can release an
// application's claim once in a parent snapshot and then trial-reserve many
// candidate placements in cheap per-candidate forks.
//
// Nodes reports the base's hostname-ordered table with the overlays written
// over it by index, so it agrees with Ledger.Nodes on order by construction.
//
// A Snapshot is NOT safe for concurrent use; forks are independent and may
// be used from different goroutines concurrently (the shared layers are
// read-only once forked).
type Snapshot struct {
	base   *snapBase
	parent *Snapshot // frozen once forked from

	// The overlay: what this layer changed, at most one entry per node and
	// link. nodes is in index order and bisected; links holds the handful of
	// links one placement names and is searched linearly.
	nodes    []nodeDelta
	links    []linkDelta
	claims   []*Claim // reserved in this layer and still held
	released []uint64 // ids this layer released
	nextID   uint64
}

// Snapshot captures the ledger's current state as a copy-on-write view.
// After a mutation the capture copies the node table and the claim list; the
// link descriptions, the name index and the reserved-bandwidth column are
// shared, the ledger cloning one before it next writes to it. While the
// ledger is unchanged the capture is O(1), the immutable base being cached.
// Fork calls are O(1) plus the size of the fork's own mutations.
func (l *Ledger) Snapshot() *Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.snapCache == nil {
		l.topoShared, l.reservedShared = true, true
		l.snapCache = &snapBase{
			topo:     l.topo,
			states:   slices.Clone(l.states),
			reserved: l.reserved,
			// Claims are immutable after creation, so sharing pointers is safe.
			claims: slices.Clone(l.claims),
			nextID: l.nextID,
		}
	}
	return &Snapshot{base: l.snapCache, nextID: l.snapCache.nextID}
}

// Fork returns an independent copy-on-write child. The receiver must not be
// mutated after forking: the child reads through it, so writes to the parent
// would leak into (and race with) every fork.
func (s *Snapshot) Fork() *Snapshot {
	return &Snapshot{base: s.base, parent: s, nextID: s.nextID}
}

// findNode locates index pos in a layer's node overlay, which is kept in
// index order: a placement of hundreds of nodes is looked up and written
// node by node, and a linear search would make that quadratic.
func findNode(nodes []nodeDelta, pos int) (int, bool) {
	return slices.BinarySearchFunc(nodes, pos, func(d nodeDelta, pos int) int { return int(d.pos) - pos })
}

// nodeAt walks the overlay chain for the free memory and load of the node at
// index pos.
func (s *Snapshot) nodeAt(pos int) (freeMem, cpuLoad float64) {
	for cur := s; cur != nil; cur = cur.parent {
		if len(cur.nodes) == 0 {
			continue
		}
		if i, ok := findNode(cur.nodes, pos); ok {
			return cur.nodes[i].freeMem, cur.nodes[i].cpuLoad
		}
	}
	st := &s.base.states[pos]
	return st.FreeMemoryMB, st.CPULoad
}

// ReservedAt reports the bandwidth reserved on the link with the given id
// (see LinkIndex), walking the overlay chain.
func (s *Snapshot) ReservedAt(id int) float64 {
	for cur := s; cur != nil; cur = cur.parent {
		for i := range cur.links {
			if d := &cur.links[i]; int(d.id) == id {
				return d.reserved
			}
		}
	}
	return s.base.reserved[id]
}

// lookupClaim finds an outstanding claim, honouring releases recorded in
// any layer of the chain.
func (s *Snapshot) lookupClaim(id uint64) (*Claim, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if slices.Contains(cur.released, id) {
			return nil, false
		}
		for _, c := range cur.claims {
			if c.ID == id {
				return c, true
			}
		}
	}
	if i, ok := findClaim(s.base.claims, id); ok {
		return s.base.claims[i], true
	}
	return nil, false
}

func (s *Snapshot) setNode(pos int, freeMem, cpuLoad float64) {
	d := nodeDelta{pos: int32(pos), freeMem: freeMem, cpuLoad: cpuLoad}
	if i, ok := findNode(s.nodes, pos); ok {
		s.nodes[i] = d
	} else {
		s.nodes = slices.Insert(s.nodes, i, d)
	}
}

func (s *Snapshot) setReserved(id int, reserved float64) {
	for i := range s.links {
		if d := &s.links[i]; int(d.id) == id {
			d.reserved = reserved
			return
		}
	}
	s.links = append(s.links, linkDelta{id: int32(id), reserved: reserved})
}

// Nodes returns the state of all nodes sorted by hostname, matching
// Ledger.Nodes ordering exactly (the matcher's scan order depends on it).
func (s *Snapshot) Nodes() []NodeState { return s.AppendNodes(nil) }

// AppendNodes appends every node's state to dst in hostname order: a copy of
// the base table with each layer's changes written over it, oldest first.
func (s *Snapshot) AppendNodes(dst []NodeState) []NodeState {
	dst = append(dst, s.base.states...)
	s.patch(dst[len(dst)-len(s.base.states):])
	return dst
}

func (s *Snapshot) patch(out []NodeState) {
	if s.parent != nil {
		s.parent.patch(out)
	}
	for _, d := range s.nodes {
		out[d.pos].FreeMemoryMB, out[d.pos].CPULoad = d.freeMem, d.cpuLoad
	}
}

// Indexed implements View: a snapshot is read by index as it stands.
func (s *Snapshot) Indexed() *Snapshot { return s }

// Topology names the inventory of nodes and links a snapshot was taken over.
// Node indices and link ids mean the same thing in two snapshots exactly when
// their Topology values are equal: the ledger never writes to a topology a
// snapshot holds, so AddNode (which re-sorts the indices) and AddLink always
// show up as a different value. Holding one keeps it from being reused.
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
// the shared base and must not be written through.
func (s *Snapshot) NodeAt(pos int) *Node { return &s.base.states[pos].Node }

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
	ns := s.base.states[pos]
	ns.FreeMemoryMB, ns.CPULoad = s.nodeAt(pos)
	return ns
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

// Reserve applies node and link claims to the snapshot overlay with the
// same validation and arithmetic as Ledger.Reserve, so a hypothetical
// reservation is byte-identical to what committing it would produce.
func (s *Snapshot) Reserve(owner string, nodes []NodeClaim, links []LinkClaim) (*Claim, error) {
	// Validate first.
	var buf [32]int32
	at := s.base.topo.locate(buf[:0], nodes, links)
	err := checkClaims(at, nodes, links, func(p int) float64 {
		freeMem, _ := s.nodeAt(p)
		return freeMem
	})
	if err != nil {
		return nil, err
	}
	// Apply into the overlay.
	s.nodes = slices.Grow(s.nodes, len(nodes))
	for i, nc := range nodes {
		p := int(at[i])
		freeMem, cpuLoad := s.nodeAt(p)
		s.setNode(p, freeMem-nc.MemoryMB, cpuLoad+nc.CPULoad)
	}
	for i, lc := range links {
		id := int(at[len(nodes)+i])
		s.setReserved(id, s.ReservedAt(id)+lc.BandwidthMbps)
	}
	s.nextID++
	c := &Claim{ID: s.nextID, Owner: owner}
	c.Nodes = append(c.Nodes, nodes...)
	c.Links = append(c.Links, links...)
	s.claims = append(s.claims, c)
	return c, nil
}

// Release returns a claim's resources to the snapshot, whether the claim
// was created in this snapshot or captured from the underlying ledger. The
// clamping is Ledger.Release's own.
func (s *Snapshot) Release(id uint64) error {
	c, ok := s.lookupClaim(id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownClaim, id)
	}
	t := s.base.topo
	for _, nc := range c.Nodes {
		if p, ok := t.node(nc.Hostname); ok {
			freeMem, cpuLoad := s.nodeAt(p)
			freeMem, cpuLoad = releaseNode(freeMem, cpuLoad, s.base.states[p].Node.MemoryMB, nc)
			s.setNode(p, freeMem, cpuLoad)
		}
	}
	for _, lc := range c.Links {
		if lid, ok := t.link(lc.A, lc.B); ok {
			s.setReserved(lid, releaseBandwidth(s.ReservedAt(lid), lc))
		}
	}
	s.claims = slices.DeleteFunc(s.claims, func(held *Claim) bool { return held.ID == id })
	s.released = append(s.released, id)
	return nil
}
