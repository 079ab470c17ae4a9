package resource

import "slices"

// Columns holds what reservations change — free memory and CPU load by node
// index, reserved bandwidth by link id — as three dense columns. It is the
// one representation of that state and Charge and Release are its one
// arithmetic: the Ledger keeps its own state in a Columns, a written Snapshot
// keeps its state in one, the greedy search charges each candidate to one and
// restores it before the next, the joint search charges one level by level
// and restores it on the way back up, and the prediction models read the
// result directly.
// The node and link descriptions and the nodes' health are not here; they do
// not change under a reservation and are read from the topology and the
// snapshot.
//
// Fill a Columns with Snapshot.ReadColumns and write to it only through
// Charge, Release and Restore; the columns themselves are exported for
// reading. A Columns is not safe for concurrent use.
type Columns struct {
	FreeMemoryMB []float64 // by node index
	CPULoad      []float64 // by node index
	ReservedMbps []float64 // by link id

	// held lists, in no particular order, exactly the link ids whose
	// reserved bandwidth is not zero. A full mesh has a link per node pair
	// and few of them carry anything, so a capture of the ledger copies
	// these entries, not the column, and re-aiming a Columns zeroes these
	// entries and writes the capture's, not the whole column.
	held []int32
}

// setReserved writes the bandwidth reserved on link id, keeping held exact.
// A charge and the Restore that takes it back come in pairs, so the id to
// drop is looked for from the newest end.
func (c *Columns) setReserved(id int32, reserved float64) {
	was := c.ReservedMbps[id]
	c.ReservedMbps[id] = reserved
	switch {
	case was == 0 && reserved != 0:
		c.held = append(c.held, id)
	case was != 0 && reserved == 0:
		for i := len(c.held) - 1; i >= 0; i-- {
			if c.held[i] == id {
				last := len(c.held) - 1
				c.held[i] = c.held[last]
				c.held = c.held[:last]
				break
			}
		}
	}
}

// ReadColumns makes dst hold the snapshot's state, reusing dst's storage.
// The reserved column is re-aimed in two steps: the entries dst holds are
// zeroed, which leaves the column all zero, and the entries the snapshot
// holds are written.
func (s *Snapshot) ReadColumns(dst *Columns) {
	nodes := len(s.base.topo.nodes)
	dst.FreeMemoryMB = slices.Grow(dst.FreeMemoryMB[:0], nodes)[:nodes]
	dst.CPULoad = slices.Grow(dst.CPULoad[:0], nodes)[:nodes]
	for _, id := range dst.held {
		dst.ReservedMbps[id] = 0
	}
	dst.held = dst.held[:0]
	// Every entry up to the capacity is zero now, so resizing within it
	// exposes no old value, and growing past it appends zeros.
	links := len(s.base.topo.links)
	dst.ReservedMbps = slices.Grow(dst.ReservedMbps[:0], links)[:links]
	if own := s.own; own != nil {
		copy(dst.FreeMemoryMB, own.FreeMemoryMB)
		copy(dst.CPULoad, own.CPULoad)
		for _, id := range own.held {
			dst.ReservedMbps[id] = own.ReservedMbps[id]
		}
		dst.held = append(dst.held, own.held...)
		return
	}
	copy(dst.FreeMemoryMB, s.base.freeMem)
	copy(dst.CPULoad, s.base.load)
	for _, e := range s.base.reserved {
		dst.ReservedMbps[e.id] = e.mbps
		dst.held = append(dst.held, e.id)
	}
}

// Undo is the log of what charges wrote over in a Columns: for every entry
// written, the values it held before, in the order of the writes.
type Undo struct{ saved []savedEntry }

// savedEntry is one node's free memory and load (at >= 0, a node index) or
// one link's reserved bandwidth (at < 0, the complement of a link id) as they
// stood before a write.
type savedEntry struct {
	at   int32
	a, b float64
}

// Mark is the log's length now; Restore takes the columns back to it.
func (u *Undo) Mark() int { return len(u.saved) }

// Wrote reports the entry the i-th logged write went to: a node's index, or a
// link's id when link is set. Every entry written since a mark is logged, so
// the log from 0 to Mark is where the columns may differ from the state they
// were read from.
func (u *Undo) Wrote(i int) (index int32, link bool) {
	if at := u.saved[i].at; at < 0 {
		return ^at, true
	}
	return u.saved[i].at, false
}

// Charge validates node and link claims and, if every one is acceptable,
// applies them all: Ledger.Reserve and RestoreClaim charge through it, so a
// hypothetical reservation is bit for bit what committing it produces and a
// refused claim is refused in the same words. at holds each claim's place:
// the node claims' indices (Snapshot.NodeIndex), then the link claims' ids
// (LinkIndex), -1 for a node or link that is not registered. The caller
// vouches that the indices are of the topology the columns hold. No claim is
// recorded; undo, when it is not nil, logs what every entry written held
// before. A refused charge writes and logs nothing.
func (c *Columns) Charge(nodes []NodeClaim, links []LinkClaim, at []int32, undo *Undo) error {
	err := checkClaims(at, nodes, links, func(p int) float64 { return c.FreeMemoryMB[p] })
	if err != nil {
		return err
	}
	for i, nc := range nodes {
		p := at[i]
		if undo != nil {
			undo.saved = append(undo.saved, savedEntry{p, c.FreeMemoryMB[p], c.CPULoad[p]})
		}
		c.FreeMemoryMB[p] -= nc.MemoryMB
		c.CPULoad[p] += nc.CPULoad
	}
	for i, lc := range links {
		id := at[len(nodes)+i]
		if undo != nil {
			undo.saved = append(undo.saved, savedEntry{at: ^id, a: c.ReservedMbps[id]})
		}
		c.setReserved(id, c.ReservedMbps[id]+lc.BandwidthMbps)
	}
	return nil
}

// Release returns claim cl to the columns, which hold a state over topology
// t: every node claim's memory and load clamped at the node's installed
// memory and at an idle CPU, every link claim's bandwidth clamped at zero,
// nodes first. A node or link t does not have is passed over. Ledger.Release
// releases through it. It logs in undo, when it is not nil, what every entry
// it writes held before, so Restore takes the release back like a charge.
func (c *Columns) Release(cl *Claim, t Topology, undo *Undo) {
	for _, nc := range cl.Nodes {
		if p, ok := t.t.node(nc.Hostname); ok {
			if undo != nil {
				undo.saved = append(undo.saved, savedEntry{int32(p), c.FreeMemoryMB[p], c.CPULoad[p]})
			}
			c.FreeMemoryMB[p], c.CPULoad[p] = releaseNode(c.FreeMemoryMB[p], c.CPULoad[p], t.t.nodes[p].MemoryMB, nc)
		}
	}
	for _, lc := range cl.Links {
		if lid, ok := t.t.link(lc.A, lc.B); ok {
			if undo != nil {
				undo.saved = append(undo.saved, savedEntry{at: ^int32(lid), a: c.ReservedMbps[lid]})
			}
			c.setReserved(int32(lid), releaseBandwidth(c.ReservedMbps[lid], lc))
		}
	}
}

// Restore takes back every charge and release logged since mark, newest first, by writing
// each saved value over the entry it was read from. The columns end up holding
// the very bits they held at the mark, which adding the claims back could not
// promise: (x - m) + m need not be x in floating point, and a search that tries
// thousands of siblings on one state would hand each a slightly different one.
// Charges must be restored in the reverse of the order they were made in, and
// nothing else may write to the columns in between.
func (c *Columns) Restore(undo *Undo, mark int) {
	for i := len(undo.saved) - 1; i >= mark; i-- {
		if e := undo.saved[i]; e.at >= 0 {
			c.FreeMemoryMB[e.at], c.CPULoad[e.at] = e.a, e.b
		} else {
			c.setReserved(^e.at, e.a)
		}
	}
	undo.saved = undo.saved[:mark]
}
