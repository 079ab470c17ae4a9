package resource

import (
	"fmt"
	"slices"
)

// Columns holds what reservations change in a snapshot — free memory and CPU
// load by node index, reserved bandwidth by link id — as three dense columns.
// It is the one representation of hypothetical state: the greedy search
// charges each candidate to one Columns and restores it before the next, the
// joint search charges one Columns level by level and restores it on the way
// back up, a written Snapshot keeps its state in one, and the prediction
// models read the result directly. Its arithmetic is the Ledger's, which the
// tests hold it to bit for bit.
// The node descriptions, health and link descriptions are not here; they do
// not change under a reservation and are read from the snapshot.
//
// Fill a Columns with Snapshot.ReadColumns and write to it only through
// Charge, Release and Restore; the columns themselves are exported for
// reading. A Columns is not safe for concurrent use.
type Columns struct {
	FreeMemoryMB []float64 // by node index
	CPULoad      []float64 // by node index
	ReservedMbps []float64 // by link id

	// A full mesh has a link per node pair, so the reserved column is by far
	// the longest, and copying it whole for every trial would cost more than
	// the trial. Instead ReservedMbps is a copy of ledgerCol, the ledger's own
	// column as the snapshot shares it (never written again once shared, see
	// Ledger.ownReserved), taken once and kept; dirty lists the ids where
	// ReservedMbps has been written since. Re-aiming the Columns at another
	// state over the same ledger column restores those entries and nothing
	// else.
	ledgerCol []float64
	dirty     []int32
}

// sameColumn reports whether two slices are the same column: same storage,
// same length.
func sameColumn(a, b []float64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// rebase makes ReservedMbps equal col, a ledger column shared by a snapshot.
func (c *Columns) rebase(col []float64) {
	if sameColumn(c.ledgerCol, col) {
		for _, id := range c.dirty {
			c.ReservedMbps[id] = col[id]
		}
	} else {
		c.ReservedMbps = append(c.ReservedMbps[:0], col...)
		c.ledgerCol = col
	}
	c.dirty = c.dirty[:0]
}

func (c *Columns) setReserved(id int, reserved float64) {
	c.ReservedMbps[id] = reserved
	c.dirty = append(c.dirty, int32(id))
}

// ReadColumns makes dst hold the snapshot's state, reusing dst's storage.
func (s *Snapshot) ReadColumns(dst *Columns) {
	states := s.base.states
	dst.FreeMemoryMB = slices.Grow(dst.FreeMemoryMB[:0], len(states))[:len(states)]
	dst.CPULoad = slices.Grow(dst.CPULoad[:0], len(states))[:len(states)]
	for i := range states {
		dst.FreeMemoryMB[i], dst.CPULoad[i] = states[i].FreeMemoryMB, states[i].CPULoad
	}
	dst.rebase(s.base.reserved)
	if s.own == nil {
		return
	}
	copy(dst.FreeMemoryMB, s.own.FreeMemoryMB)
	copy(dst.CPULoad, s.own.CPULoad)
	for _, id := range s.own.dirty {
		dst.setReserved(int(id), s.own.ReservedMbps[id])
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

// Charge applies node and link claims to the columns with the validation and
// arithmetic of Ledger.Reserve, so the columns end up bit for bit what the
// ledger's would and a refused claim is refused in the same words. at holds
// each claim's place: the node claims' indices (Snapshot.NodeIndex), then the
// link claims' ids (LinkIndex), -1 for a node or link that is not registered.
// The caller vouches that the indices are of the topology the columns were
// read from. No claim is recorded; undo, when it is not nil, logs what every
// entry written held before. A refused charge writes and logs nothing.
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
		c.setReserved(int(id), c.ReservedMbps[id]+lc.BandwidthMbps)
	}
	return nil
}

// Release returns claim id of snapshot s to the columns with Ledger.Release's
// arithmetic and clamping, so the columns end up bit for bit what the
// ledger's would. It logs in undo, when it is not nil, what every entry it
// writes held before, so Restore takes the release back like a charge. The
// columns must have been read from s or from a snapshot of its Topology.
func (c *Columns) Release(s *Snapshot, id uint64, undo *Undo) error {
	cl, ok := s.lookupClaim(id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownClaim, id)
	}
	t := s.base.topo
	for _, nc := range cl.Nodes {
		if p, ok := t.node(nc.Hostname); ok {
			if undo != nil {
				undo.saved = append(undo.saved, savedEntry{int32(p), c.FreeMemoryMB[p], c.CPULoad[p]})
			}
			c.FreeMemoryMB[p], c.CPULoad[p] = releaseNode(c.FreeMemoryMB[p], c.CPULoad[p], s.base.states[p].Node.MemoryMB, nc)
		}
	}
	for _, lc := range cl.Links {
		if lid, ok := t.link(lc.A, lc.B); ok {
			if undo != nil {
				undo.saved = append(undo.saved, savedEntry{at: ^int32(lid), a: c.ReservedMbps[lid]})
			}
			c.setReserved(lid, releaseBandwidth(c.ReservedMbps[lid], lc))
		}
	}
	return nil
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
			c.ReservedMbps[^e.at] = e.a
			c.dirty = c.dirty[:len(c.dirty)-1] // the charge's own entry
		}
	}
	undo.saved = undo.saved[:mark]
}
