package resource

import "slices"

// Columns holds what reservations change in a snapshot — free memory and CPU
// load by node index, reserved bandwidth by link id — as three dense columns
// a caller owns. It is the trial state of the controller's searches: the
// greedy search charges each candidate to one Columns and restores it before
// the next, the joint search charges one Columns level by level and restores
// it on the way back up, and the prediction models read the result directly,
// where a Snapshot fork would record each write in an overlay and walk the
// overlay chain on each read.
// The node descriptions, health and link descriptions are not here; they do
// not change under a reservation and are read from the snapshot.
//
// Fill a Columns with Snapshot.ReadColumns and write to it only through
// Reserve, or Charge and Restore; the columns themselves are exported for
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
	s.patchColumns(dst)
}

// patchColumns writes each layer's changes over the base's values, oldest
// first.
func (s *Snapshot) patchColumns(dst *Columns) {
	if s.parent != nil {
		s.parent.patchColumns(dst)
	}
	for _, d := range s.nodes {
		dst.FreeMemoryMB[d.pos], dst.CPULoad[d.pos] = d.freeMem, d.cpuLoad
	}
	for _, d := range s.links {
		dst.setReserved(int(d.id), d.reserved)
	}
}

// Reserve applies node and link claims to the columns with the validation
// and arithmetic of Snapshot.Reserve, so the columns end up bit for bit what a
// fork's would and a refused claim is refused in the same words. at holds each
// claim's place: the node claims' indices (Snapshot.NodeIndex), then the link
// claims' ids (LinkIndex), -1 for a node or link that is not registered. The
// caller vouches that the indices are of the topology the columns were read
// from. Nothing is recorded: there is no claim to release.
func (c *Columns) Reserve(nodes []NodeClaim, links []LinkClaim, at []int32) error {
	return c.Charge(nodes, links, at, nil)
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

// Charge is Reserve that also logs in undo, when it is not nil, what every
// entry it writes held before. A refused charge writes and logs nothing.
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

// Restore takes back every charge logged since mark, newest first, by writing
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
