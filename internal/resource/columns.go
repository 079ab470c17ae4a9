package resource

import "slices"

// Columns holds what reservations change in a snapshot — free memory and CPU
// load by node index, reserved bandwidth by link id — as three dense columns
// a caller owns. It is the trial state of the controller's greedy search: one
// candidate's claims are charged to a private Columns by index and the
// prediction models read the result directly, where a Snapshot fork would
// record each write in an overlay and walk the overlay chain on each read.
// The node descriptions, health and link descriptions are not here; they do
// not change under a reservation and are read from the snapshot.
//
// Fill a Columns with Snapshot.ReadColumns or CopyFrom and write to it only
// through Reserve; the columns themselves are exported for reading. A Columns
// is not safe for concurrent use, but any number of goroutines may CopyFrom
// one that none of them writes.
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

// CopyFrom makes c hold the state src holds, reusing c's storage. The cost is
// two copies the length of the node table plus the number of links either
// side has written; src is only read.
func (c *Columns) CopyFrom(src *Columns) {
	c.FreeMemoryMB = append(c.FreeMemoryMB[:0], src.FreeMemoryMB...)
	c.CPULoad = append(c.CPULoad[:0], src.CPULoad...)
	c.rebase(src.ledgerCol)
	for _, id := range src.dirty {
		c.setReserved(int(id), src.ReservedMbps[id])
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
	err := checkClaims(at, nodes, links, func(p int) float64 { return c.FreeMemoryMB[p] })
	if err != nil {
		return err
	}
	for i, nc := range nodes {
		c.FreeMemoryMB[at[i]] -= nc.MemoryMB
		c.CPULoad[at[i]] += nc.CPULoad
	}
	for i, lc := range links {
		id := int(at[len(nodes)+i])
		c.setReserved(id, c.ReservedMbps[id]+lc.BandwidthMbps)
	}
	return nil
}
