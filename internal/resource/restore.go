package resource

import (
	"fmt"
	"slices"
)

// RestoreClaim reinstates a claim with its original ID, used when a replica
// rebuilds its ledger from a replicated snapshot rather than by replaying
// the Reserve calls that created the claims. Validation matches Reserve
// (unknown nodes/links and memory over-subscription are rejected) and the
// claim-ID sequence is raised so later Reserve calls never collide.
func (l *Ledger) RestoreClaim(c Claim) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if c.ID == 0 {
		return fmt.Errorf("resource: restore claim: zero id")
	}
	at, ok := findClaim(l.claims, c.ID)
	if ok {
		return fmt.Errorf("resource: restore claim: duplicate id %d", c.ID)
	}
	if err := l.charge(c.Nodes, c.Links); err != nil {
		return err
	}
	cp := c
	cp.Nodes = append([]NodeClaim(nil), c.Nodes...)
	cp.Links = append([]LinkClaim(nil), c.Links...)
	l.claims = slices.Insert(l.claims, at, &cp)
	if cp.ID > l.nextID {
		l.nextID = cp.ID
	}
	return nil
}

// ClaimSeq reports the last claim ID issued, so replicated snapshots can
// reproduce the exact ID sequence on restore.
func (l *Ledger) ClaimSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextID
}

// SetClaimSeq sets the claim-ID sequence to seq so a restored ledger mints
// exactly the same IDs as its source, clamped so it never drops below an
// outstanding claim's ID (which would mint colliding IDs).
func (l *Ledger) SetClaimSeq(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.claims); n > 0 && l.claims[n-1].ID > seq {
		seq = l.claims[n-1].ID
	}
	l.nextID = seq
}
