package server

import (
	"errors"
	"fmt"
	"sort"
)

// sessionRecord is one client session's replicated state: the resume token
// and bound instances that must survive leader failover so a reconnecting
// client resumes against the new leader exactly as it would have against the
// old one. Snapshots written before the record lost its appId and vars fields
// still decode: encoding/json skips the fields it does not know.
type sessionRecord struct {
	Token     string `json:"token"`
	Instances []int  `json:"instances,omitempty"`
	// Parked marks a session whose connection dropped; its lease-grace
	// window runs on the current leader's wall clock.
	Parked bool `json:"parked,omitempty"`
}

func (r *sessionRecord) clone() *sessionRecord {
	cp := *r
	cp.Instances = append([]int(nil), r.Instances...)
	return &cp
}

// sessionTable is the replicated session state, mutated only by applied log
// entries so every replica holds the same table. All methods called from
// the apply path are deterministic (no clocks, no randomness, no
// map-iteration-order-dependent results), which
// TestReplicaReplayIsDeterministic checks by running two tables side by side.
// It has no lock: the replica's loop goroutine is its only user.
type sessionTable struct {
	m map[string]*sessionRecord
}

func newSessionTable() *sessionTable {
	return &sessionTable{m: make(map[string]*sessionRecord)}
}

// start records a fresh session (OpSessionStart). Nothing proposes one any
// more: a session enters the table with its first registration (bind). Logs
// written while startup was replicated still hold them, and replay them here.
func (t *sessionTable) start(token string) error {
	if _, ok := t.m[token]; ok {
		return fmt.Errorf("server: session %s already exists", token)
	}
	t.m[token] = &sessionRecord{Token: token}
	return nil
}

// bind attaches a registered instance to a session (OpRegister apply),
// recording the session if this is its first.
func (t *sessionTable) bind(token string, instance int) {
	rec, ok := t.m[token]
	if !ok {
		rec = &sessionRecord{Token: token}
		t.m[token] = rec
	}
	for _, id := range rec.Instances {
		if id == instance {
			return
		}
	}
	rec.Instances = append(rec.Instances, instance)
	sort.Ints(rec.Instances)
}

// unbindInstance detaches an instance from whichever session holds it
// (OpUnregister apply), and forgets a session left with none. An instance is
// in at most one session, so the map's order does not matter.
func (t *sessionTable) unbindInstance(instance int) {
	for token, rec := range t.m {
		for i, id := range rec.Instances {
			if id == instance {
				rec.Instances = append(rec.Instances[:i], rec.Instances[i+1:]...)
				if len(rec.Instances) == 0 {
					delete(t.m, token)
				}
				return
			}
		}
	}
}

// park marks a session disconnected (OpSessionPark).
func (t *sessionTable) park(token string) error {
	rec, ok := t.m[token]
	if !ok {
		return fmt.Errorf("server: unknown session %s", token)
	}
	rec.Parked = true
	return nil
}

// resume re-activates a session (OpSessionResume) and returns a copy for
// the leader to rebind onto the resuming connection.
func (t *sessionTable) resume(token string) (*sessionRecord, error) {
	rec, ok := t.m[token]
	if !ok {
		return nil, errors.New("unknown or expired token")
	}
	rec.Parked = false
	return rec.clone(), nil
}

// expire removes a session (OpSessionExpire) and returns the instances the
// applier must unregister, in sorted order.
func (t *sessionTable) expire(token string) ([]int, bool) {
	rec, ok := t.m[token]
	if !ok {
		return nil, false
	}
	delete(t.m, token)
	return rec.Instances, true
}

// get returns a copy of one session.
func (t *sessionTable) get(token string) (*sessionRecord, bool) {
	rec, ok := t.m[token]
	if !ok {
		return nil, false
	}
	return rec.clone(), true
}

// tokens lists all session tokens, sorted (used by a new leader to arm
// grace timers after failover).
func (t *sessionTable) tokens() []string {
	out := make([]string, 0, len(t.m))
	for tok := range t.m {
		out = append(out, tok)
	}
	sort.Strings(out)
	return out
}

// snapshot serializes the table deterministically (sorted by token).
func (t *sessionTable) snapshot() []sessionRecord {
	out := make([]sessionRecord, 0, len(t.m))
	for _, rec := range t.m {
		out = append(out, *rec.clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Token < out[j].Token })
	return out
}

// restore replaces the table wholesale (snapshot install).
func (t *sessionTable) restore(recs []sessionRecord) {
	t.m = make(map[string]*sessionRecord, len(recs))
	for i := range recs {
		rec := recs[i]
		t.m[rec.Token] = rec.clone()
	}
}
