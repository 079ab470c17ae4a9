// Package replog defines the replicated event log that turns the Harmony
// controller into a deterministic state machine: every ledger-mutating
// operation (admission, release, re-evaluation, node lifecycle, session
// park/resume) is factored into a serializable Entry, so a follower
// replaying the same entries against the same cluster reconstructs a
// bit-identical resource ledger. The log carries the Raft-style metadata
// (index, term, commit point) the replica layer in internal/server needs
// for leader election and log shipping, plus an optional file-backed Store
// so a restarted replica resumes from its latest snapshot and log tail.
//
// The package is deliberately dependency-free (standard library only, no
// other harmony packages): protocol, core and server all import it.
package replog

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Op enumerates the state-machine operations a log entry can carry.
type Op string

// Controller operations (applied via core.Controller.Apply).
const (
	// OpRegister admits a bundle: RSL holds the script, Token optionally
	// binds the new instance to a client session.
	OpRegister Op = "register"
	// OpUnregister releases an instance (harmony_end or session expiry).
	OpUnregister Op = "unregister"
	// OpReevaluate runs one optimizer pass.
	OpReevaluate Op = "reevaluate"
	// OpForceChoice imposes a configuration on Instance.
	OpForceChoice Op = "force_choice"
	// OpNodeState transitions Hostname to State (up, draining, down).
	OpNodeState Op = "node_state"
)

// Session operations (applied to the replicated session table so resume
// tokens and leases survive failover).
const (
	// OpSessionStart records a session that holds no instance yet. Nothing
	// proposes it any more: a session enters the log with its first
	// OpRegister, which carries the Token the leader minted at startup, and
	// leaves it with its last OpUnregister or its OpSessionExpire. Logs
	// written while startup was replicated still hold it, and replay it.
	OpSessionStart Op = "session_start"
	// OpSessionPark marks a session disconnected; the lease grace window
	// runs on the leader's wall clock, but the decision is replicated.
	OpSessionPark Op = "session_park"
	// OpSessionResume re-binds a parked (or stolen) session to a new
	// connection on the current leader.
	OpSessionResume Op = "session_resume"
	// OpSessionExpire ends a session whose grace lapsed: appliers
	// unregister every bound instance deterministically.
	OpSessionExpire Op = "session_expire"
)

// Choice mirrors core.Choice as plain serializable data (replog cannot
// import core; core converts).
type Choice struct {
	// Option is the chosen option name.
	Option string `json:"option"`
	// Vars binds option variables to values.
	Vars map[string]float64 `json:"vars,omitempty"`
	// Grants raises OpMin memory tags, keyed by option-local node name.
	Grants map[string]float64 `json:"grants,omitempty"`
}

// Entry is one replicated state-machine command. Index and Term are
// assigned by the leader at append time; Time is the virtual instant the
// operation executes at, pinned in the entry so followers apply with the
// leader's clock rather than their own.
type Entry struct {
	// Index is the entry's position in the log (1-based).
	Index uint64 `json:"index"`
	// Term is the leader term that appended the entry.
	Term uint64 `json:"term"`
	// Time is the virtual time of the operation.
	Time time.Duration `json:"time"`
	// Op discriminates the operation.
	Op Op `json:"op"`

	// RSL carries the bundle script (OpRegister).
	RSL string `json:"rsl,omitempty"`
	// Instance targets an existing registration (OpUnregister,
	// OpForceChoice).
	Instance int `json:"instance,omitempty"`
	// Choice carries the imposed configuration (OpForceChoice).
	Choice *Choice `json:"choice,omitempty"`
	// Hostname and State carry a node transition (OpNodeState).
	Hostname string `json:"hostname,omitempty"`
	State    string `json:"state,omitempty"`
	// Token identifies the client session for session ops and OpRegister.
	Token string `json:"token,omitempty"`

	// Decoded is what the member that proposed the entry made of it before
	// proposing: a register's bundle as its door analysed it, for that
	// member's own apply (a *vet.Bundle). It rides on that member's copy of
	// the entry alone: JSON never carries it, so an entry from a peer, the
	// disk or a snapshot, and one that replaced it, has none. The member's
	// log drops it once the entry is applied (Log.DropDecoded).
	Decoded any `json:"-"`
}

// Snapshot is a compact prefix of the log: the serialized state machine as
// of Index, letting the log be truncated and lagging or restarted replicas
// catch up without full replay.
type Snapshot struct {
	// Index is the last log index folded into the snapshot.
	Index uint64 `json:"index"`
	// Term is the term of that entry.
	Term uint64 `json:"term"`
	// Time is the virtual time as of the snapshot.
	Time time.Duration `json:"time"`
	// Data is the opaque serialized state (the server composes controller
	// state and the session table).
	Data []byte `json:"data"`
}

// Errors reported by the log.
var (
	// ErrCompacted is returned when requesting entries already folded into
	// the snapshot.
	ErrCompacted = errors.New("replog: index compacted into snapshot")
	// ErrOutOfRange is returned for indexes past the end of the log.
	ErrOutOfRange = errors.New("replog: index out of range")
)

// Log is the in-memory replicated log: a contiguous run of entries
// starting just after the latest snapshot, plus the commit point. It is
// safe for concurrent use.
type Log struct {
	mu sync.Mutex
	// entries[i] has Index == snap.Index + 1 + i.
	entries []Entry
	snap    Snapshot // zero value: empty snapshot at index 0
	commit  uint64
}

// NewLog returns an empty log (first entry will be index 1).
func NewLog() *Log { return &Log{} }

// firstIndexLocked is the index of entries[0] (snapshot index + 1).
func (l *Log) firstIndexLocked() uint64 { return l.snap.Index + 1 }

// LastIndex reports the index of the newest entry (snapshot index when the
// tail is empty, 0 for a virgin log).
func (l *Log) LastIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastIndexLocked()
}

func (l *Log) lastIndexLocked() uint64 {
	if n := len(l.entries); n > 0 {
		return l.entries[n-1].Index
	}
	return l.snap.Index
}

// LastTerm reports the term of the newest entry (snapshot term when the
// tail is empty).
func (l *Log) LastTerm() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.entries); n > 0 {
		return l.entries[n-1].Term
	}
	return l.snap.Term
}

// LastTime reports the virtual time of the newest entry, so leaders mint
// non-decreasing entry times across elections.
func (l *Log) LastTime() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.entries); n > 0 {
		return l.entries[n-1].Time
	}
	return l.snap.Time
}

// Term reports the term of the entry at index (the snapshot term at the
// snapshot boundary).
func (l *Log) Term(index uint64) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if index == l.snap.Index {
		return l.snap.Term, nil
	}
	if index < l.firstIndexLocked() {
		return 0, ErrCompacted
	}
	if index > l.lastIndexLocked() {
		return 0, ErrOutOfRange
	}
	return l.entries[index-l.firstIndexLocked()].Term, nil
}

// Append assigns the next index to e and appends it (leader path). The
// entry's Term and Time must already be set. It returns the assigned index.
func (l *Log) Append(e *Entry) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.Index = l.lastIndexLocked() + 1
	l.entries = append(l.entries, *e)
	return e.Index
}

// TryAppend implements the follower-side consistency check: it accepts
// entries following (prevIndex, prevTerm) when the local log matches that
// point, truncating any conflicting suffix. It reports whether the append
// was accepted.
func (l *Log) TryAppend(prevIndex, prevTerm uint64, entries []Entry) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case prevIndex == l.snap.Index:
		if prevTerm != l.snap.Term {
			return false
		}
	case prevIndex < l.snap.Index:
		// The prefix is already folded into the snapshot: skip entries the
		// snapshot covers and accept the rest.
		for len(entries) > 0 && entries[0].Index <= l.snap.Index {
			entries = entries[1:]
		}
	default:
		if prevIndex > l.lastIndexLocked() {
			return false
		}
		if l.entries[prevIndex-l.firstIndexLocked()].Term != prevTerm {
			return false
		}
	}
	for _, e := range entries {
		if e.Index <= l.lastIndexLocked() {
			have := l.entries[e.Index-l.firstIndexLocked()]
			if have.Term == e.Term {
				continue // already present
			}
			// Conflict: a newer leader overwrites the divergent suffix.
			l.entries = l.entries[:e.Index-l.firstIndexLocked()]
		}
		l.entries = append(l.entries, e)
	}
	return true
}

// EntriesFrom returns a copy of the entries at index and beyond.
func (l *Log) EntriesFrom(index uint64) ([]Entry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if index < l.firstIndexLocked() {
		return nil, ErrCompacted
	}
	if index > l.lastIndexLocked() {
		return nil, nil
	}
	return append([]Entry(nil), l.entries[index-l.firstIndexLocked():]...), nil
}

// Entry returns a copy of the entry at index.
func (l *Log) Entry(index uint64) (Entry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if index < l.firstIndexLocked() {
		return Entry{}, ErrCompacted
	}
	if index > l.lastIndexLocked() {
		return Entry{}, ErrOutOfRange
	}
	return l.entries[index-l.firstIndexLocked()], nil
}

// DropDecoded forgets the Decoded of the entry at index, once its apply has
// taken it: the log would otherwise keep an analysis alive, after its
// application is gone, until the entry is compacted.
func (l *Log) DropDecoded(index uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if index >= l.firstIndexLocked() && index <= l.lastIndexLocked() {
		l.entries[index-l.firstIndexLocked()].Decoded = nil
	}
}

// Commit reports the commit point.
func (l *Log) Commit() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commit
}

// SetCommit raises the commit point (never lowers it) and clamps it to the
// last appended index. It returns the resulting commit point.
func (l *Log) SetCommit(index uint64) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if last := l.lastIndexLocked(); index > last {
		index = last
	}
	if index > l.commit {
		l.commit = index
	}
	return l.commit
}

// Snapshot returns the latest snapshot (zero value when none was taken).
func (l *Log) Snapshot() Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snap
}

// CompactTo installs a snapshot and drops the entries it covers. A
// snapshot older than the current one is ignored; a snapshot past the end
// of the log (from a leader installing state on a lagging follower)
// replaces the log wholesale.
func (l *Log) CompactTo(snap Snapshot) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if snap.Index <= l.snap.Index {
		return
	}
	if snap.Index >= l.lastIndexLocked() {
		l.entries = nil
	} else {
		keep := l.entries[snap.Index-l.firstIndexLocked()+1:]
		l.entries = append([]Entry(nil), keep...)
	}
	l.snap = snap
	if snap.Index > l.commit {
		l.commit = snap.Index
	}
}

// Restore initializes the log from persisted state: snapshot (possibly
// zero) plus the contiguous tail that follows it.
func (l *Log) Restore(snap Snapshot, tail []Entry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	next := snap.Index + 1
	for _, e := range tail {
		if e.Index != next {
			return fmt.Errorf("replog: restore: entry index %d, want %d", e.Index, next)
		}
		next++
	}
	l.snap = snap
	l.entries = append([]Entry(nil), tail...)
	l.commit = snap.Index
	return nil
}
