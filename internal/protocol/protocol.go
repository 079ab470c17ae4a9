// Package protocol defines the wire format between Harmony-aware
// applications and the Harmony server (Section 5 of the paper). The
// prototype's client library links into applications and talks to a server
// listening on a well-known port; messages here are newline-delimited JSON
// so they remain debuggable with standard tools.
//
// The codec is hand-written and reflects on nothing: Writer emits exactly
// the bytes json.Marshal emits for a Message, and Reader decodes a line to
// exactly what json.Unmarshal makes of it, failing where it fails.
// FuzzDecodeMessage holds both directions to encoding/json. The
// replication-only values (entries, snapshot, replica) are replog's types
// and keep encoding/json for their value, so they have one encoding, on
// disk and on the wire.
package protocol

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"harmony/internal/replog"
)

// DefaultPort is the Harmony server's well-known port.
const DefaultPort = 9989

// MsgType enumerates protocol messages.
type MsgType string

// Client-to-server message types mirror the Figure 5 API.
const (
	// TypeStartup registers a program (harmony_startup).
	TypeStartup MsgType = "startup"
	// TypeBundleSetup sends an RSL bundle (harmony_bundle_setup).
	TypeBundleSetup MsgType = "bundle_setup"
	// TypeAddVariable declares a Harmony variable (harmony_add_variable).
	TypeAddVariable MsgType = "add_variable"
	// TypeReport feeds an application metric to the server.
	TypeReport MsgType = "report"
	// TypeEnd announces termination (harmony_end).
	TypeEnd MsgType = "end"
	// TypeStatus asks for a controller snapshot (harmonyctl).
	TypeStatus MsgType = "status"
	// TypeReevaluate forces an optimizer pass (harmonyctl).
	TypeReevaluate MsgType = "reevaluate"
	// TypeHeartbeat keeps the connection's lease alive without other
	// traffic; the server replies with an ack.
	TypeHeartbeat MsgType = "heartbeat"
	// TypeResume re-binds a parked session after a reconnect, identified by
	// the resume token issued in the startup ack.
	TypeResume MsgType = "resume"
	// TypeNodeState transitions a machine's lifecycle state (harmonyctl
	// node down|drain|up).
	TypeNodeState MsgType = "node_state"
	// TypeClusterStatus asks a replica for its replication state
	// (harmonyctl cluster status). Answered by leaders and followers alike.
	TypeClusterStatus MsgType = "cluster_status"
)

// Replica-to-replica message types: the minimal term-based election and
// log-shipping protocol (see internal/server/replica.go), carried over the
// same framing as the client protocol.
const (
	// TypeVoteRequest solicits a vote for candidate From in Term.
	TypeVoteRequest MsgType = "vote_request"
	// TypeVoteReply answers with Granted.
	TypeVoteReply MsgType = "vote_reply"
	// TypeAppendEntries ships log entries (empty = heartbeat) following
	// (PrevIndex, PrevTerm), with the leader's CommitIndex.
	TypeAppendEntries MsgType = "append_entries"
	// TypeAppendReply answers with Success and the follower's MatchIndex.
	TypeAppendReply MsgType = "append_reply"
	// TypeInstallSnapshot replaces a lagging follower's state wholesale.
	TypeInstallSnapshot MsgType = "install_snapshot"
)

// Server-to-client message types.
const (
	// TypeAck acknowledges a request.
	TypeAck MsgType = "ack"
	// TypeError reports a failed request.
	TypeError MsgType = "error"
	// TypeUpdate delivers flushed Harmony variable changes.
	TypeUpdate MsgType = "update"
	// TypeStatusReply carries the controller snapshot.
	TypeStatusReply MsgType = "status_reply"
	// TypeClusterStatusReply carries one replica's replication state.
	TypeClusterStatusReply MsgType = "cluster_status_reply"
)

// ErrNotLeader is the Error prefix a follower replies to mutating requests
// with; the Leader field carries the current leader's client address when
// known, letting clients redirect instead of scanning.
const ErrNotLeader = "not_leader"

// ReplicaStatus is one replica's replication state (TypeClusterStatusReply).
type ReplicaStatus struct {
	// ID identifies the replica (its peer address by default).
	ID string `json:"id"`
	// Role is "leader", "follower" or "candidate".
	Role string `json:"role"`
	// Term is the replica's current term.
	Term uint64 `json:"term"`
	// CommitIndex and LastIndex describe log progress.
	CommitIndex uint64 `json:"commitIndex"`
	LastIndex   uint64 `json:"lastIndex"`
	// SnapshotIndex is the last log index folded into the local snapshot
	// (0 when none was taken).
	SnapshotIndex uint64 `json:"snapshotIndex"`
	// SnapshotAgeSeconds is the wall-clock age of that snapshot, -1 when no
	// snapshot exists.
	SnapshotAgeSeconds float64 `json:"snapshotAgeSeconds"`
	// Leader is the last known leader's client address ("" when unknown).
	Leader string `json:"leader,omitempty"`
	// Peers counts configured peer replicas (excluding this one).
	Peers int `json:"peers"`
}

// VarValue is a Harmony variable value: a number or a string. It is also the
// namespace's leaf value (namespace.Value).
type VarValue struct {
	// Num holds the value when IsString is false.
	Num float64 `json:"num,omitempty"`
	// Str holds the value when IsString is true.
	Str string `json:"str,omitempty"`
	// IsString discriminates the arms.
	IsString bool `json:"isString,omitempty"`
}

// NumVar builds a numeric VarValue.
func NumVar(v float64) VarValue { return VarValue{Num: v} }

// StrVar builds a string VarValue.
func StrVar(s string) VarValue { return VarValue{Str: s, IsString: true} }

// String implements fmt.Stringer.
func (v VarValue) String() string {
	if v.IsString {
		return v.Str
	}
	return fmt.Sprintf("%g", v.Num)
}

// AppStatus is one application's state in a status reply.
type AppStatus struct {
	Instance         int      `json:"instance"`
	App              string   `json:"app"`
	Bundle           string   `json:"bundle"`
	Option           string   `json:"option"`
	Hosts            []string `json:"hosts"`
	PredictedSeconds float64  `json:"predictedSeconds"`
	Switches         int      `json:"switches"`
}

// Message is the single envelope for every protocol exchange. Fields are
// populated per Type; unused fields stay zero and are omitted on the wire.
type Message struct {
	// Type discriminates the message.
	Type MsgType `json:"type"`
	// Seq correlates requests and replies on one connection.
	Seq uint64 `json:"seq,omitempty"`

	// AppID names the program in TypeStartup (e.g. "DBclient").
	AppID string `json:"appId,omitempty"`
	// UseInterrupts requests pushed updates (vs pure polling) at startup.
	UseInterrupts bool `json:"useInterrupts,omitempty"`

	// RSL carries the bundle definition for TypeBundleSetup.
	RSL string `json:"rsl,omitempty"`

	// Name and Value carry a variable declaration (TypeAddVariable) or a
	// metric observation (TypeReport).
	Name  string   `json:"name,omitempty"`
	Value VarValue `json:"value,omitempty"`

	// Instance is the controller-assigned application instance.
	Instance int `json:"instance,omitempty"`

	// Vars carries flushed variable updates for TypeUpdate.
	Vars map[string]VarValue `json:"vars,omitempty"`

	// Apps carries the snapshot for TypeStatusReply.
	Apps []AppStatus `json:"apps,omitempty"`
	// Objective carries the current objective value for TypeStatusReply.
	Objective float64 `json:"objective,omitempty"`

	// Error carries the failure reason for TypeError.
	Error string `json:"error,omitempty"`

	// ResumeToken identifies a session for lease-grace resumption: issued
	// in the TypeStartup ack, presented back in TypeResume.
	ResumeToken string `json:"resumeToken,omitempty"`
	// Instances lists the instance ids re-bound by a TypeResume ack.
	Instances []int `json:"instances,omitempty"`

	// Hostname and State carry a node lifecycle transition (TypeNodeState):
	// State is one of "up", "drain"/"draining", "down".
	Hostname string `json:"hostname,omitempty"`
	State    string `json:"state,omitempty"`

	// Replication fields (replica-to-replica messages and cluster status).

	// Term is the sender's current term.
	Term uint64 `json:"term,omitempty"`
	// From identifies the sending replica.
	From string `json:"from,omitempty"`
	// Leader is the current leader's advertised client address: set on
	// TypeAppendEntries (so followers can redirect clients) and on
	// not_leader error replies.
	Leader string `json:"leader,omitempty"`
	// PrevIndex/PrevTerm anchor a TypeAppendEntries consistency check;
	// LastIndex/LastTerm carry a candidate's log position in
	// TypeVoteRequest and a snapshot's position in TypeInstallSnapshot.
	PrevIndex uint64 `json:"prevIndex,omitempty"`
	PrevTerm  uint64 `json:"prevTerm,omitempty"`
	LastIndex uint64 `json:"lastIndex,omitempty"`
	LastTerm  uint64 `json:"lastTerm,omitempty"`
	// CommitIndex is the leader's commit point (TypeAppendEntries).
	CommitIndex uint64 `json:"commitIndex,omitempty"`
	// Entries are the shipped log entries (TypeAppendEntries).
	Entries []replog.Entry `json:"entries,omitempty"`
	// Granted answers a vote request; Success answers an append.
	Granted bool `json:"granted,omitempty"`
	Success bool `json:"success,omitempty"`
	// MatchIndex is the follower's highest replicated index (TypeAppendReply).
	MatchIndex uint64 `json:"matchIndex,omitempty"`
	// Snapshot carries the serialized state machine (TypeInstallSnapshot).
	Snapshot *replog.Snapshot `json:"snapshot,omitempty"`
	// Replica carries the replication state (TypeClusterStatusReply).
	Replica *ReplicaStatus `json:"replica,omitempty"`
}

// MaxMessageBytes bounds a single wire message.
const MaxMessageBytes = 1 << 20

// ErrMessageTooLarge is returned for messages exceeding MaxMessageBytes.
var ErrMessageTooLarge = errors.New("protocol: message too large")

// Writer frames messages onto a stream. Not safe for concurrent use; guard
// with a mutex when sharing.
type Writer struct {
	w   io.Writer
	enc encoder
	// err is the first write error: a line may have gone out in part, so
	// the stream is dead and every later Write fails with it.
	err error
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

// keepBuffer bounds the buffer a Writer or Reader keeps between messages.
const keepBuffer = 64 << 10

// Write sends one message as one line, in one write to the stream.
func (w *Writer) Write(m *Message) error {
	if w.err != nil {
		return fmt.Errorf("protocol: write: %w", w.err)
	}
	w.enc.err = nil
	w.enc.message(m)
	line := append(w.enc.b, '\n')
	w.enc.b = line[:0]
	if cap(line) > keepBuffer {
		w.enc.b = nil
	}
	if w.enc.err != nil {
		return fmt.Errorf("protocol: marshal: %w", w.enc.err)
	}
	if len(line) > MaxMessageBytes+1 {
		return ErrMessageTooLarge
	}
	if _, w.err = w.w.Write(line); w.err != nil {
		return fmt.Errorf("protocol: write: %w", w.err)
	}
	return nil
}

// WireError marks input the peer framed wrongly — an oversized line,
// non-JSON bytes, or a typeless message — as opposed to an I/O failure.
// Servers can reply with TypeError and the reason before closing instead of
// dropping the connection silently.
type WireError struct {
	// Reason is a short peer-presentable description.
	Reason string
	// Err is the underlying error, if any.
	Err error
}

// Error implements error.
func (e *WireError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("protocol: %s: %v", e.Reason, e.Err)
	}
	return "protocol: " + e.Reason
}

// Unwrap exposes the underlying error.
func (e *WireError) Unwrap() error { return e.Err }

// Reader deframes messages from a stream. Not safe for concurrent use.
type Reader struct {
	s   *bufio.Scanner
	dec decoder
}

// NewReader wraps r. Its line buffer starts small, as most messages are,
// and grows up to a line of MaxMessageBytes and its newline.
func NewReader(r io.Reader) *Reader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 4<<10), MaxMessageBytes+1)
	return &Reader{s: s}
}

// Read receives the next message; io.EOF signals a clean close. Malformed
// input (oversized, non-JSON, typeless) is reported as a *WireError.
func (r *Reader) Read() (*Message, error) {
	if !r.s.Scan() {
		if err := r.s.Err(); err != nil {
			if errors.Is(err, bufio.ErrTooLong) {
				return nil, &WireError{Reason: fmt.Sprintf("line exceeds %d byte limit", MaxMessageBytes), Err: err}
			}
			return nil, fmt.Errorf("protocol: read: %w", err)
		}
		return nil, io.EOF
	}
	m, err := r.dec.decode(r.s.Bytes())
	if err != nil {
		return nil, &WireError{Reason: "malformed message", Err: err}
	}
	if m.Type == "" {
		return nil, &WireError{Reason: "message without type"}
	}
	return m, nil
}
