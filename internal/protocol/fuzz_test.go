package protocol

import (
	"bytes"
	"encoding/json"
	"testing"

	"harmony/internal/replog"
)

// FuzzDecodeMessage feeds arbitrary lines to Reader.Read: it must never
// panic, and whatever decodes must re-encode to a line that decodes to the
// same message (compared in wire form: an empty map and a missing one are
// the same message).
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range []*Message{
		{Type: TypeStartup, Seq: 1, AppID: "DBclient"},
		{Type: TypeUpdate, Instance: 3, Vars: map[string]VarValue{"where": StrVar("DS"), "mem": NumVar(24)}},
		{Type: TypeError, Error: ErrNotLeader + ": leader is at h:1", Leader: "h:1"},
		{Type: TypeVoteRequest, Term: 4, From: "a", LastIndex: 9, LastTerm: 3},
		{
			Type: TypeAppendEntries, Term: 4, From: "a", PrevIndex: 9, PrevTerm: 3, CommitIndex: 8,
			Entries: []replog.Entry{{Index: 10, Term: 4, Time: 1500, Op: replog.OpRegister, RSL: "harmonyBundle x {}", Token: "t"}},
		},
		{Type: TypeInstallSnapshot, Term: 4, Snapshot: &replog.Snapshot{Index: 7, Term: 2, Data: []byte(`{"a":1}`)}},
		{Type: TypeClusterStatusReply, Replica: &ReplicaStatus{ID: "a", Role: "leader", Term: 4, SnapshotAgeSeconds: -1}},
	} {
		line, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	f.Add([]byte(`{"seq":1}`))
	f.Add([]byte(`{"type":"status","vars":{}}`))
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, line []byte) {
		m, err := NewReader(bytes.NewReader(line)).Read()
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := NewWriter(&first).Write(m); err != nil {
			return // too large once re-encoded: refused, not mangled
		}
		wire := append([]byte(nil), first.Bytes()...)
		again, err := NewReader(&first).Read()
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v\n%s", err, wire)
		}
		if err := NewWriter(&second).Write(again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire, second.Bytes()) {
			t.Fatalf("message changed in a round trip:\n%s\n%s", wire, second.Bytes())
		}
	})
}
