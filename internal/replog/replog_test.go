package replog

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func entry(index, term uint64, op Op) Entry {
	return Entry{Index: index, Term: term, Op: op, Time: time.Duration(index) * time.Second}
}

func TestAppendAssignsIndexes(t *testing.T) {
	l := NewLog()
	for i := 1; i <= 3; i++ {
		e := Entry{Term: 1, Op: OpReevaluate}
		if got := l.Append(&e); got != uint64(i) {
			t.Fatalf("append %d: index %d", i, got)
		}
	}
	if l.LastIndex() != 3 || l.LastTerm() != 1 {
		t.Fatalf("last = (%d, %d), want (3, 1)", l.LastIndex(), l.LastTerm())
	}
}

func TestTryAppendConsistency(t *testing.T) {
	l := NewLog()
	if !l.TryAppend(0, 0, []Entry{entry(1, 1, OpReevaluate), entry(2, 1, OpReevaluate)}) {
		t.Fatal("initial append rejected")
	}
	// Mismatched prev term must be rejected.
	if l.TryAppend(2, 9, []Entry{entry(3, 9, OpReevaluate)}) {
		t.Fatal("append with wrong prev term accepted")
	}
	// Gap must be rejected.
	if l.TryAppend(5, 1, []Entry{entry(6, 1, OpReevaluate)}) {
		t.Fatal("append past end accepted")
	}
	// Duplicate delivery is idempotent.
	if !l.TryAppend(0, 0, []Entry{entry(1, 1, OpReevaluate), entry(2, 1, OpReevaluate)}) {
		t.Fatal("duplicate append rejected")
	}
	if l.LastIndex() != 2 {
		t.Fatalf("last index %d after duplicate, want 2", l.LastIndex())
	}
	// Conflicting suffix is truncated and replaced.
	if !l.TryAppend(1, 1, []Entry{entry(2, 2, OpNodeState), entry(3, 2, OpReevaluate)}) {
		t.Fatal("conflicting append rejected")
	}
	got, err := l.Entry(2)
	if err != nil || got.Term != 2 || got.Op != OpNodeState {
		t.Fatalf("entry 2 = %+v, %v; want term-2 node_state", got, err)
	}
	if l.LastIndex() != 3 {
		t.Fatalf("last index %d, want 3", l.LastIndex())
	}
}

func TestCommitMonotonicClamped(t *testing.T) {
	l := NewLog()
	l.Append(&Entry{Term: 1, Op: OpReevaluate})
	if got := l.SetCommit(5); got != 1 {
		t.Fatalf("commit clamped to %d, want 1", got)
	}
	if got := l.SetCommit(0); got != 1 {
		t.Fatalf("commit lowered to %d, want 1", got)
	}
}

func TestCompactAndTermAtBoundary(t *testing.T) {
	l := NewLog()
	for i := 0; i < 5; i++ {
		l.Append(&Entry{Term: 1, Op: OpReevaluate})
	}
	l.CompactTo(Snapshot{Index: 3, Term: 1, Time: 3 * time.Second})
	if _, err := l.EntriesFrom(2); err != ErrCompacted {
		t.Fatalf("EntriesFrom(2) err = %v, want ErrCompacted", err)
	}
	if tm, err := l.Term(3); err != nil || tm != 1 {
		t.Fatalf("Term(3) = %d, %v; want snapshot term 1", tm, err)
	}
	rest, err := l.EntriesFrom(4)
	if err != nil || len(rest) != 2 {
		t.Fatalf("EntriesFrom(4) = %d entries, %v; want 2", len(rest), err)
	}
	if l.Commit() != 3 {
		t.Fatalf("commit %d after compaction, want 3", l.Commit())
	}
	// A snapshot at/past the end wipes the tail.
	l.CompactTo(Snapshot{Index: 9, Term: 2})
	if l.LastIndex() != 9 || l.LastTerm() != 2 {
		t.Fatalf("after wholesale compaction last = (%d, %d), want (9, 2)", l.LastIndex(), l.LastTerm())
	}
	// Stale snapshots are ignored.
	l.CompactTo(Snapshot{Index: 4, Term: 1})
	if l.Snapshot().Index != 9 {
		t.Fatalf("stale snapshot replaced newer one")
	}
}

func TestTryAppendAcrossSnapshot(t *testing.T) {
	l := NewLog()
	l.CompactTo(Snapshot{Index: 3, Term: 1})
	// Entries overlapping the snapshot are skipped, the rest accepted.
	if !l.TryAppend(2, 1, []Entry{entry(3, 1, OpReevaluate), entry(4, 1, OpNodeState)}) {
		t.Fatal("append overlapping snapshot rejected")
	}
	if l.LastIndex() != 4 {
		t.Fatalf("last index %d, want 4", l.LastIndex())
	}
}

func TestRestoreValidatesContiguity(t *testing.T) {
	l := NewLog()
	snap := Snapshot{Index: 2, Term: 1}
	if err := l.Restore(snap, []Entry{entry(3, 1, OpReevaluate), entry(5, 1, OpReevaluate)}); err == nil {
		t.Fatal("gap in restore tail accepted")
	}
	if err := l.Restore(snap, []Entry{entry(3, 1, OpReevaluate)}); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if l.LastIndex() != 3 || l.Commit() != 2 {
		t.Fatalf("restore: last %d commit %d, want 3/2", l.LastIndex(), l.Commit())
	}
}

func TestEntryJSONRoundTrip(t *testing.T) {
	e := Entry{
		Index: 7, Term: 2, Time: 90 * time.Second, Op: OpForceChoice,
		Instance: 3,
		Choice: &Choice{
			Option: "replicated",
			Vars:   map[string]float64{"n": 4},
			Grants: map[string]float64{"node0": 512},
		},
	}
	data, err := json.Marshal(&e)
	if err != nil {
		t.Fatal(err)
	}
	var got Entry
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e, got) {
		t.Fatalf("round trip mismatch:\n  in  %+v\n  out %+v", e, got)
	}
}

func TestStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	st, p, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if p.State.Term != 0 || p.Snapshot.Index != 0 || len(p.Entries) != 0 {
		t.Fatalf("fresh store not empty: %+v", p)
	}
	if err := st.SaveHardState(HardState{Term: 3, VotedFor: "r2"}); err != nil {
		t.Fatal(err)
	}
	tail := []Entry{entry(1, 1, OpReevaluate), entry(2, 2, OpNodeState), entry(3, 3, OpReevaluate)}
	if err := st.AppendEntries(tail); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st, p, err = OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if p.State.Term != 3 || p.State.VotedFor != "r2" {
		t.Fatalf("hard state = %+v", p.State)
	}
	if !reflect.DeepEqual(p.Entries, tail) {
		t.Fatalf("entries = %+v, want %+v", p.Entries, tail)
	}

	// Snapshot + rewrite: only the tail past the snapshot survives.
	snap := Snapshot{Index: 2, Term: 2, Data: []byte(`{"x":1}`)}
	if err := st.SaveSnapshot(snap, tail[2:]); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendEntries([]Entry{entry(4, 3, OpReevaluate)}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st, p, err = OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if !reflect.DeepEqual(p.Snapshot, snap) {
		t.Fatalf("snapshot = %+v, want %+v", p.Snapshot, snap)
	}
	if len(p.Entries) != 2 || p.Entries[0].Index != 3 || p.Entries[1].Index != 4 {
		t.Fatalf("tail after snapshot = %+v", p.Entries)
	}
}

func TestStoreDropsTornTail(t *testing.T) {
	dir := t.TempDir()
	st, _, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendEntries([]Entry{entry(1, 1, OpReevaluate), entry(2, 1, OpReevaluate)}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Simulate a crash mid-append: a truncated trailing line.
	f, err := os.OpenFile(filepath.Join(dir, "log.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"index":3,"term":1,"op":"reev`)
	f.Close()

	st, p, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if len(p.Entries) != 2 {
		t.Fatalf("recovered %d entries, want 2 (torn line dropped)", len(p.Entries))
	}
}

// A record whose bytes changed on disk ends the recovered tail like a torn
// write, instead of surviving as a different entry; a log written before
// records carried checksums is still read.
func TestStoreChecksumsRecords(t *testing.T) {
	dir := t.TempDir()
	st, _, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	tail := []Entry{entry(1, 1, OpReevaluate), entry(2, 1, OpNodeState), entry(3, 1, OpReevaluate)}
	if err := st.AppendEntries(tail); err != nil {
		t.Fatal(err)
	}
	st.Close()
	path := filepath.Join(dir, "log.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// "node_state" becomes "node_statf": still JSON, still an op string.
	damaged := bytes.Replace(data, []byte(`"node_state"`), []byte(`"node_statf"`), 1)
	if bytes.Equal(damaged, data) {
		t.Fatal("the second record does not carry its op as expected")
	}
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	st, p, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if !reflect.DeepEqual(p.Entries, tail[:1]) {
		t.Fatalf("recovered %+v, want only the record before the damaged one", p.Entries)
	}

	var legacy []byte
	for i := range tail {
		line, err := json.Marshal(&tail[i])
		if err != nil {
			t.Fatal(err)
		}
		legacy = append(append(legacy, line...), '\n')
	}
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	st, p, err = OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if !reflect.DeepEqual(p.Entries, tail) {
		t.Fatalf("recovered %+v from a pre-checksum log, want %+v", p.Entries, tail)
	}
}
