package replog

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzRecover damages the files of a store — flipped, dropped and inserted
// bytes anywhere in the log, the snapshot and the hard state — and opens it.
// OpenStore may refuse; when it does not, what it returns must be a tail a
// replica can run on: contiguous from the snapshot, never a gap, never a
// panic. (The log is JSON lines without a checksum, so a flipped byte inside
// a string survives as a different entry; contiguity is what recovery
// promises.) Rewriting that tail and opening again must give it back.
func FuzzRecover(f *testing.F) {
	var log []byte
	for i := uint64(4); i <= 8; i++ {
		line, err := json.Marshal(&Entry{Index: i, Term: 2, Time: 1000, Op: OpRegister, RSL: "harmonyBundle b {}", Token: "tok"})
		if err != nil {
			f.Fatal(err)
		}
		log = append(append(log, line...), '\n')
	}
	snap, err := json.Marshal(&Snapshot{Index: 3, Term: 1, Data: []byte(`{"controller":null}`)})
	if err != nil {
		f.Fatal(err)
	}
	state := []byte(`{"term":2,"votedFor":"a"}`)
	f.Add(log, snap, state)
	f.Add(log[:len(log)-7], snap, state)                                            // torn tail
	f.Add(log[len(log)/5*2:], snap, state)                                          // the head is gone: a gap after the snapshot
	f.Add(log, []byte(nil), state)                                                  // no snapshot: the log starts past index 1
	f.Add(append(append([]byte(nil), log[:50]...), log[60:]...), snap, []byte("{")) // bytes dropped mid-entry
	f.Fuzz(func(t *testing.T, log, snap, state []byte) {
		dir := t.TempDir()
		for name, data := range map[string][]byte{"log.jsonl": log, "snapshot.json": snap, "state.json": state} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st, p, err := OpenStore(dir)
		if err != nil {
			return
		}
		for i, e := range p.Entries {
			if want := p.Snapshot.Index + 1 + uint64(i); e.Index != want {
				t.Fatalf("recovered entry %d has index %d, want %d", i, e.Index, want)
			}
		}
		if err := NewLog().Restore(p.Snapshot, p.Entries); err != nil {
			t.Fatalf("recovered state does not restore: %v", err)
		}
		if err := st.RewriteLog(p.Entries); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st, again, err := OpenStore(dir)
		if err != nil {
			t.Fatalf("reopen after rewrite: %v", err)
		}
		defer st.Close()
		if len(again.Entries) != len(p.Entries) {
			t.Fatalf("rewrote %d entries, recovered %d", len(p.Entries), len(again.Entries))
		}
	})
}
