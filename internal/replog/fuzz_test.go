package replog

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzRecover damages the files of a store — flipped, dropped and inserted
// bytes anywhere in the log, the snapshot and the hard state — and opens it.
// OpenStore may refuse; when it does not, what it returns must be a tail a
// replica can run on: contiguous from the snapshot, never a gap, never a
// panic. Rewriting that tail and opening again must give it back.
//
// Then it flips bits (mask) in one byte (at) of an undamaged log of
// checksummed records. Every such change must be caught: the recovered tail
// is exactly the records before the one the byte belongs to, never an entry
// that was not written.
func FuzzRecover(f *testing.F) {
	written := fuzzEntries()
	log, err := appendRecords(nil, written)
	if err != nil {
		f.Fatal(err)
	}
	var legacy []byte // the same entries as written before records had checksums
	for i := range written {
		line, err := json.Marshal(&written[i])
		if err != nil {
			f.Fatal(err)
		}
		legacy = append(append(legacy, line...), '\n')
	}
	seedSnap, err := json.Marshal(&Snapshot{Index: 3, Term: 1, Data: []byte(`{"controller":null}`)})
	if err != nil {
		f.Fatal(err)
	}
	snap, state := seedSnap, []byte(`{"term":2,"votedFor":"a"}`)
	f.Add(log, snap, state, uint16(0), byte(0))
	f.Add(legacy, snap, state, uint16(0), byte(0))
	f.Add(log[:len(log)-7], snap, state, uint16(0), byte(0))                                            // torn tail
	f.Add(log[len(log)/5*2:], snap, state, uint16(0), byte(0))                                          // the head is gone: a gap after the snapshot
	f.Add(log, []byte(nil), state, uint16(0), byte(0))                                                  // no snapshot: the log starts past index 1
	f.Add(append(append([]byte(nil), log[:50]...), log[60:]...), snap, []byte("{"), uint16(0), byte(0)) // bytes dropped mid-entry
	f.Add(log, snap, state, uint16(len(log)/2), byte(0x01))                                             // one bit flipped mid-log
	f.Add(log, snap, state, uint16(len(log)-1), byte(0x20))                                             // the last newline damaged
	f.Fuzz(func(t *testing.T, log, snap, state []byte, at uint16, mask byte) {
		p := recoverFrom(t, log, snap, state)
		if p == nil || mask == 0 {
			return
		}
		pristine, err := appendRecords(nil, written)
		if err != nil {
			t.Fatal(err)
		}
		pos := int(at) % len(pristine)
		pristine[pos] ^= mask
		flipped := recoverFrom(t, pristine, seedSnap, nil)
		if flipped == nil {
			t.Fatal("a store with one damaged record does not open")
		}
		intact := bytes.Count(pristine[:pos], []byte{'\n'})
		if want := append([]Entry(nil), written[:intact]...); !reflect.DeepEqual(flipped.Entries, want) {
			t.Fatalf("byte %d ^ %#x: recovered %+v, want the %d records before it", pos, mask, flipped.Entries, intact)
		}
	})
}

// fuzzEntries are the entries FuzzRecover's logs hold: indexes 4 to 8, after
// the seed snapshot at 3.
func fuzzEntries() []Entry {
	var out []Entry
	for i := uint64(4); i <= 8; i++ {
		out = append(out, Entry{Index: i, Term: 2, Time: 1000, Op: OpRegister, RSL: "harmonyBundle b {}", Token: "tok"})
	}
	return out
}

// recoverFrom writes the three files, opens the store and checks what it
// recovered; nil means OpenStore refused.
func recoverFrom(t *testing.T, log, snap, state []byte) *Persisted {
	dir := t.TempDir()
	for name, data := range map[string][]byte{"log.jsonl": log, "snapshot.json": snap, "state.json": state} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, p, err := OpenStore(dir)
	if err != nil {
		return nil
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
	return p
}
