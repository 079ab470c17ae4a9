package replog

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// syncRecorder stands in for (*os.File).Sync and records what was synced:
// a file by its base name, the store's directory as "dir/".
type syncRecorder struct {
	dir    string
	synced []string
	// fail, when set, fails the sync of that name after recording it.
	fail string
}

func (r *syncRecorder) sync(f *os.File) error {
	name := filepath.Base(f.Name())
	if f.Name() == r.dir {
		name = "dir/"
	}
	r.synced = append(r.synced, name)
	if name == r.fail {
		return errors.New("injected sync failure")
	}
	return f.Sync()
}

func (r *syncRecorder) take() []string {
	out := r.synced
	r.synced = nil
	return out
}

// TestStoreSyncsEveryDurableWrite: each writer syncs what it wrote and then
// the directory its rename changed; an append syncs the log.
func TestStoreSyncsEveryDurableWrite(t *testing.T) {
	rec := &syncRecorder{dir: t.TempDir()}
	st, _, err := openStore(rec.dir, rec.sync)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tail := []Entry{entry(1, 1, OpReevaluate), entry(2, 1, OpReevaluate)}
	for _, tc := range []struct {
		write string
		do    func() error
		want  []string
	}{
		{"open", func() error { return nil }, []string{"dir/"}},
		{"SaveHardState", func() error { return st.SaveHardState(HardState{Term: 2, VotedFor: "r1"}) },
			[]string{"state.json.tmp", "dir/"}},
		{"AppendEntries", func() error { return st.AppendEntries(tail) }, []string{"log.jsonl"}},
		{"RewriteLog", func() error { return st.RewriteLog(tail[:1]) }, []string{"log.jsonl.tmp", "dir/"}},
		{"SaveSnapshot", func() error { return st.SaveSnapshot(Snapshot{Index: 1, Term: 1}, nil) },
			[]string{"snapshot.json.tmp", "dir/", "log.jsonl.tmp", "dir/"}},
	} {
		if err := tc.do(); err != nil {
			t.Fatalf("%s: %v", tc.write, err)
		}
		if got := rec.take(); !slices.Equal(got, tc.want) {
			t.Errorf("%s synced %v, want %v", tc.write, got, tc.want)
		}
	}
}

// TestStoreIgnoresLeftoverTemp: a crash before the rename leaves NAME.tmp
// beside the file it was to replace; recovery reads the old file, and the
// next write replaces the leftover.
func TestStoreIgnoresLeftoverTemp(t *testing.T) {
	dir := t.TempDir()
	st, _, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := Snapshot{Index: 1, Term: 1, Data: []byte(`{"x":1}`)}
	tail := []Entry{entry(2, 1, OpReevaluate)}
	if err := st.SaveHardState(HardState{Term: 1, VotedFor: "r1"}); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSnapshot(snap, tail); err != nil {
		t.Fatal(err)
	}
	st.Close()
	for _, name := range []string{"state.json", "snapshot.json", "log.jsonl"} {
		if err := os.WriteFile(filepath.Join(dir, name+".tmp"), []byte(`{"term":9,"index":9`), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st, p, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	want := &Persisted{State: HardState{Term: 1, VotedFor: "r1"}, Snapshot: snap, Entries: tail}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("recovered %+v, want %+v", p, want)
	}
	if err := st.SaveHardState(HardState{Term: 2}); err != nil {
		t.Fatal(err)
	}
	again, p, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	again.Close()
	if p.State.Term != 2 {
		t.Fatalf("after a write over the leftover: %+v", p.State)
	}
}

// TestFailedRewriteStopsAppends: once a rewrite fails past its rename, the
// handle the store held names an unlinked file. No append may go there: it
// fails until a rewrite succeeds, and then lands in the log.
func TestFailedRewriteStopsAppends(t *testing.T) {
	rec := &syncRecorder{dir: t.TempDir()}
	st, _, err := openStore(rec.dir, rec.sync)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.AppendEntries([]Entry{entry(1, 1, OpReevaluate)}); err != nil {
		t.Fatal(err)
	}
	rec.fail = "dir/"
	if err := st.RewriteLog([]Entry{entry(1, 1, OpReevaluate), entry(2, 1, OpReevaluate)}); err == nil {
		t.Fatal("rewrite succeeded though its directory sync failed")
	}
	if err := st.AppendEntries([]Entry{entry(3, 1, OpReevaluate)}); err == nil || !strings.Contains(err.Error(), "failed rewrite") {
		t.Fatalf("append after a failed rewrite: %v", err)
	}
	rec.fail = ""
	if err := st.RewriteLog([]Entry{entry(1, 1, OpReevaluate)}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendEntries([]Entry{entry(2, 1, OpReevaluate)}); err != nil {
		t.Fatal(err)
	}
	got, err := readLogFile(filepath.Join(rec.dir, "log.jsonl"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Index != 2 {
		t.Fatalf("log after recovery = %+v, want entries 1 and 2", got)
	}
}
