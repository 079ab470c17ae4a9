package namespace

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestSetGetNum(t *testing.T) {
	tr := New()
	const path = "DBclient.66.where.DS.client.memory"
	if err := tr.SetNum(path, 24); err != nil {
		t.Fatalf("SetNum: %v", err)
	}
	v, err := tr.GetNum(path)
	if err != nil || v != 24 {
		t.Fatalf("GetNum = %g, %v", v, err)
	}
}

func TestSetGetStr(t *testing.T) {
	tr := New()
	if err := tr.SetStr("app.1.os", "linux"); err != nil {
		t.Fatalf("SetStr: %v", err)
	}
	v, err := tr.Get("app.1.os")
	if err != nil || !v.IsString || v.Str != "linux" {
		t.Fatalf("Get = %+v, %v", v, err)
	}
	if _, err := tr.GetNum("app.1.os"); err == nil {
		t.Fatal("GetNum on string leaf succeeded")
	}
}

func TestOverwriteLeaf(t *testing.T) {
	tr := New()
	if err := tr.SetNum("a.b", 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetNum("a.b", 2); err != nil {
		t.Fatal(err)
	}
	v, _ := tr.GetNum("a.b")
	if v != 2 {
		t.Fatalf("overwrite = %g, want 2", v)
	}
}

func TestGetMissing(t *testing.T) {
	tr := New()
	_, err := tr.Get("no.such.path")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestGetDirectory(t *testing.T) {
	tr := New()
	if err := tr.SetNum("a.b.c", 1); err != nil {
		t.Fatal(err)
	}
	_, err := tr.Get("a.b")
	if !errors.Is(err, ErrNotLeaf) {
		t.Fatalf("err = %v, want ErrNotLeaf", err)
	}
}

func TestSetThroughLeafFails(t *testing.T) {
	tr := New()
	if err := tr.SetNum("a.b", 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetNum("a.b.c", 2); err == nil {
		t.Fatal("setting below a leaf succeeded")
	}
}

func TestSetOnDirectoryFails(t *testing.T) {
	tr := New()
	if err := tr.SetNum("a.b.c", 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetNum("a.b", 2); err == nil {
		t.Fatal("setting a directory succeeded")
	}
}

func TestBadPaths(t *testing.T) {
	tr := New()
	for _, p := range []string{"a..b", ".a", "a."} {
		if err := tr.SetNum(p, 1); !errors.Is(err, ErrBadPath) {
			t.Errorf("SetNum(%q) err = %v, want ErrBadPath", p, err)
		}
	}
	if err := tr.SetNum("", 1); !errors.Is(err, ErrBadPath) {
		t.Errorf("SetNum root err = %v, want ErrBadPath", err)
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	if err := tr.SetNum("app.1.x", 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetNum("app.1.y", 2); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete("app.1"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := tr.Walk("app.1", func(string, Value) {}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Walk after Delete err = %v, want ErrNotFound", err)
	}
	if err := tr.Delete("app.1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete err = %v, want ErrNotFound", err)
	}
}

func TestWalkOrderAndSnapshot(t *testing.T) {
	tr := New()
	paths := []string{"z.1", "a.2", "a.1", "m.x.y"}
	for i, p := range paths {
		if err := tr.SetNum(p, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var visited []string
	if err := tr.Walk("", func(p string, v Value) { visited = append(visited, p) }); err != nil {
		t.Fatalf("Walk: %v", err)
	}
	want := "a.1,a.2,m.x.y,z.1"
	if got := strings.Join(visited, ","); got != want {
		t.Fatalf("Walk order = %s, want %s", got, want)
	}
	snap := map[string]Value{}
	if err := tr.Walk("a", func(p string, v Value) { snap[p] = v }); err != nil {
		t.Fatalf("Walk(a): %v", err)
	}
	if len(snap) != 2 || snap["a.1"].Num != 2 {
		t.Fatalf("Walk(a) = %v", snap)
	}
}

func TestPathHelpers(t *testing.T) {
	if got := InstancePath("DBclient", 66); got != "DBclient.66" {
		t.Fatalf("InstancePath = %s", got)
	}
}

func TestValueString(t *testing.T) {
	if NumValue(2.5).String() != "2.5" || StrValue("hi").String() != "hi" {
		t.Fatal("Value.String broken")
	}
}

func TestConcurrentAccess(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p := fmt.Sprintf("g%d.k%d", g, i%10)
				if err := tr.SetNum(p, float64(i)); err != nil {
					t.Errorf("SetNum: %v", err)
					return
				}
				if _, err := tr.GetNum(p); err != nil {
					t.Errorf("GetNum: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// Property: Set then Get returns the same value for arbitrary valid paths.
func TestPropertySetGetRoundTrip(t *testing.T) {
	f := func(segs []uint8, val float64) bool {
		if len(segs) == 0 {
			return true
		}
		if len(segs) > 6 {
			segs = segs[:6]
		}
		parts := make([]string, len(segs))
		for i, s := range segs {
			parts[i] = fmt.Sprintf("s%d", s%5)
		}
		path := strings.Join(parts, ".")
		tr := New()
		if err := tr.SetNum(path, val); err != nil {
			return false
		}
		got, err := tr.GetNum(path)
		return err == nil && got == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a Walk of the whole tree after a series of distinct Sets visits
// exactly those entries (leaf-only paths).
func TestPropertySnapshotComplete(t *testing.T) {
	f := func(keys []uint8) bool {
		tr := New()
		want := make(map[string]float64)
		for i, k := range keys {
			// two-level distinct paths avoid leaf/dir conflicts
			p := fmt.Sprintf("k%d.v%d", k%8, k%8)
			if err := tr.SetNum(p, float64(i)); err != nil {
				return false
			}
			want[p] = float64(i)
		}
		snap := map[string]Value{}
		if err := tr.Walk("", func(p string, v Value) { snap[p] = v }); err != nil {
			return false
		}
		if len(snap) != len(want) {
			return false
		}
		for p, v := range want {
			if snap[p].Num != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
