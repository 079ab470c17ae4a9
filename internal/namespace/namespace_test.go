package namespace_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/namespace"
	"harmony/internal/rsl"
	"harmony/internal/simclock"
)

// newController builds a controller over an idle four-node SP-2.
func newController(t *testing.T) *core.Controller {
	t.Helper()
	cl, err := cluster.NewSP2(4)
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.New()
	t.Cleanup(clock.Stop)
	c, err := core.New(core.Config{Cluster: cl, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// register admits application app, whose one option O sets variable v and
// places node n, and returns its instance.
func register(t *testing.T, c *core.Controller, app string, v int) int {
	t.Helper()
	bundles, _, err := rsl.DecodeScript(fmt.Sprintf(`
harmonyBundle %s:1 b {
	{O
		{variable v {%d}}
		{node n * {seconds 3} {memory 4}}
	}
}`, app, v))
	if err != nil {
		t.Fatal(err)
	}
	inst, _, err := c.Register(bundles[0])
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// leafNames are the names register's application is published under,
// relative to its instance path.
var leafNames = []string{"b.O.n.memory", "b.O.n.node", "b.O.n.seconds", "b.O.v", "b.option", "predicted"}

// walk collects the paths and values Walk visits under prefix.
func walk(c *core.Controller, prefix string) ([]string, map[string]namespace.Value, error) {
	var paths []string
	values := make(map[string]namespace.Value)
	err := c.Namespace().Walk(prefix, func(p string, v namespace.Value) {
		paths = append(paths, p)
		values[p] = v
	})
	return paths, values, err
}

func TestGetMissing(t *testing.T) {
	c := newController(t)
	register(t, c, "app", 1)
	for _, p := range []string{"no.such.path", "app.2", "app.1.b.P"} {
		if _, _, err := walk(c, p); !errors.Is(err, namespace.ErrNotFound) {
			t.Errorf("Walk(%q) err = %v, want ErrNotFound", p, err)
		}
	}
}

func TestBadPaths(t *testing.T) {
	c := newController(t)
	register(t, c, "app", 1)
	for _, p := range []string{"app..1", ".app", "app.", "app.1."} {
		if paths, _, err := walk(c, p); !errors.Is(err, namespace.ErrNotFound) || len(paths) != 0 {
			t.Errorf("Walk(%q) = %v, %v; want no leaf and ErrNotFound", p, paths, err)
		}
	}
}

func TestDelete(t *testing.T) {
	c := newController(t)
	gone := register(t, c, "app", 1)
	kept := register(t, c, "app", 2)
	if _, err := c.Unregister(gone); err != nil {
		t.Fatalf("Unregister: %v", err)
	}
	if _, _, err := walk(c, namespace.InstancePath("app", gone)); !errors.Is(err, namespace.ErrNotFound) {
		t.Fatalf("Walk after Unregister err = %v, want ErrNotFound", err)
	}
	if paths, _, err := walk(c, "app"); err != nil || len(paths) != len(leafNames) || !strings.HasPrefix(paths[0], namespace.InstancePath("app", kept)+".") {
		t.Fatalf("Walk(app) = %v, %v; want the remaining instance's leaves", paths, err)
	}
	if _, err := c.Unregister(gone); !errors.Is(err, core.ErrUnknownInstance) {
		t.Fatalf("double unregister err = %v, want ErrUnknownInstance", err)
	}
}

func TestWalkOrderAndSnapshot(t *testing.T) {
	c := newController(t)
	for i, app := range []string{"z", "a", "m"} {
		register(t, c, app, i)
	}
	paths, values, err := walk(c, "")
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	var want []string
	for i, app := range []string{"z", "a", "m"} {
		for _, name := range leafNames {
			want = append(want, namespace.InstancePath(app, i+1)+"."+name)
		}
	}
	slices.Sort(want)
	if !slices.Equal(paths, want) {
		t.Fatalf("Walk order = %v, want %v", paths, want)
	}
	if v := values["a.2.b.O.v"]; v.IsString || v.Num != 1 {
		t.Fatalf("a.2.b.O.v = %+v, want 1", v)
	}
	if v := values["m.3.b.option"]; v.Str != "O" {
		t.Fatalf("m.3.b.option = %+v, want O", v)
	}
	sub, _, err := walk(c, "a.2.b.O.n")
	if err != nil || len(sub) != 3 || sub[0] != "a.2.b.O.n.memory" {
		t.Fatalf("Walk(a.2.b.O.n) = %v, %v", sub, err)
	}
}

func TestPathHelpers(t *testing.T) {
	if got := namespace.InstancePath("DBclient", 66); got != "DBclient.66" {
		t.Fatalf("InstancePath = %s", got)
	}
}

func TestValueString(t *testing.T) {
	if (namespace.Value{Num: 2.5}).String() != "2.5" || (namespace.Value{Str: "hi", IsString: true}).String() != "hi" {
		t.Fatal("Value.String broken")
	}
}

// TestConcurrentAccess walks the namespace from several goroutines while the
// controller admits and removes applications: every walk sees one published
// state, so it visits whole applications only.
func TestConcurrentAccess(t *testing.T) {
	c := newController(t)
	register(t, c, "app", 0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				paths, _, err := walk(c, "app")
				if err != nil || len(paths)%len(leafNames) != 0 {
					t.Errorf("Walk(app) = %d leaves, %v", len(paths), err)
					return
				}
			}
		}()
	}
	for i := 1; i <= 20; i++ {
		inst := register(t, c, "app", i)
		if i%2 == 0 {
			if _, err := c.Unregister(inst); err != nil {
				t.Error(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// Property: after any series of admissions and removals, a walk of the
// whole namespace visits exactly the leaves of the applications still
// admitted.
func TestPropertySnapshotComplete(t *testing.T) {
	f := func(ops []uint8) bool {
		c := newController(t)
		live := make(map[int]string) // instance -> its instance path
		var order []int
		for _, op := range ops[:min(len(ops), 12)] {
			if op%3 == 0 && len(order) > 0 {
				j := int(op) % len(order)
				if _, err := c.Unregister(order[j]); err != nil {
					return false
				}
				delete(live, order[j])
				order = slices.Delete(order, j, j+1)
				continue
			}
			app := fmt.Sprintf("k%d", op%4)
			inst := register(t, c, app, int(op))
			live[inst] = namespace.InstancePath(app, inst)
			order = append(order, inst)
		}
		_, values, err := walk(c, "")
		if len(live) == 0 {
			return errors.Is(err, namespace.ErrNotFound)
		}
		if err != nil || len(values) != len(live)*len(leafNames) {
			return false
		}
		for _, owner := range live {
			for _, name := range leafNames {
				if _, ok := values[owner+"."+name]; !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
