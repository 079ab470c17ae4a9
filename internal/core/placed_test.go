package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"harmony/internal/cluster"
	"harmony/internal/predict"
	"harmony/internal/replog"
	"harmony/internal/rsl"
	"harmony/internal/simclock"
)

// TestStaleResolutionNeverRead drives two controllers through one script
// that makes every resident's resolved placement go out of date: a node
// whose hostname sorts before every other is added between two passes (each
// index moves up by one, the link table grows), a resident's host goes down
// and comes back (the resident loses its assignment and gets a new one), and
// the state is round-tripped through EncodeState and Restore (which carries
// no resolution). One controller keeps what it resolved; the other has every
// resolution wiped before each step, so it never reads a kept one. After
// every step their states must be byte-identical and every kept resolution
// must hold for the ledger as it stands; after a step that ends in an
// adoption (which is when the controller refreshes its predictions) every
// resident's prediction must be what the by-hostname front door, which
// resolves on each call, computes.
func TestStaleResolutionNeverRead(t *testing.T) {
	newCtrl := func() (*Controller, *cluster.Cluster) {
		cl, err := cluster.NewSP2(8)
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := New(Config{Cluster: cl, Clock: simclock.New()})
		if err != nil {
			t.Fatal(err)
		}
		return ctrl, cl
	}
	kept, keptCluster := newCtrl()
	wiped, wipedCluster := newCtrl()

	index := uint64(0)
	now := time.Duration(0)
	entry := func(e replog.Entry) func(*Controller) error {
		index++
		now += 90 * time.Second // past every granularity gate
		e.Index, e.Term, e.Time = index, 1, now
		return func(c *Controller) error {
			e := e
			_, err := c.Apply(&e)
			return err
		}
	}
	register := func(i int, host string) func(*Controller) error {
		return entry(replog.Entry{Op: replog.OpRegister, RSL: replayDBRSL(i, host)})
	}
	nodeState := func(host, state string) func(*Controller) error {
		return entry(replog.Entry{Op: replog.OpNodeState, Hostname: host, State: state})
	}
	pass := func() func(*Controller) error { return entry(replog.Entry{Op: replog.OpReevaluate}) }
	addNode := func(c *Controller) error {
		cl := keptCluster
		if c == wiped {
			cl = wipedCluster
		}
		return cl.AddNode(&rsl.NodeDecl{Hostname: "a-first", Speed: 2, MemoryMB: 128, OS: "linux", CPUs: 1})
	}
	roundTrip := func(c *Controller) error {
		data, err := c.EncodeState()
		if err != nil {
			return err
		}
		st, err := DecodeState(data)
		if err != nil {
			return err
		}
		return c.Restore(st)
	}

	steps := []struct {
		name   string
		do     func(*Controller) error
		adopts bool
	}{
		{"register 1", register(1, "sp2-02"), true},
		{"register 2", register(2, "sp2-03"), true},
		{"register 3", register(3, "sp2-03"), true},
		{"register 4", register(4, "sp2-05"), true},
		{"pass", pass(), false},
		{"add a node that sorts first", addNode, false},
		{"pass over moved indices", pass(), false},
		{"register 5 on the new node", register(5, "a-first"), true},
		{"resident's host down", nodeState("sp2-03", "down"), false},
		{"pass with two residents degraded", pass(), false},
		{"resident's host up", nodeState("sp2-03", "up"), true},
		{"pass", pass(), false},
		{"encode, decode, restore", roundTrip, false},
		{"pass after restore", pass(), false},
		{"unregister 1", entry(replog.Entry{Op: replog.OpUnregister, Instance: 1}), false},
		{"register 6 after restore", register(6, "sp2-07"), true},
		{"server drains", nodeState("sp2-01", "drain"), false},
		{"server back", nodeState("sp2-01", "up"), false},
		{"pass", pass(), false},
	}
	for _, step := range steps {
		for _, a := range wiped.apps {
			a.placed = nil
		}
		errKept, errWiped := step.do(kept), step.do(wiped)
		if fmt.Sprint(errKept) != fmt.Sprint(errWiped) {
			t.Fatalf("%s: errors differ: %v / %v", step.name, errKept, errWiped)
		}
		a, err := kept.EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		b, err := wiped.EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: the controller that kept its resolutions decided differently", step.name)
		}

		committed := kept.ledger.Snapshot()
		door := predict.NewWithView(kept.ledger)
		for _, id := range kept.order {
			app := kept.apps[id]
			if app.assignment == nil {
				continue
			}
			if app.placed != nil && app.placed.pl.Assignment() == app.assignment && !app.placed.pl.Resolved(committed) {
				// Legal only until the next read; placedFor must replace it.
				if app.placedFor(committed); !app.placed.pl.Resolved(committed) {
					t.Errorf("%s: %s: placedFor returned a stale resolution", step.name, app.owner())
				}
			}
			if !step.adopts {
				continue
			}
			want, err := door.ForOption(app.bundle.Option(app.choice.Option), app.assignment, true)
			if err != nil {
				t.Errorf("%s: %s: %v", step.name, app.owner(), err)
			} else if math.Float64bits(want.Seconds) != math.Float64bits(app.predicted) {
				t.Errorf("%s: %s: predicted %v, by hostname %v", step.name, app.owner(), app.predicted, want.Seconds)
			}
		}
	}
	if n := len(kept.Apps()); n != 5 {
		t.Fatalf("%d residents at the end, want 5", n)
	}
}
