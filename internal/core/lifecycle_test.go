package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"harmony/internal/namespace"
	"harmony/internal/resource"
	"harmony/internal/rsl"
)

// pinnedBundle builds a one-option bundle locked to a single host.
func pinnedBundle(t *testing.T, app string, instance int, host string) *rsl.BundleSpec {
	t.Helper()
	src := fmt.Sprintf(`
harmonyBundle %s:%d b {
	{only {node n %s {seconds 5} {memory 20}}}
}`, app, instance, host)
	bundles, _, err := rsl.DecodeScript(src)
	if err != nil {
		t.Fatalf("decode pinned bundle: %v", err)
	}
	return bundles[0]
}

// floatingBundle builds a one-option bundle that can land on any linux host.
func floatingBundle(t *testing.T, app string, instance int) *rsl.BundleSpec {
	t.Helper()
	src := fmt.Sprintf(`
harmonyBundle %s:%d b {
	{only {node n * {os linux} {seconds 5} {memory 20}}}
}`, app, instance)
	bundles, _, err := rsl.DecodeScript(src)
	if err != nil {
		t.Fatalf("decode floating bundle: %v", err)
	}
	return bundles[0]
}

func snapshotFor(t *testing.T, ctrl *Controller, inst int) Snapshot {
	t.Helper()
	for _, s := range ctrl.Apps() {
		if s.Instance == inst {
			return s
		}
	}
	t.Fatalf("instance %d not registered", inst)
	return Snapshot{}
}

func TestMarkNodeDownReplacesFloatingApp(t *testing.T) {
	ctrl, _ := newController(t, 4, Config{})
	inst, _, err := ctrl.Register(floatingBundle(t, "Float", 1))
	if err != nil {
		t.Fatal(err)
	}
	home := snapshotFor(t, ctrl, inst).Hosts[0]

	events, err := ctrl.MarkNodeDown(home)
	if err != nil {
		t.Fatalf("MarkNodeDown: %v", err)
	}
	var moved bool
	for _, ev := range events {
		if ev.Instance == inst && !ev.Evicted {
			moved = true
			if ev.Assignment == nil || ev.Assignment.Hosts()[0] == home {
				t.Fatalf("re-placement still on dead node: %+v", ev)
			}
		}
	}
	if !moved {
		t.Fatalf("no re-placement event for instance %d: %+v", inst, events)
	}
	s := snapshotFor(t, ctrl, inst)
	if s.Degraded || len(s.Hosts) == 0 || s.Hosts[0] == home {
		t.Fatalf("app not moved off dead node: %+v", s)
	}
	if err := ctrl.Ledger().CheckConservation(); err != nil {
		t.Fatalf("conservation after failover: %v", err)
	}
}

func TestMarkNodeDownDegradesUnplaceableApp(t *testing.T) {
	ctrl, _ := newController(t, 2, Config{})
	pinned, _, err := ctrl.Register(pinnedBundle(t, "Pin", 1, "sp2-01"))
	if err != nil {
		t.Fatal(err)
	}
	bystander, _, err := ctrl.Register(pinnedBundle(t, "Other", 1, "sp2-02"))
	if err != nil {
		t.Fatal(err)
	}

	events, err := ctrl.MarkNodeDown("sp2-01")
	if err != nil {
		t.Fatalf("MarkNodeDown: %v", err)
	}
	var evicted bool
	for _, ev := range events {
		if ev.Instance == bystander {
			t.Fatalf("unaffected app reconfigured: %+v", ev)
		}
		if ev.Instance == pinned && ev.Evicted {
			evicted = true
		}
	}
	if !evicted {
		t.Fatalf("no Evicted event for pinned app: %+v", events)
	}
	s := snapshotFor(t, ctrl, pinned)
	if !s.Degraded || len(s.Hosts) != 0 || s.PredictedSeconds != 0 {
		t.Fatalf("pinned app not degraded: %+v", s)
	}
	// The bystander keeps its resources, and the books still balance.
	if b := snapshotFor(t, ctrl, bystander); b.Degraded || len(b.Hosts) != 1 {
		t.Fatalf("bystander disturbed: %+v", b)
	}
	if err := ctrl.Ledger().CheckConservation(); err != nil {
		t.Fatalf("conservation after eviction: %v", err)
	}
	// The degraded app's namespace entry is gone (it holds nothing).
	if err := ctrl.Namespace().Walk(fmt.Sprintf("Pin.%d", pinned), func(string, namespace.Value) {}); !errors.Is(err, namespace.ErrNotFound) {
		t.Fatalf("degraded app still published in namespace: %v", err)
	}
}

func TestMarkNodeUpReadmitsDegradedApp(t *testing.T) {
	for _, exhaustive := range []bool{false, true} {
		t.Run(fmt.Sprintf("exhaustive=%v", exhaustive), func(t *testing.T) {
			ctrl, _ := newController(t, 2, Config{Exhaustive: exhaustive})
			pinned, _, err := ctrl.Register(pinnedBundle(t, "Pin", 1, "sp2-01"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ctrl.MarkNodeDown("sp2-01"); err != nil {
				t.Fatal(err)
			}
			if s := snapshotFor(t, ctrl, pinned); !s.Degraded {
				t.Fatalf("app not degraded after kill: %+v", s)
			}

			events, err := ctrl.MarkNodeUp("sp2-01")
			if err != nil {
				t.Fatalf("MarkNodeUp: %v", err)
			}
			var readmitted bool
			for _, ev := range events {
				if ev.Instance == pinned && !ev.Evicted && ev.Assignment != nil {
					readmitted = true
				}
			}
			if !readmitted {
				t.Fatalf("no re-admission event: %+v", events)
			}
			s := snapshotFor(t, ctrl, pinned)
			if s.Degraded || len(s.Hosts) != 1 || s.Hosts[0] != "sp2-01" {
				t.Fatalf("app not re-admitted: %+v", s)
			}
			if err := ctrl.Ledger().CheckConservation(); err != nil {
				t.Fatalf("conservation after re-admission: %v", err)
			}
		})
	}
}

func TestDrainNodeMovesAppsOff(t *testing.T) {
	ctrl, _ := newController(t, 4, Config{})
	inst, _, err := ctrl.Register(floatingBundle(t, "Float", 1))
	if err != nil {
		t.Fatal(err)
	}
	home := snapshotFor(t, ctrl, inst).Hosts[0]

	events, err := ctrl.DrainNode(home)
	if err != nil {
		t.Fatalf("DrainNode: %v", err)
	}
	if len(events) != 1 || events[0].Instance != inst {
		t.Fatalf("events = %+v, want one move for instance %d", events, inst)
	}
	s := snapshotFor(t, ctrl, inst)
	if s.Hosts[0] == home {
		t.Fatalf("app still on draining node %s", home)
	}
	// The draining node accepts no new placements.
	if _, _, err := ctrl.Register(pinnedBundle(t, "Pin", 1, home)); err == nil {
		t.Fatalf("placement on draining node %s accepted", home)
	}
	if h, err := ctrl.NodeHealth(home); err != nil || h != resource.HealthDraining {
		t.Fatalf("NodeHealth(%s) = %v, %v", home, h, err)
	}
}

func TestDrainNodeKeepsStuckAppWithWarning(t *testing.T) {
	ctrl, _ := newController(t, 2, Config{})
	inst, _, err := ctrl.Register(pinnedBundle(t, "Pin", 1, "sp2-01"))
	if err != nil {
		t.Fatal(err)
	}
	events, err := ctrl.DrainNode("sp2-01")
	if err != nil {
		t.Fatalf("DrainNode: %v", err)
	}
	if len(events) != 0 {
		t.Fatalf("unexpected events: %+v", events)
	}
	// Draining does not evict: the pinned app keeps running where it is.
	s := snapshotFor(t, ctrl, inst)
	if s.Degraded || len(s.Hosts) != 1 || s.Hosts[0] != "sp2-01" {
		t.Fatalf("pinned app disturbed by drain: %+v", s)
	}
	var warned bool
	for _, w := range ctrl.Warnings() {
		if strings.Contains(w, "draining sp2-01") {
			warned = true
		}
	}
	if !warned {
		t.Fatalf("no warning about stuck app: %v", ctrl.Warnings())
	}
}

func TestMarkNodeDownExhaustiveSurvivorsStillOptimized(t *testing.T) {
	ctrl, _ := newController(t, 3, Config{Exhaustive: true})
	pinned, _, err := ctrl.Register(pinnedBundle(t, "Pin", 1, "sp2-01"))
	if err != nil {
		t.Fatal(err)
	}
	floating, _, err := ctrl.Register(floatingBundle(t, "Float", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.MarkNodeDown("sp2-01"); err != nil {
		t.Fatal(err)
	}
	// The unplaceable evictee must not veto the survivors' search: the
	// floating app still holds a live claim on an up node.
	fs := snapshotFor(t, ctrl, floating)
	if fs.Degraded || len(fs.Hosts) != 1 || fs.Hosts[0] == "sp2-01" {
		t.Fatalf("survivor lost placement: %+v", fs)
	}
	if s := snapshotFor(t, ctrl, pinned); !s.Degraded {
		t.Fatalf("pinned app should be degraded: %+v", s)
	}
	if err := ctrl.Ledger().CheckConservation(); err != nil {
		t.Fatalf("conservation: %v", err)
	}
}

func TestMarkNodeDownUnknownHost(t *testing.T) {
	ctrl, _ := newController(t, 2, Config{})
	if _, err := ctrl.MarkNodeDown("no-such-host"); err == nil {
		t.Fatal("unknown host accepted")
	}
	if _, err := ctrl.DrainNode("no-such-host"); err == nil {
		t.Fatal("unknown host accepted")
	}
	if _, err := ctrl.MarkNodeUp("no-such-host"); err == nil {
		t.Fatal("unknown host accepted")
	}
}

// TestFaultsDocInSync keeps docs/FAULTS.md honest: the lifecycle entry
// points, lease/resume knobs and chaos-replay affordances it describes
// must be the ones that exist.
func TestFaultsDocInSync(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "FAULTS.md"))
	if err != nil {
		t.Fatalf("docs/FAULTS.md missing: %v", err)
	}
	for _, sym := range []string{
		"MarkNodeDown", "DrainNode", "MarkNodeUp", "Evicted",
		"CheckConservation", "LeaseTTL", "LeaseGrace", "heartbeat",
		"resume", "DialConfig", "Reconnect", "ErrReconnecting",
		"harmonyctl node", "CHAOS_SEED", "make chaos",
	} {
		if !strings.Contains(string(doc), sym) {
			t.Errorf("docs/FAULTS.md does not mention %s", sym)
		}
	}
}
