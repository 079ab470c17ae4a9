package resource

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

func snapshotTestLedger(t *testing.T, nodes int) *Ledger {
	t.Helper()
	l := NewLedger()
	for i := 0; i < nodes; i++ {
		host := fmt.Sprintf("n%02d", i)
		if err := l.AddNode(Node{Hostname: host, Speed: 1, MemoryMB: 128, OS: "linux", CPUs: 1}); err != nil {
			t.Fatalf("AddNode: %v", err)
		}
	}
	for i := 0; i < nodes; i++ {
		for j := i + 1; j < nodes; j++ {
			lk := Link{A: fmt.Sprintf("n%02d", i), B: fmt.Sprintf("n%02d", j), BandwidthMbps: 100, LatencyMs: 1}
			if err := l.AddLink(lk); err != nil {
				t.Fatalf("AddLink: %v", err)
			}
		}
	}
	return l
}

func TestSnapshotReserveDoesNotTouchLedger(t *testing.T) {
	l := snapshotTestLedger(t, 3)
	snap := l.Snapshot()
	claim, err := snap.Reserve("hypo", []NodeClaim{{Hostname: "n00", MemoryMB: 64, CPULoad: 1}},
		[]LinkClaim{{A: "n00", B: "n01", BandwidthMbps: 10}})
	if err != nil {
		t.Fatalf("snapshot reserve: %v", err)
	}
	// Snapshot sees the reservation.
	ns, err := snap.Node("n00")
	if err != nil || ns.FreeMemoryMB != 64 || ns.CPULoad != 1 {
		t.Fatalf("snapshot node state = %+v, %v; want 64 MB free, load 1", ns, err)
	}
	ls, err := snap.Link("n00", "n01")
	if err != nil || ls.ReservedMbps != 10 {
		t.Fatalf("snapshot link state = %+v, %v; want 10 Mbps reserved", ls, err)
	}
	// Ledger is untouched.
	lns, err := l.Node("n00")
	if err != nil || lns.FreeMemoryMB != 128 || lns.CPULoad != 0 {
		t.Fatalf("ledger node state = %+v, %v; want pristine", lns, err)
	}
	if got := len(l.Claims()); got != 0 {
		t.Fatalf("ledger has %d claims, want 0", got)
	}
	// Releasing in the snapshot restores the snapshot state.
	if err := snap.Release(claim.ID); err != nil {
		t.Fatalf("snapshot release: %v", err)
	}
	ns, _ = snap.Node("n00")
	if ns.FreeMemoryMB != 128 || ns.CPULoad != 0 {
		t.Fatalf("snapshot after release = %+v, want pristine", ns)
	}
}

func TestSnapshotReleasesLedgerClaim(t *testing.T) {
	l := snapshotTestLedger(t, 2)
	claim, err := l.Reserve("app", []NodeClaim{{Hostname: "n00", MemoryMB: 100, CPULoad: 2}}, nil)
	if err != nil {
		t.Fatalf("ledger reserve: %v", err)
	}
	snap := l.Snapshot()
	if err := snap.Release(claim.ID); err != nil {
		t.Fatalf("snapshot release of ledger claim: %v", err)
	}
	ns, _ := snap.Node("n00")
	if ns.FreeMemoryMB != 128 || ns.CPULoad != 0 {
		t.Fatalf("snapshot after release = %+v, want restored", ns)
	}
	// Double release fails in the snapshot.
	if err := snap.Release(claim.ID); err == nil {
		t.Fatal("second snapshot release should fail")
	}
	// The real claim is still outstanding.
	if err := l.Release(claim.ID); err != nil {
		t.Fatalf("ledger release after snapshot release: %v", err)
	}
}

// TestSnapshotForkIsolation: a fork and the snapshot it was forked from are
// independent both ways, whichever is written first — including a parent
// written after it was forked, and a claim released in one and not the other.
func TestSnapshotForkIsolation(t *testing.T) {
	l := snapshotTestLedger(t, 2)
	parent := l.Snapshot()
	base, err := parent.Reserve("base", []NodeClaim{{Hostname: "n00", MemoryMB: 28, CPULoad: 0.5}},
		[]LinkClaim{{A: "n00", B: "n01", BandwidthMbps: 10}})
	if err != nil {
		t.Fatalf("parent reserve: %v", err)
	}
	forkA := parent.Fork()
	forkB := parent.Fork()
	if _, err := forkA.Reserve("a", []NodeClaim{{Hostname: "n00", MemoryMB: 100, CPULoad: 1}}, nil); err != nil {
		t.Fatalf("forkA reserve: %v", err)
	}
	state := func(what string, s *Snapshot, free, load, reserved float64) {
		t.Helper()
		ns, _ := s.Node("n00")
		ls, _ := s.Link("n00", "n01")
		if ns.FreeMemoryMB != free || ns.CPULoad != load || ls.ReservedMbps != reserved {
			t.Fatalf("%s: n00 %g MB free, load %g, link %g Mbps; want %g, %g, %g", what,
				ns.FreeMemoryMB, ns.CPULoad, ls.ReservedMbps, free, load, reserved)
		}
	}
	// forkA sees base + its own claim; the parent and forkB only the base.
	state("forkA", forkA, 0, 1.5, 10)
	state("the parent after forkA was written", parent, 100, 0.5, 10)
	state("forkB", forkB, 100, 0.5, 10)
	// forkB can reserve the same capacity independently.
	if _, err := forkB.Reserve("b", []NodeClaim{{Hostname: "n00", MemoryMB: 100, CPULoad: 1}}, nil); err != nil {
		t.Fatalf("forkB reserve: %v", err)
	}
	// The parent is written after it was forked: its forks do not see it.
	if _, err := parent.Reserve("late", []NodeClaim{{Hostname: "n00", MemoryMB: 50, CPULoad: 2}},
		[]LinkClaim{{A: "n01", B: "n00", BandwidthMbps: 30}}); err != nil {
		t.Fatalf("parent reserve after forking: %v", err)
	}
	if err := parent.Release(base.ID); err != nil {
		t.Fatalf("parent release after forking: %v", err)
	}
	state("the parent written after forking", parent, 78, 2, 30)
	state("forkA after the parent was written", forkA, 0, 1.5, 10)
	state("forkB after the parent was written", forkB, 0, 1.5, 10)
	// The claim the parent released is still held in the forks.
	if err := forkA.Release(base.ID); err != nil {
		t.Fatalf("forkA release of the claim its parent released: %v", err)
	}
	state("forkA after its release", forkA, 28, 1, 0)
	state("the parent after forkA released", parent, 78, 2, 30)
}

func TestSnapshotUnknownEntities(t *testing.T) {
	l := snapshotTestLedger(t, 2)
	snap := l.Snapshot()
	if _, err := snap.Node("missing"); err == nil {
		t.Fatal("unknown node should error")
	}
	if _, err := snap.Link("n00", "missing"); err == nil {
		t.Fatal("unknown link should error")
	}
	if _, err := snap.Reserve("x", []NodeClaim{{Hostname: "missing"}}, nil); err == nil {
		t.Fatal("reserve on unknown node should error")
	}
	if _, err := snap.Reserve("x", nil, []LinkClaim{{A: "n00", B: "missing"}}); err == nil {
		t.Fatal("reserve on unknown link should error")
	}
	if err := snap.Release(9999); err == nil {
		t.Fatal("release of unknown claim should error")
	}
	if _, err := snap.Reserve("x", []NodeClaim{{Hostname: "n00", MemoryMB: 1e9}}, nil); err == nil {
		t.Fatal("over-capacity reserve should error")
	}
}

// refLedger is the reference the ledger and its snapshots are compared with:
// the map-keyed representation the dense tables replaced, kept as simple as
// it can be. Nodes sorts on the way out, which is what the ledger no longer
// has to do.
type refLedger struct {
	nodes  map[string]NodeState
	links  map[string]LinkState
	claims map[uint64]*Claim
	nextID uint64
}

func newRefLedger() *refLedger {
	return &refLedger{nodes: map[string]NodeState{}, links: map[string]LinkState{}, claims: map[uint64]*Claim{}}
}

func (r *refLedger) clone() *refLedger {
	c := newRefLedger()
	c.nextID = r.nextID
	for k, v := range r.nodes {
		c.nodes[k] = v
	}
	for k, v := range r.links {
		c.links[k] = v
	}
	for k, v := range r.claims {
		c.claims[k] = v
	}
	return c
}

func (r *refLedger) sortedNodes() []NodeState {
	out := make([]NodeState, 0, len(r.nodes))
	for _, ns := range r.nodes {
		out = append(out, ns)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node.Hostname < out[j].Node.Hostname })
	return out
}

func (r *refLedger) reserve(nodes []NodeClaim, links []LinkClaim) (uint64, bool) {
	for _, nc := range nodes {
		ns, ok := r.nodes[nc.Hostname]
		if !ok || !(nc.MemoryMB >= 0) || !(nc.CPULoad >= 0) || math.IsInf(nc.MemoryMB, 1) || math.IsInf(nc.CPULoad, 1) || nc.MemoryMB > ns.FreeMemoryMB {
			return 0, false
		}
	}
	for _, lc := range links {
		if _, ok := r.links[LinkKey(lc.A, lc.B)]; !ok || !(lc.BandwidthMbps >= 0) || math.IsInf(lc.BandwidthMbps, 1) {
			return 0, false
		}
	}
	for _, nc := range nodes {
		ns := r.nodes[nc.Hostname]
		ns.FreeMemoryMB -= nc.MemoryMB
		ns.CPULoad += nc.CPULoad
		r.nodes[nc.Hostname] = ns
	}
	for _, lc := range links {
		ls := r.links[LinkKey(lc.A, lc.B)]
		ls.ReservedMbps += lc.BandwidthMbps
		r.links[LinkKey(lc.A, lc.B)] = ls
	}
	r.nextID++
	r.claims[r.nextID] = &Claim{ID: r.nextID, Nodes: nodes, Links: links}
	return r.nextID, true
}

func (r *refLedger) release(id uint64) bool {
	c, ok := r.claims[id]
	if !ok {
		return false
	}
	for _, nc := range c.Nodes {
		ns := r.nodes[nc.Hostname]
		ns.FreeMemoryMB += nc.MemoryMB
		ns.CPULoad -= nc.CPULoad
		if ns.CPULoad < 1e-12 {
			ns.CPULoad = 0
		}
		if ns.FreeMemoryMB > ns.Node.MemoryMB {
			ns.FreeMemoryMB = ns.Node.MemoryMB
		}
		r.nodes[nc.Hostname] = ns
	}
	for _, lc := range c.Links {
		ls := r.links[LinkKey(lc.A, lc.B)]
		ls.ReservedMbps -= lc.BandwidthMbps
		if ls.ReservedMbps < 1e-12 {
			ls.ReservedMbps = 0
		}
		r.links[LinkKey(lc.A, lc.B)] = ls
	}
	delete(r.claims, id)
	return true
}

// diffView is one view under test beside the reference it must equal.
type diffView struct {
	view View
	ref  *refLedger
}

// check asserts that the view reports the reference's nodes, in hostname
// order with identical content, and its links.
func (d diffView) check(t *testing.T, what string) {
	t.Helper()
	want, got := d.ref.sortedNodes(), d.view.Nodes()
	if len(got) != len(want) {
		t.Fatalf("%s: %d nodes, want %d", what, len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("%s: Nodes()[%d] = %+v, want %+v", what, k, got[k], want[k])
		}
		if one, err := d.view.Node(want[k].Node.Hostname); err != nil || one != want[k] {
			t.Fatalf("%s: Node(%s) = %+v, %v; want %+v", what, want[k].Node.Hostname, one, err, want[k])
		}
	}
	for _, ls := range d.ref.links {
		// Either direction names the link.
		if got, err := d.view.Link(ls.Link.B, ls.Link.A); err != nil || got != ls {
			t.Fatalf("%s: link %s = %+v, %v; want %+v", what, ls.Link.Key(), got, err, ls)
		}
	}
}

// churn applies n random reserve and release operations to the view and to
// its reference alike, checking after each one.
func (d diffView) churn(t *testing.T, rng *rand.Rand, n int, what string) {
	t.Helper()
	hosts := make([]string, 0, len(d.ref.nodes))
	for _, ns := range d.ref.sortedNodes() {
		hosts = append(hosts, ns.Node.Hostname)
	}
	for step := 0; step < n; step++ {
		if rng.Intn(3) > 0 || len(d.ref.claims) == 0 {
			var nc []NodeClaim
			for k := 1 + rng.Intn(3); k > 0; k-- {
				nc = append(nc, NodeClaim{Hostname: hosts[rng.Intn(len(hosts))], MemoryMB: float64(rng.Intn(48)), CPULoad: rng.Float64() * 2})
			}
			var lc []LinkClaim
			if a, b := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]; rng.Intn(2) == 0 {
				lc = append(lc, LinkClaim{A: a, B: b, BandwidthMbps: rng.Float64() * 40})
			}
			claim, err := d.view.Reserve("o", nc, lc)
			id, ok := d.ref.reserve(nc, lc)
			if (err == nil) != ok {
				t.Fatalf("%s step %d: reserve %v %v: view says %v, reference %t", what, step, nc, lc, err, ok)
			}
			if ok && claim.ID != id {
				t.Fatalf("%s step %d: claim id %d, want %d", what, step, claim.ID, id)
			}
		} else {
			// Any outstanding claim: this layer's, an earlier layer's or the
			// ledger's own; now and then one already released.
			id := uint64(1 + rng.Intn(int(d.ref.nextID)))
			if err, ok := d.view.Release(id), d.ref.release(id); (err == nil) != ok {
				t.Fatalf("%s step %d: release %d: view says %v, reference %t", what, step, id, err, ok)
			}
		}
		d.check(t, fmt.Sprintf("%s step %d", what, step))
	}
}

// TestSnapshotDifferentialProperty drives random operations through a live
// ledger, through a snapshot of it and through four levels of forks, and
// compares each with a map-keyed reference after every step: Nodes() order
// and content, single-node and link lookups, claim ids and failures. It then
// grows and mutates the ledger under the snapshots (a node whose name sorts
// into the middle, new links, a health change, more claims) and checks that
// every layer taken before still reports exactly what it reported, which is
// the index stability the optimizer's hypothetical evaluation relies on.
func TestSnapshotDifferentialProperty(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		live := diffView{view: NewLedger(), ref: newRefLedger()}
		ledger := live.view.(*Ledger)
		addNode := func(host string) {
			n := Node{Hostname: host, Speed: 1 + float64(rng.Intn(3)), MemoryMB: 128, OS: "linux", CPUs: 1 + rng.Intn(2)}
			if err := ledger.AddNode(n); err != nil {
				t.Fatalf("AddNode(%s): %v", host, err)
			}
			live.ref.nodes[host] = NodeState{Node: n, FreeMemoryMB: n.MemoryMB}
		}
		addLink := func(a, b string) {
			lk := Link{A: a, B: b, BandwidthMbps: 100, LatencyMs: 1}
			if err := ledger.AddLink(lk); err != nil {
				t.Fatalf("AddLink(%s, %s): %v", a, b, err)
			}
			live.ref.links[lk.Key()] = LinkState{Link: lk}
		}
		setHealth := func(host string, h NodeHealth) {
			if err := ledger.SetNodeHealth(host, h); err != nil {
				t.Fatal(err)
			}
			ns := live.ref.nodes[host]
			ns.Health = h
			live.ref.nodes[host] = ns
		}
		// Hostnames arrive out of order, so most registrations sort into the
		// middle of the table.
		order := rng.Perm(3 + rng.Intn(5))
		for _, i := range order {
			addNode(fmt.Sprintf("n%02d", 2*i))
			for _, j := range order {
				if _, ok := live.ref.nodes[fmt.Sprintf("n%02d", 2*j)]; ok && rng.Intn(4) > 0 {
					addLink(fmt.Sprintf("n%02d", 2*i), fmt.Sprintf("n%02d", 2*j))
				}
			}
		}
		live.churn(t, rng, 20, fmt.Sprintf("trial %d ledger", trial))

		// A snapshot and four levels of forks, each churned and then frozen.
		layers := []diffView{{view: ledger.Snapshot(), ref: live.ref.clone()}}
		for depth := 0; depth < 5; depth++ {
			top := layers[len(layers)-1]
			top.churn(t, rng, 15, fmt.Sprintf("trial %d depth %d", trial, depth))
			layers = append(layers, diffView{view: top.view.(*Snapshot).Fork(), ref: top.ref.clone()})
		}

		// The ledger moves on: claims exist, and the tables grow under them.
		setHealth("n02", HealthDraining)
		addNode("n01")
		addNode("n03")
		addLink("n01", "n02")
		addLink("n03", "n00")
		addLink("n02", "n00") // replaces or adds; either way the reservation starts at zero
		live.churn(t, rng, 20, fmt.Sprintf("trial %d grown ledger", trial))
		for depth, layer := range layers {
			layer.check(t, fmt.Sprintf("trial %d depth %d after the ledger grew", trial, depth))
		}
		diffView{view: ledger.Snapshot(), ref: live.ref}.check(t, fmt.Sprintf("trial %d fresh snapshot", trial))
	}
}

// TestSnapshotBaseCached verifies that snapshots taken while the ledger is
// unchanged share one immutable base (O(1) capture), and that any ledger
// mutation produces a fresh base reflecting the new state.
func TestSnapshotBaseCached(t *testing.T) {
	ledger := NewLedger()
	if err := ledger.AddNode(Node{Hostname: "a", Speed: 1, MemoryMB: 64, OS: "linux", CPUs: 1}); err != nil {
		t.Fatal(err)
	}
	s1, s2 := ledger.Snapshot(), ledger.Snapshot()
	if s1.base != s2.base {
		t.Fatal("unchanged ledger did not share the snapshot base")
	}
	claim, err := ledger.Reserve("x", []NodeClaim{{Hostname: "a", MemoryMB: 16, CPULoad: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s3 := ledger.Snapshot()
	if s3.base == s1.base {
		t.Fatal("mutated ledger reused a stale snapshot base")
	}
	ns, err := s3.Node("a")
	if err != nil || ns.FreeMemoryMB != 48 {
		t.Fatalf("fresh base state = %+v, %v", ns, err)
	}
	// The old base must still describe the pre-mutation world.
	old, err := s1.Node("a")
	if err != nil || old.FreeMemoryMB != 64 {
		t.Fatalf("old base state mutated: %+v, %v", old, err)
	}
	if err := ledger.Release(claim.ID); err != nil {
		t.Fatal(err)
	}
	if s4 := ledger.Snapshot(); s4.base == s3.base {
		t.Fatal("release did not invalidate the snapshot base cache")
	}
}

// TestSnapshotNodesAllocations holds Nodes, on a snapshot written and forked
// three times, to the one allocation of the slice it returns, and AppendNodes
// into a buffer with room to none. A sort, a map or a lookup per node would
// show up here.
func TestSnapshotNodesAllocations(t *testing.T) {
	l := snapshotTestLedger(t, 64)
	snap := l.Snapshot()
	for depth := 0; depth < 3; depth++ {
		host := fmt.Sprintf("n%02d", 7*depth)
		if _, err := snap.Reserve("o", []NodeClaim{{Hostname: host, MemoryMB: 8, CPULoad: 1}}, nil); err != nil {
			t.Fatal(err)
		}
		snap = snap.Fork()
	}
	var nodes []NodeState
	if allocs := testing.AllocsPerRun(100, func() { nodes = snap.Nodes() }); allocs > 1 {
		t.Errorf("Nodes allocates %.0f objects per call, want 1", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { nodes = snap.AppendNodes(nodes[:0]) }); allocs > 0 {
		t.Errorf("AppendNodes into a buffer with room allocates %.0f objects per call, want 0", allocs)
	}
	if len(nodes) != 64 || nodes[7].CPULoad != 1 || nodes[14].FreeMemoryMB != 120 {
		t.Fatalf("nodes = %d, n07 %+v, n14 %+v", len(nodes), nodes[7], nodes[14])
	}
}

// TestCaptureCopiesOnlyHeldLinks holds a capture of a 256-node SP-2-shaped
// ledger (a link per node pair, 32 640 links) with 64 links reserved to the
// bytes of what changes under a reservation: one Reserve followed by a
// Snapshot must allocate under 64 KB, where the reserved column alone is
// 261 KB.
func TestCaptureCopiesOnlyHeldLinks(t *testing.T) {
	l := snapshotTestLedger(t, 256)
	host := func(i int) string { return fmt.Sprintf("n%02d", i) }
	for i := 0; i < 64; i++ {
		nc := []NodeClaim{{Hostname: host(2 * i), MemoryMB: 1, CPULoad: 0.5}, {Hostname: host(2*i + 1), MemoryMB: 1, CPULoad: 0.5}}
		lc := []LinkClaim{{A: host(2 * i), B: host(2*i + 1), BandwidthMbps: 10}}
		if _, err := l.Reserve("resident", nc, lc); err != nil {
			t.Fatal(err)
		}
	}
	if links := len(l.Links()); links != 32640 {
		t.Fatalf("%d links, want 32640", links)
	}
	nc := []NodeClaim{{Hostname: host(200), MemoryMB: 1, CPULoad: 0.5}}
	lc := []LinkClaim{{A: host(200), B: host(201), BandwidthMbps: 10}}
	const rounds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		c, err := l.Reserve("trial", nc, lc)
		if err != nil {
			t.Fatal(err)
		}
		if got := l.Snapshot().ReservedAt(mustLink(t, l, host(200), host(201))); got != 10 {
			t.Fatalf("the capture reads %v on the new link, want 10", got)
		}
		if err := l.Release(c.ID); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRound := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("a Reserve and a Snapshot allocate %d bytes", perRound)
	if perRound >= 64<<10 {
		t.Fatalf("a Reserve and a Snapshot allocate %d bytes, want under 64 KB", perRound)
	}
}

// mustLink returns the id of the link between a and b.
func mustLink(t *testing.T, l *Ledger, a, b string) int {
	t.Helper()
	id, ok := l.topo.link(a, b)
	if !ok {
		t.Fatalf("no link %s-%s", a, b)
	}
	return id
}
