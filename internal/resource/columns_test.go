package resource

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// columnsTestLedger is a cluster with uneven memory, a link between most but
// not all node pairs, and a few residents holding memory, load and bandwidth.
// The seed decides all of it, so two calls with one seed build ledgers that
// hold the same bits: a test replays a path of operations on a fresh one to
// have the ledger's own answer for a state.
func columnsTestLedger(t *testing.T, seed int64, nodes int) (*Ledger, []*Claim) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	l := NewLedger()
	host := func(i int) string { return fmt.Sprintf("n%02d", i) }
	for i := 0; i < nodes; i++ {
		n := Node{Hostname: host(i), Speed: 1, MemoryMB: float64(64 + 32*rng.Intn(5)), OS: "linux", CPUs: 1}
		if err := l.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nodes; i++ {
		for j := i + 1; j < nodes; j++ {
			if i == 0 && j == nodes-1 {
				continue // the one pair that is not linked
			}
			if err := l.AddLink(Link{A: host(i), B: host(j), BandwidthMbps: 100, LatencyMs: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var residents []*Claim
	for r := 0; r < 4; r++ {
		a, b := rng.Intn(nodes-1), 1+rng.Intn(nodes-2)
		if a == b {
			b = a + 1
		}
		c, err := l.Reserve(fmt.Sprintf("resident%d", r),
			[]NodeClaim{{Hostname: host(a), MemoryMB: 7.3, CPULoad: 0.3}, {Hostname: host(b), MemoryMB: 0.1, CPULoad: 0.7}},
			[]LinkClaim{{A: host(a), B: host(b), BandwidthMbps: 12.5}})
		if err != nil {
			t.Fatal(err)
		}
		residents = append(residents, c)
	}
	return l, residents
}

// requireColumnsEqual fails unless the columns hold, bit for bit, what the
// capture reports at every node index and link id. The capture must be
// unwritten: it then reads the tables its ledger held, and nothing of
// Columns, so it is a reference the columns cannot agree with by sharing
// code.
func requireColumnsEqual(t *testing.T, what string, cols *Columns, capture *Snapshot) {
	t.Helper()
	if capture.own != nil {
		t.Fatalf("%s: the reference is a written snapshot, which reads Columns", what)
	}
	nodes, links := capture.Nodes(), len(capture.base.topo.links)
	if len(cols.FreeMemoryMB) != len(nodes) || len(cols.CPULoad) != len(nodes) || len(cols.ReservedMbps) != links {
		t.Fatalf("%s: columns are %d/%d/%d long, want %d/%d/%d", what,
			len(cols.FreeMemoryMB), len(cols.CPULoad), len(cols.ReservedMbps), len(nodes), len(nodes), links)
	}
	for i, ns := range nodes {
		if math.Float64bits(cols.FreeMemoryMB[i]) != math.Float64bits(ns.FreeMemoryMB) {
			t.Fatalf("%s: free memory of %s: columns %v, ledger %v", what, ns.Node.Hostname, cols.FreeMemoryMB[i], ns.FreeMemoryMB)
		}
		if math.Float64bits(cols.CPULoad[i]) != math.Float64bits(ns.CPULoad) {
			t.Fatalf("%s: load of %s: columns %v, ledger %v", what, ns.Node.Hostname, cols.CPULoad[i], ns.CPULoad)
		}
	}
	for id := 0; id < links; id++ {
		if got, want := cols.ReservedMbps[id], capture.ReservedAt(id); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: reserved on link %d: columns %v, ledger %v", what, id, got, want)
		}
	}
}

// sameRefusal fails unless two errors are both nil or read the same.
func sameRefusal(t *testing.T, what string, got, want error) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: columns say %v, the ledger says %v", what, got, want)
	}
}

// TestColumnsReserveMatchesLedger applies the same claims to the ledger and to
// columns read from a capture of it: both must accept or refuse them with the
// same error and end up with bit-equal free memory, load and reserved
// bandwidth at every index. Accepted claims pile up, so later ones are judged
// against earlier charges on both sides.
func TestColumnsReserveMatchesLedger(t *testing.T) {
	cases := []struct {
		name  string
		nodes []NodeClaim
		links []LinkClaim
		want  string // part of the refusal; "" when accepted
	}{
		{name: "nodes and links",
			nodes: []NodeClaim{{Hostname: "n03", MemoryMB: 20.5, CPULoad: 0.25}, {Hostname: "n01", MemoryMB: 3, CPULoad: 1}},
			links: []LinkClaim{{A: "n03", B: "n01", BandwidthMbps: 33.3}, {A: "n01", B: "n02", BandwidthMbps: 0.1}}},
		{name: "two local names stacked on one host add one by one",
			nodes: []NodeClaim{{Hostname: "n02", MemoryMB: 0.1, CPULoad: 0.1}, {Hostname: "n02", MemoryMB: 0.2, CPULoad: 0.2}, {Hostname: "n02", MemoryMB: 0.3, CPULoad: 0.3}}},
		{name: "one link claimed twice",
			nodes: []NodeClaim{{Hostname: "n04", MemoryMB: 1}},
			links: []LinkClaim{{A: "n04", B: "n05", BandwidthMbps: 0.1}, {A: "n05", B: "n04", BandwidthMbps: 0.2}}},
		{name: "insufficient memory", want: "insufficient capacity: n01 memory (need 1000 MB",
			nodes: []NodeClaim{{Hostname: "n00", MemoryMB: 1}, {Hostname: "n01", MemoryMB: 1000}}},
		{name: "each claim fits, the sum does not: judged against the state before any is applied",
			nodes: []NodeClaim{{Hostname: "n05", MemoryMB: 40}, {Hostname: "n05", MemoryMB: 40}}},
		{name: "negative memory", want: "negative claim on n02",
			nodes: []NodeClaim{{Hostname: "n02", MemoryMB: -1}}},
		{name: "negative load", want: "negative claim on n02",
			nodes: []NodeClaim{{Hostname: "n01", MemoryMB: 1}, {Hostname: "n02", CPULoad: -0.5}}},
		{name: "unknown node", want: "unknown node: nosuch",
			nodes: []NodeClaim{{Hostname: "n01", MemoryMB: 1}, {Hostname: "nosuch", MemoryMB: 1}}},
		{name: "unknown link", want: "unknown link: n00-n07",
			nodes: []NodeClaim{{Hostname: "n00", MemoryMB: 1}},
			links: []LinkClaim{{A: "n00", B: "n01", BandwidthMbps: 1}, {A: "n00", B: "n07", BandwidthMbps: 1}}},
		{name: "negative bandwidth", want: "negative bandwidth claim on n01-n02",
			nodes: []NodeClaim{{Hostname: "n00", MemoryMB: 1}},
			links: []LinkClaim{{A: "n01", B: "n02", BandwidthMbps: -1}}},
		{name: "a node error comes before a link error", want: "negative claim on n03",
			nodes: []NodeClaim{{Hostname: "n03", MemoryMB: -1}},
			links: []LinkClaim{{A: "n00", B: "n07", BandwidthMbps: 1}}},
		{name: "after the refusals, more of the same hosts",
			nodes: []NodeClaim{{Hostname: "n03", MemoryMB: 1.7, CPULoad: 0.25}, {Hostname: "n05", MemoryMB: 2.9, CPULoad: 1e-9}},
			links: []LinkClaim{{A: "n03", B: "n01", BandwidthMbps: 66.7}}},
	}
	l, residents := columnsTestLedger(t, 20, 8)
	// The base of the trial is a capture with a resident's claim released into
	// the columns, as the controller's evaluation base is; the ledger makes the
	// same release.
	snap := l.Snapshot()
	var before, cols Columns
	snap.ReadColumns(&before)
	snap.ReadColumns(&cols)
	if err := cols.Release(snap, residents[1].ID, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Release(residents[1].ID); err != nil {
		t.Fatal(err)
	}
	requireColumnsEqual(t, "before any claim", &cols, l.Snapshot())
	for _, tc := range cases {
		_, ledgerErr := l.Reserve("trial", tc.nodes, tc.links)
		colsErr := cols.Charge(tc.nodes, tc.links, snap.base.topo.locate(nil, tc.nodes, tc.links), nil)
		sameRefusal(t, tc.name, colsErr, ledgerErr)
		if (tc.want == "") != (ledgerErr == nil) || (ledgerErr != nil && !strings.Contains(ledgerErr.Error(), tc.want)) {
			t.Fatalf("%s: err = %v, want %q", tc.name, ledgerErr, tc.want)
		}
		requireColumnsEqual(t, tc.name, &cols, l.Snapshot())
	}
	// The capture the trial was read from is as it was: the trial wrote to
	// storage of its own.
	requireColumnsEqual(t, "the capture after the trial", &before, snap)
}

// TestColumnsReusedAcrossStates re-aims one pair of Columns — a base and a
// trial, each read from the same snapshot — at a ledger that keeps changing:
// claims with links reserved and released (each write after a snapshot moves
// the ledger to a new reserved column), a link and a node added (other
// lengths, another topology). Now and then the snapshot has a claim released
// in it first, so the columns are read from a written snapshot. After every
// change the reused columns must equal the ledger driven down the same path,
// replayed on a fresh one. What a trial wrote must be gone from the next one.
func TestColumnsReusedAcrossStates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l, held := columnsTestLedger(t, 7, 8)
	var path []func(*Ledger) error
	apply := func(op func(*Ledger) error) {
		t.Helper()
		if err := op(l); err != nil {
			t.Fatal(err)
		}
		path = append(path, op)
	}
	// replay is the ledger down the path, then released id (when not 0).
	replay := func(released uint64) *Ledger {
		t.Helper()
		r, _ := columnsTestLedger(t, 7, 8)
		for _, op := range path {
			if err := op(r); err != nil {
				t.Fatal(err)
			}
		}
		if released != 0 {
			if err := r.Release(released); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	var base, trial Columns
	for step := 0; step < 200; step++ {
		switch k := rng.Intn(10); {
		case k < 4:
			a, b := rng.Intn(7), rng.Intn(7)
			if a == b {
				b = (a + 1) % 7
			}
			nodes := []NodeClaim{{Hostname: fmt.Sprintf("n%02d", a), MemoryMB: rng.Float64(), CPULoad: rng.Float64()}}
			lks := []LinkClaim{{A: fmt.Sprintf("n%02d", a), B: fmt.Sprintf("n%02d", b), BandwidthMbps: rng.Float64() * 10}}
			apply(func(r *Ledger) error {
				c, err := r.Reserve("churn", nodes, lks)
				if r == l && err == nil {
					held = append(held, c)
				}
				return err
			})
		case k < 7 && len(held) > 0:
			i := rng.Intn(len(held))
			id := held[i].ID
			apply(func(r *Ledger) error { return r.Release(id) })
			held = append(held[:i], held[i+1:]...)
		case k == 7 && step%20 == 7:
			h := fmt.Sprintf("a%03d", step) // sorts before every other: each index moves
			apply(func(r *Ledger) error {
				if err := r.AddNode(Node{Hostname: h, Speed: 1, MemoryMB: 64, OS: "linux", CPUs: 1}); err != nil {
					return err
				}
				return r.AddLink(Link{A: h, B: "n03", BandwidthMbps: 50})
			})
		}
		snap := l.Snapshot()
		var released uint64
		if len(held) > 0 && rng.Intn(2) == 0 {
			released = held[rng.Intn(len(held))].ID
			if err := snap.Release(released); err != nil {
				t.Fatal(err)
			}
		}
		want := replay(released).Snapshot()
		snap.ReadColumns(&base)
		requireColumnsEqual(t, fmt.Sprintf("step %d: base", step), &base, want)
		for trialNo := 0; trialNo < 2; trialNo++ {
			snap.ReadColumns(&trial)
			requireColumnsEqual(t, fmt.Sprintf("step %d: trial %d", step, trialNo), &trial, want)
			nodes := []NodeClaim{{Hostname: "n02", MemoryMB: 1, CPULoad: 1}}
			lks := []LinkClaim{{A: "n02", B: "n04", BandwidthMbps: 5}, {A: "n01", B: "n06", BandwidthMbps: 5}}
			ref := replay(released)
			if _, err := ref.Reserve("trial", nodes, lks); err != nil {
				t.Fatal(err)
			}
			if err := trial.Charge(nodes, lks, snap.base.topo.locate(nil, nodes, lks), nil); err != nil {
				t.Fatal(err)
			}
			requireColumnsEqual(t, fmt.Sprintf("step %d: trial %d charged", step, trialNo), &trial, ref.Snapshot())
		}
		requireColumnsEqual(t, fmt.Sprintf("step %d: base after its trials", step), &base, want)
	}
}

// TestColumnsRestoreIsExact walks one Columns the way the joint search does
// — charge, go deeper, come back, restore, try the next sibling — beside the
// ledger, replayed down the walk's path at every level. Whatever the depth,
// and however many siblings were charged and restored before, the columns
// must hold bit for bit what the ledger holds at that depth: the values
// restored are the ones saved, not the ones subtraction would arrive at.
// Claims stack on one node and on one link, some are refused (and must leave
// no trace in the log), and once the walk is over the columns must be
// re-aimable like any other.
func TestColumnsRestoreIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	l, residents := columnsTestLedger(t, 21, 8)
	snap := l.Snapshot()
	var cols Columns
	var undo Undo
	snap.ReadColumns(&cols)
	if err := cols.Release(snap, residents[2].ID, &undo); err != nil {
		t.Fatal(err)
	}
	released := undo.Mark()
	type charge struct {
		nodes []NodeClaim
		links []LinkClaim
	}
	replay := func(path []charge) *Ledger {
		t.Helper()
		r, _ := columnsTestLedger(t, 21, 8)
		if err := r.Release(residents[2].ID); err != nil {
			t.Fatal(err)
		}
		for _, c := range path {
			if _, err := r.Reserve("trial", c.nodes, c.links); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	host := func() string { return fmt.Sprintf("n%02d", 1+rng.Intn(6)) } // n00-n07 is the unlinked pair
	charged, refused := 0, 0
	var walk func(path []charge)
	walk = func(path []charge) {
		depth := len(path)
		here := replay(path).Snapshot()
		requireColumnsEqual(t, fmt.Sprintf("depth %d on entry", depth), &cols, here)
		if depth == 4 {
			return
		}
		for sibling := 0; sibling < 3; sibling++ {
			a, b := host(), host()
			nodes := []NodeClaim{
				{Hostname: a, MemoryMB: rng.Float64() * 3, CPULoad: rng.Float64() / 3},
				{Hostname: b, MemoryMB: 0.1, CPULoad: 1.0 / 3},
				{Hostname: a, MemoryMB: rng.Float64(), CPULoad: 0.7},
			}
			var lks []LinkClaim
			if a != b {
				lks = []LinkClaim{{A: a, B: b, BandwidthMbps: rng.Float64() * 10}, {A: b, B: a, BandwidthMbps: 0.1}}
			}
			if rng.Intn(6) == 0 {
				nodes[1].MemoryMB = 1e6 // refused
			}
			_, ledgerErr := replay(path).Reserve("trial", nodes, lks)
			mark := undo.Mark()
			colsErr := cols.Charge(nodes, lks, snap.base.topo.locate(nil, nodes, lks), &undo)
			sameRefusal(t, fmt.Sprintf("depth %d", depth), colsErr, ledgerErr)
			if colsErr != nil {
				refused++
				if undo.Mark() != mark {
					t.Fatalf("depth %d: a refused charge logged %d entries", depth, undo.Mark()-mark)
				}
			} else {
				charged++
				walk(append(path[:depth:depth], charge{nodes, lks}))
			}
			cols.Restore(&undo, mark)
			requireColumnsEqual(t, fmt.Sprintf("depth %d after sibling %d", depth, sibling), &cols, here)
		}
	}
	walk(nil)
	if undo.Mark() != released || charged < 30 || refused == 0 {
		t.Fatalf("log holds %d entries (the release %d) after %d charges and %d refusals", undo.Mark(), released, charged, refused)
	}
	cols.Restore(&undo, 0)
	requireColumnsEqual(t, "the release restored", &cols, snap)
	// Nothing of the walk is left for the next user of the columns.
	var trial Columns
	snap.ReadColumns(&trial)
	requireColumnsEqual(t, "a fresh read after the walk", &trial, snap)
	other := l.Snapshot()
	other.ReadColumns(&cols)
	requireColumnsEqual(t, "re-aimed after the walk", &cols, other)
}

// TestColumnsReleaseMatchesLedger releases each resident's claim, alone and
// then all of them one after another, both in the ledger and in columns read
// from a capture of it: the columns must hold what the ledger holds, bit for
// bit, the log must name every entry a release wrote, an unknown claim must
// be refused in the ledger's words, and Restore must take the columns back to
// the very bits they were read with.
func TestColumnsReleaseMatchesLedger(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		nodes := 6 + int(seed%4)
		l, residents := columnsTestLedger(t, seed, nodes)
		base := l.Snapshot()
		var cols Columns
		base.ReadColumns(&cols)
		var undo Undo
		for _, c := range residents {
			ref, _ := columnsTestLedger(t, seed, nodes)
			if err := ref.Release(c.ID); err != nil {
				t.Fatal(err)
			}
			if err := cols.Release(base, c.ID, &undo); err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("seed %d, release %d", seed, c.ID)
			requireColumnsEqual(t, what, &cols, ref.Snapshot())
			wrote := map[[2]int32]bool{}
			for i := 0; i < undo.Mark(); i++ {
				at, link := undo.Wrote(i)
				kind := int32(0)
				if link {
					kind = 1
				}
				wrote[[2]int32{kind, at}] = true
			}
			for _, nc := range c.Nodes {
				p, _ := base.NodeIndex(nc.Hostname)
				if !wrote[[2]int32{0, int32(p)}] {
					t.Fatalf("%s: the log does not name node %s", what, nc.Hostname)
				}
			}
			for _, lc := range c.Links {
				id, _ := base.LinkIndex(lc.A, lc.B)
				if !wrote[[2]int32{1, int32(id)}] {
					t.Fatalf("%s: the log does not name link %s-%s", what, lc.A, lc.B)
				}
			}
			cols.Restore(&undo, 0)
			requireColumnsEqual(t, what+", restored", &cols, base)
		}
		all, _ := columnsTestLedger(t, seed, nodes)
		for _, c := range residents {
			if err := all.Release(c.ID); err != nil {
				t.Fatal(err)
			}
			if err := cols.Release(base, c.ID, &undo); err != nil {
				t.Fatal(err)
			}
			requireColumnsEqual(t, fmt.Sprintf("seed %d, releases up to %d", seed, c.ID), &cols, all.Snapshot())
		}
		cols.Restore(&undo, 0)
		requireColumnsEqual(t, fmt.Sprintf("seed %d, every release restored", seed), &cols, base)
		wantErr := l.Release(1 << 40)
		if err := cols.Release(base, 1<<40, &undo); err == nil || err.Error() != wantErr.Error() || undo.Mark() != 0 {
			t.Fatalf("seed %d: releasing an unknown claim: %v (log %d), the ledger says %v", seed, err, undo.Mark(), wantErr)
		}
	}
}

// fuzzInput hands out a fuzz input one decision at a time: each call takes a
// byte, reduced below n, and 0 once the input runs out.
type fuzzInput []byte

func (in *fuzzInput) next(n int) int {
	if len(*in) == 0 {
		return 0
	}
	v := int((*in)[0]) % n
	*in = (*in)[1:]
	return v
}

// requireSnapshotEqual fails unless the snapshot reads, bit for bit, what the
// unwritten capture does: node by node, link by link and through ReadColumns.
func requireSnapshotEqual(t *testing.T, what string, s, capture *Snapshot) {
	t.Helper()
	want, got := capture.Nodes(), s.Nodes()
	for i := range want {
		if math.Float64bits(got[i].FreeMemoryMB) != math.Float64bits(want[i].FreeMemoryMB) ||
			math.Float64bits(got[i].CPULoad) != math.Float64bits(want[i].CPULoad) {
			t.Fatalf("%s: node %s: snapshot %+v, ledger %+v", what, want[i].Node.Hostname, got[i], want[i])
		}
	}
	for id := range capture.base.topo.links {
		if got, want := s.ReservedAt(id), capture.ReservedAt(id); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: reserved on link %d: snapshot %v, ledger %v", what, id, got, want)
		}
	}
	var cols Columns
	s.ReadColumns(&cols)
	requireColumnsEqual(t, what+", read out", &cols, capture)
}

// FuzzColumnsMatchLedger drives one hypothetical state three ways — Columns
// charged and released directly, a Snapshot through its Reserve, Release and
// Fork front doors, and a Ledger, the reference — through a sequence of
// reserves, releases, forks and charges taken back with Restore that the
// input spells out. After every step the columns and the snapshot must hold,
// bit for bit, what the ledger holds, and a refusal must read the same on all
// three. A charge that is restored is held to the ledger replayed down the
// path with that charge on the end; a fork leaves the side that is not
// followed further written with one more claim, which must not show in the
// side that is.
func FuzzColumnsMatchLedger(f *testing.F) {
	// TestSnapshotDifferentialProperty's seeds.
	for trial := 0; trial < 20; trial++ {
		in := make([]byte, 96)
		rand.New(rand.NewSource(int64(1000 + trial))).Read(in)
		f.Add(in)
	}
	f.Fuzz(columnsMatchLedger)
}

func columnsMatchLedger(t *testing.T, data []byte) {
	in := fuzzInput(data)
	host := func(i int) string { return fmt.Sprintf("n%02d", i) }

	// The cluster: its shape is read once and built as often as a replay
	// needs it.
	nodes := 2 + in.next(6)
	mem := make([]float64, nodes)
	for i := range mem {
		mem[i] = float64(16 * (1 + in.next(4)))
	}
	unlinked := make([]bool, nodes*nodes)
	for i := range unlinked {
		unlinked[i] = in.next(5) == 0
	}
	// claim reads one set of node and link claims: now and then a host
	// that is not registered, a pair that is not linked, a negative
	// amount or more memory than is free.
	claim := func() ([]NodeClaim, []LinkClaim) {
		var nc []NodeClaim
		for k := 1 + in.next(3); k > 0; k-- {
			c := NodeClaim{Hostname: host(in.next(nodes + 1)), MemoryMB: float64(in.next(48)) / 3, CPULoad: float64(in.next(16)) / 6}
			if in.next(16) == 0 {
				c.MemoryMB = -1
			}
			nc = append(nc, c)
		}
		var lc []LinkClaim
		for k := in.next(3); k > 0; k-- {
			c := LinkClaim{A: host(in.next(nodes + 1)), B: host(in.next(nodes)), BandwidthMbps: float64(in.next(64)) / 7}
			if in.next(16) == 0 {
				c.BandwidthMbps = -1
			}
			lc = append(lc, c)
		}
		return nc, lc
	}
	type reservation struct {
		nodes []NodeClaim
		links []LinkClaim
	}
	var residents []reservation
	for k := in.next(4); k > 0; k-- {
		nc, lc := claim()
		residents = append(residents, reservation{nc, lc})
	}
	build := func() *Ledger {
		l := NewLedger()
		for i := 0; i < nodes; i++ {
			if err := l.AddNode(Node{Hostname: host(i), Speed: 1, MemoryMB: mem[i], OS: "linux", CPUs: 1}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < nodes; i++ {
			for j := i + 1; j < nodes; j++ {
				if !unlinked[i*nodes+j] {
					if err := l.AddLink(Link{A: host(i), B: host(j), BandwidthMbps: 100}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for _, r := range residents {
			_, _ = l.Reserve("resident", r.nodes, r.links) // a refusal is part of the shape
		}
		return l
	}

	ref := build()
	var path []func(*Ledger) error
	replay := func() *Ledger {
		r := build()
		for _, op := range path {
			_ = op(r) // refused as the reference was
		}
		return r
	}
	snap := ref.Snapshot()
	topo := snap.base.topo
	var cols Columns
	var undo Undo
	snap.ReadColumns(&cols)
	for step := 0; len(in) > 0 && step < 64; step++ {
		what := fmt.Sprintf("step %d", step)
		switch in.next(5) {
		case 0, 1: // reserve
			nc, lc := claim()
			want, ledgerErr := ref.Reserve("o", nc, lc)
			got, snapErr := snap.Reserve("o", nc, lc)
			colsErr := cols.Charge(nc, lc, topo.locate(nil, nc, lc), nil)
			sameRefusal(t, what+": reserve", colsErr, ledgerErr)
			sameRefusal(t, what+": reserve through the snapshot", snapErr, ledgerErr)
			if ledgerErr == nil && got.ID != want.ID {
				t.Fatalf("%s: the snapshot issued claim %d, the ledger %d", what, got.ID, want.ID)
			}
			path = append(path, func(l *Ledger) error { _, err := l.Reserve("o", nc, lc); return err })
		case 2: // release a claim: the capture's, one reserved since, or none
			id := uint64(in.next(int(snap.nextID) + 2))
			ledgerErr := ref.Release(id)
			colsErr := cols.Release(snap, id, nil)
			sameRefusal(t, what+": release", colsErr, ledgerErr)
			sameRefusal(t, what+": release through the snapshot", snap.Release(id), ledgerErr)
			path = append(path, func(l *Ledger) error { return l.Release(id) })
		case 3: // fork, and write the side not followed
			other := snap.Fork()
			if in.next(2) == 0 {
				snap, other = other, snap
			}
			nc, lc := claim()
			_, _ = other.Reserve("o", nc, lc)
		case 4: // charge and release with the log, then restore
			mark := undo.Mark()
			nc, lc := claim()
			// Not the id the charge would have been given: the columns
			// record no claim.
			id := uint64(in.next(int(snap.nextID) + 1))
			r := replay()
			_, ledgerErr := r.Reserve("o", nc, lc)
			sameRefusal(t, what+": logged charge", cols.Charge(nc, lc, topo.locate(nil, nc, lc), &undo), ledgerErr)
			sameRefusal(t, what+": logged release", cols.Release(snap, id, &undo), r.Release(id))
			requireColumnsEqual(t, what+": logged", &cols, r.Snapshot())
			cols.Restore(&undo, mark)
		}
		want := ref.Snapshot()
		requireColumnsEqual(t, what, &cols, want)
		requireSnapshotEqual(t, what, snap, want)
	}
}
