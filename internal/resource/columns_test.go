package resource

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// buildColumnsTest builds, in l, a cluster with uneven memory, a link
// between most but not all node pairs, and a few residents holding memory,
// load and bandwidth. The seed decides all of it, so a Ledger and a model
// built with one seed hold the same bits: a test replays a path of
// operations on a fresh model to have the reference for a state.
func buildColumnsTest(t *testing.T, l ledgerOps, seed int64, nodes int) []*Claim {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
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
	return residents
}

// columnsTestLedger is buildColumnsTest on a fresh Ledger.
func columnsTestLedger(t *testing.T, seed int64, nodes int) (*Ledger, []*Claim) {
	t.Helper()
	l := NewLedger()
	return l, buildColumnsTest(t, l, seed, nodes)
}

// columnsTestModel is buildColumnsTest on a fresh model.
func columnsTestModel(t *testing.T, seed int64, nodes int) *denseLedger {
	t.Helper()
	m := newDenseLedger()
	buildColumnsTest(t, m, seed, nodes)
	return m
}

// sameRefusal fails unless two errors are both nil or read the same.
func sameRefusal(t *testing.T, what string, got, want error) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: got %v, the model says %v", what, got, want)
	}
}

// TestColumnsReserveMatchesLedger applies the same claims to the model, to
// the ledger and to columns read from a capture of it: all three must accept
// or refuse them with the same error and end up with bit-equal free memory,
// load and reserved bandwidth at every index. Accepted claims pile up, so
// later ones are judged against earlier charges on every side.
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
		{name: "NaN load", want: "non-finite claim on n02",
			nodes: []NodeClaim{{Hostname: "n01", MemoryMB: 1}, {Hostname: "n02", CPULoad: math.NaN()}}},
		{name: "infinite memory", want: "non-finite claim on n02",
			nodes: []NodeClaim{{Hostname: "n02", MemoryMB: math.Inf(1)}}},
		{name: "NaN bandwidth", want: "non-finite bandwidth claim on n01-n02",
			nodes: []NodeClaim{{Hostname: "n00", MemoryMB: 1}},
			links: []LinkClaim{{A: "n01", B: "n02", BandwidthMbps: math.NaN()}}},
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
	model := columnsTestModel(t, 20, 8)
	// The base of the trial is a capture with a resident's claim released into
	// the columns, as the controller's evaluation base is; the ledger and the
	// model make the same release.
	snap := l.Snapshot()
	var before, cols Columns
	snap.ReadColumns(&before)
	snap.ReadColumns(&cols)
	cols.Release(residents[1], snap.Topology(), nil)
	for _, r := range []ledgerOps{l, model} {
		if err := r.Release(residents[1].ID); err != nil {
			t.Fatal(err)
		}
	}
	requireColumnsEqual(t, "before any claim", &cols, model)
	requireLedgerEqual(t, "before any claim", l, model)
	for _, tc := range cases {
		_, modelErr := model.Reserve("trial", tc.nodes, tc.links)
		_, ledgerErr := l.Reserve("trial", tc.nodes, tc.links)
		colsErr := cols.Charge(tc.nodes, tc.links, snap.base.topo.locate(nil, tc.nodes, tc.links), nil)
		sameRefusal(t, tc.name, colsErr, modelErr)
		sameRefusal(t, tc.name+", in the ledger", ledgerErr, modelErr)
		if (tc.want == "") != (modelErr == nil) || (modelErr != nil && !strings.Contains(modelErr.Error(), tc.want)) {
			t.Fatalf("%s: err = %v, want %q", tc.name, modelErr, tc.want)
		}
		requireColumnsEqual(t, tc.name, &cols, model)
		requireLedgerEqual(t, tc.name, l, model)
	}
	// The capture the trial was read from is as it was: the trial wrote to
	// storage of its own.
	requireColumnsEqual(t, "the capture's columns after the trial", &before, columnsTestModel(t, 20, 8))
	requireSnapshotEqual(t, "the capture after the trial", snap, columnsTestModel(t, 20, 8))
}

// TestColumnsReusedAcrossStates re-aims one pair of Columns — a base and a
// trial — at captures of a ledger that keeps changing between them: claims
// with links reserved and released, nodes marked draining or down and back,
// a link registered again (its reservation back to zero), a node and a link
// added (other lengths, another topology). One link is reserved, released to
// zero and reserved again over and over. Now and then the snapshot has a
// claim released in it first, so the columns are read from a written
// snapshot, and the trial is re-aimed at the capture before last, so a
// column also shrinks. After every read, every node and every link id of the
// columns must hold what the model driven down the same path holds, bit for
// bit: what a trial or an earlier capture wrote must be gone. The ledger
// itself is held to the model at every step.
func TestColumnsReusedAcrossStates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l, held := columnsTestLedger(t, 7, 8)
	var path []func(ledgerOps) error
	apply := func(op func(ledgerOps) error) {
		t.Helper()
		if err := op(l); err != nil {
			t.Fatal(err)
		}
		path = append(path, op)
	}
	// replay is the model down the path, then released id (when not 0).
	replay := func(released uint64) *denseLedger {
		t.Helper()
		r := columnsTestModel(t, 7, 8)
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
	host := func(i int) string { return fmt.Sprintf("n%02d", i) }
	// n07 is left out of the churn, so the n03-n07 link holds only what the
	// flip-flop reserves there.
	var flip uint64
	var prev *Snapshot
	var prevWant *denseLedger
	var base, trial Columns
	for step := 0; step < 240; step++ {
		switch k := rng.Intn(12); {
		case step%3 == 0 && flip == 0:
			apply(func(r ledgerOps) error {
				c, err := r.Reserve("flip", []NodeClaim{{Hostname: "n07", MemoryMB: 1}},
					[]LinkClaim{{A: "n03", B: "n07", BandwidthMbps: 0.7}})
				if r == ledgerOps(l) && err == nil {
					flip = c.ID
				}
				return err
			})
		case step%3 == 0:
			id := flip
			apply(func(r ledgerOps) error { return r.Release(id) })
			flip = 0
		case k < 4:
			a, b := rng.Intn(7), rng.Intn(7)
			if a == b {
				b = (a + 1) % 7
			}
			nodes := []NodeClaim{{Hostname: host(a), MemoryMB: rng.Float64(), CPULoad: rng.Float64()}}
			lks := []LinkClaim{{A: host(a), B: host(b), BandwidthMbps: rng.Float64() * 10}}
			apply(func(r ledgerOps) error {
				c, err := r.Reserve("churn", nodes, lks)
				if r == ledgerOps(l) && err == nil {
					held = append(held, c)
				}
				return err
			})
		case k < 7 && len(held) > 0:
			i := rng.Intn(len(held))
			id := held[i].ID
			apply(func(r ledgerOps) error { return r.Release(id) })
			held = append(held[:i], held[i+1:]...)
		case k == 7:
			h, health := host(rng.Intn(8)), NodeHealth(rng.Intn(3))
			apply(func(r ledgerOps) error { return r.SetNodeHealth(h, health) })
		case k == 8:
			a, b := host(1+rng.Intn(3)), host(4+rng.Intn(3))
			apply(func(r ledgerOps) error { return r.AddLink(Link{A: a, B: b, BandwidthMbps: 80, LatencyMs: 2}) })
		case k == 9 && step%20 == 9:
			h := fmt.Sprintf("a%03d", step) // sorts before every other: each index moves
			apply(func(r ledgerOps) error {
				if err := r.AddNode(Node{Hostname: h, Speed: 1, MemoryMB: 64, OS: "linux", CPUs: 1}); err != nil {
					return err
				}
				return r.AddLink(Link{A: h, B: "n03", BandwidthMbps: 50})
			})
		}
		requireLedgerEqual(t, fmt.Sprintf("step %d: the ledger", step), l, replay(0))
		snap := l.Snapshot()
		var released uint64
		if len(held) > 0 && rng.Intn(2) == 0 {
			released = held[rng.Intn(len(held))].ID
			if err := snap.Release(released); err != nil {
				t.Fatal(err)
			}
		}
		want := replay(released)
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
			requireColumnsEqual(t, fmt.Sprintf("step %d: trial %d charged", step, trialNo), &trial, ref)
		}
		if prev != nil {
			prev.ReadColumns(&trial)
			requireColumnsEqual(t, fmt.Sprintf("step %d: trial re-aimed at the capture before", step), &trial, prevWant)
		}
		requireColumnsEqual(t, fmt.Sprintf("step %d: base after its trials", step), &base, want)
		prev, prevWant = snap, want
	}
}

// TestColumnsRestoreIsExact walks one Columns the way the joint search does
// — charge, go deeper, come back, restore, try the next sibling — beside the
// model, replayed down the walk's path at every level. Whatever the depth,
// and however many siblings were charged and restored before, the columns
// must hold bit for bit what the model holds at that depth: the values
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
	cols.Release(residents[2], snap.Topology(), &undo)
	released := undo.Mark()
	type charge struct {
		nodes []NodeClaim
		links []LinkClaim
	}
	replay := func(path []charge) *denseLedger {
		t.Helper()
		r := columnsTestModel(t, 21, 8)
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
		here := replay(path)
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
			_, modelErr := replay(path).Reserve("trial", nodes, lks)
			mark := undo.Mark()
			colsErr := cols.Charge(nodes, lks, snap.base.topo.locate(nil, nodes, lks), &undo)
			sameRefusal(t, fmt.Sprintf("depth %d", depth), colsErr, modelErr)
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
	captured := columnsTestModel(t, 21, 8)
	requireColumnsEqual(t, "the release restored", &cols, captured)
	// Nothing of the walk is left for the next user of the columns.
	var trial Columns
	snap.ReadColumns(&trial)
	requireColumnsEqual(t, "a fresh read after the walk", &trial, captured)
	other := l.Snapshot()
	other.ReadColumns(&cols)
	requireColumnsEqual(t, "re-aimed after the walk", &cols, captured)
}

// TestColumnsReleaseMatchesLedger releases each resident's claim, alone and
// then all of them one after another, in the model, in the ledger and in
// columns read from a capture of it: the columns and the ledger must hold
// what the model holds, bit for bit, the log must name every entry a release
// wrote, an unknown claim must be refused in the model's words, and Restore
// must take the columns back to the very bits they were read with.
func TestColumnsReleaseMatchesLedger(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		nodes := 6 + int(seed%4)
		l, residents := columnsTestLedger(t, seed, nodes)
		base := l.Snapshot()
		captured := columnsTestModel(t, seed, nodes)
		var cols Columns
		base.ReadColumns(&cols)
		var undo Undo
		for _, c := range residents {
			ref := columnsTestModel(t, seed, nodes)
			if err := ref.Release(c.ID); err != nil {
				t.Fatal(err)
			}
			cols.Release(c, base.Topology(), &undo)
			what := fmt.Sprintf("seed %d, release %d", seed, c.ID)
			requireColumnsEqual(t, what, &cols, ref)
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
			requireColumnsEqual(t, what+", restored", &cols, captured)
		}
		all := columnsTestModel(t, seed, nodes)
		for _, c := range residents {
			if err := all.Release(c.ID); err != nil {
				t.Fatal(err)
			}
			if err := l.Release(c.ID); err != nil {
				t.Fatal(err)
			}
			cols.Release(c, base.Topology(), &undo)
			what := fmt.Sprintf("seed %d, releases up to %d", seed, c.ID)
			requireColumnsEqual(t, what, &cols, all)
			requireLedgerEqual(t, what, l, all)
		}
		cols.Restore(&undo, 0)
		requireColumnsEqual(t, fmt.Sprintf("seed %d, every release restored", seed), &cols, captured)
		wantErr := all.Release(1 << 40)
		if _, err := base.Claim(1 << 40); fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("seed %d: looking up an unknown claim: %v, the model says %v", seed, err, wantErr)
		}
		sameRefusal(t, fmt.Sprintf("seed %d: releasing an unknown claim in the ledger", seed), l.Release(1<<40), wantErr)
		sameRefusal(t, fmt.Sprintf("seed %d: releasing an unknown claim in a snapshot", seed), base.Release(1<<40), wantErr)
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

// FuzzColumnsMatchLedger drives one hypothetical state three ways — Columns
// charged and released directly, a Snapshot through its Reserve, Release and
// Fork front doors, and the Ledger the snapshot was taken of — beside the
// model, through a sequence of reserves, releases, forks and charges taken
// back with Restore that the input spells out. After every step the columns,
// the snapshot and the ledger must hold, bit for bit, what the model holds,
// and a refusal must read the same on all four. A charge that is restored is
// held to the model replayed down the path with that charge on the end; a
// fork leaves the side that is not followed further written with one more
// claim, which must not show in the side that is.
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
	build := func(l ledgerOps) {
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
	}

	ref, live := newDenseLedger(), NewLedger()
	build(ref)
	build(live)
	var path []func(ledgerOps) error
	replay := func() *denseLedger {
		r := newDenseLedger()
		build(r)
		for _, op := range path {
			_ = op(r) // refused as the reference was
		}
		return r
	}
	snap := live.Snapshot()
	topo := snap.base.topo
	var cols Columns
	var undo Undo
	snap.ReadColumns(&cols)
	requireLedgerEqual(t, "built", live, ref)
	// release releases claim id in the columns as the controller does: the
	// claim is looked up in the snapshot they were read alongside.
	release := func(id uint64, undo *Undo) error {
		cl, err := snap.Claim(id)
		if err == nil {
			cols.Release(cl, snap.Topology(), undo)
		}
		return err
	}
	for step := 0; len(in) > 0 && step < 64; step++ {
		what := fmt.Sprintf("step %d", step)
		switch in.next(5) {
		case 0, 1: // reserve
			nc, lc := claim()
			want, modelErr := ref.Reserve("o", nc, lc)
			_, ledgerErr := live.Reserve("o", nc, lc)
			got, snapErr := snap.Reserve("o", nc, lc)
			colsErr := cols.Charge(nc, lc, topo.locate(nil, nc, lc), nil)
			sameRefusal(t, what+": reserve", colsErr, modelErr)
			sameRefusal(t, what+": reserve through the snapshot", snapErr, modelErr)
			sameRefusal(t, what+": reserve in the ledger", ledgerErr, modelErr)
			if modelErr == nil && got.ID != want.ID {
				t.Fatalf("%s: the snapshot issued claim %d, the model %d", what, got.ID, want.ID)
			}
			path = append(path, func(l ledgerOps) error { _, err := l.Reserve("o", nc, lc); return err })
		case 2: // release a claim: the capture's, one reserved since, or none
			id := uint64(in.next(int(snap.nextID) + 2))
			modelErr := ref.Release(id)
			sameRefusal(t, what+": release", release(id, nil), modelErr)
			sameRefusal(t, what+": release through the snapshot", snap.Release(id), modelErr)
			sameRefusal(t, what+": release in the ledger", live.Release(id), modelErr)
			path = append(path, func(l ledgerOps) error { return l.Release(id) })
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
			_, modelErr := r.Reserve("o", nc, lc)
			sameRefusal(t, what+": logged charge", cols.Charge(nc, lc, topo.locate(nil, nc, lc), &undo), modelErr)
			sameRefusal(t, what+": logged release", release(id, &undo), r.Release(id))
			requireColumnsEqual(t, what+": logged", &cols, r)
			cols.Restore(&undo, mark)
		}
		requireColumnsEqual(t, what, &cols, ref)
		requireSnapshotEqual(t, what, snap, ref)
		requireLedgerEqual(t, what, live, ref)
	}
}
