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
func columnsTestLedger(t *testing.T, rng *rand.Rand, nodes int) (*Ledger, []*Claim) {
	t.Helper()
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

// requireColumnsEqualSnapshot fails unless the columns hold, bit for bit, what
// the snapshot reports at every node index and link id.
func requireColumnsEqualSnapshot(t *testing.T, what string, cols *Columns, snap *Snapshot, links int) {
	t.Helper()
	nodes := snap.Nodes()
	if len(cols.FreeMemoryMB) != len(nodes) || len(cols.CPULoad) != len(nodes) || len(cols.ReservedMbps) != links {
		t.Fatalf("%s: columns are %d/%d/%d long, want %d/%d/%d", what,
			len(cols.FreeMemoryMB), len(cols.CPULoad), len(cols.ReservedMbps), len(nodes), len(nodes), links)
	}
	for i, ns := range nodes {
		if math.Float64bits(cols.FreeMemoryMB[i]) != math.Float64bits(ns.FreeMemoryMB) {
			t.Fatalf("%s: free memory of %s: columns %v, snapshot %v", what, ns.Node.Hostname, cols.FreeMemoryMB[i], ns.FreeMemoryMB)
		}
		if math.Float64bits(cols.CPULoad[i]) != math.Float64bits(ns.CPULoad) {
			t.Fatalf("%s: load of %s: columns %v, snapshot %v", what, ns.Node.Hostname, cols.CPULoad[i], ns.CPULoad)
		}
	}
	for id := 0; id < links; id++ {
		if got, want := cols.ReservedMbps[id], snap.ReservedAt(id); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: reserved on link %d: columns %v, snapshot %v", what, id, got, want)
		}
	}
}

// TestColumnsReserveMatchesFork applies the same claims to a snapshot fork
// and to columns read from the snapshot: both must accept or refuse them with
// the same error and end up with bit-equal free memory, load and reserved
// bandwidth at every index. Accepted claims pile up, so later ones are judged
// against earlier charges on both sides.
func TestColumnsReserveMatchesFork(t *testing.T) {
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
	l, residents := columnsTestLedger(t, rand.New(rand.NewSource(20)), 8)
	links := len(l.Links())
	// The base of the trial is a snapshot with a resident's claim released in
	// it, as the controller's evaluation base is.
	snap := l.Snapshot()
	if err := snap.Release(residents[1].ID); err != nil {
		t.Fatal(err)
	}
	fork := snap.Fork()
	var before, cols Columns
	snap.ReadColumns(&before)
	snap.ReadColumns(&cols)
	requireColumnsEqualSnapshot(t, "before any claim", &cols, fork, links)
	for _, tc := range cases {
		_, forkErr := fork.Reserve("trial", tc.nodes, tc.links)
		colsErr := cols.Reserve(tc.nodes, tc.links, snap.base.topo.locate(nil, tc.nodes, tc.links))
		if fmt.Sprint(forkErr) != fmt.Sprint(colsErr) {
			t.Fatalf("%s: fork says %v, columns say %v", tc.name, forkErr, colsErr)
		}
		if (tc.want == "") != (forkErr == nil) || (forkErr != nil && !strings.Contains(forkErr.Error(), tc.want)) {
			t.Fatalf("%s: err = %v, want %q", tc.name, forkErr, tc.want)
		}
		requireColumnsEqualSnapshot(t, tc.name, &cols, fork, links)
	}
	// The snapshot the trial was read from is as it was: the trial wrote to
	// storage of its own.
	requireColumnsEqualSnapshot(t, "the snapshot after the trial", &before, snap, links)
}

// TestColumnsReusedAcrossStates re-aims one pair of Columns — a base and a
// trial, each read from the same snapshot — at a ledger that keeps changing:
// claims with links reserved and released (each
// write after a snapshot moves the ledger to a new reserved column), a link
// and a node added (other lengths, another topology). After every change the
// reused columns must equal freshly made ones, which is to say the snapshot.
// What a trial wrote must be gone from the next one.
func TestColumnsReusedAcrossStates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l, held := columnsTestLedger(t, rng, 8)
	var base, trial Columns
	for step := 0; step < 200; step++ {
		switch k := rng.Intn(10); {
		case k < 4:
			a, b := rng.Intn(7), rng.Intn(7)
			if a == b {
				b = (a + 1) % 7
			}
			c, err := l.Reserve("churn",
				[]NodeClaim{{Hostname: fmt.Sprintf("n%02d", a), MemoryMB: rng.Float64(), CPULoad: rng.Float64()}},
				[]LinkClaim{{A: fmt.Sprintf("n%02d", a), B: fmt.Sprintf("n%02d", b), BandwidthMbps: rng.Float64() * 10}})
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, c)
		case k < 7 && len(held) > 0:
			i := rng.Intn(len(held))
			if err := l.Release(held[i].ID); err != nil {
				t.Fatal(err)
			}
			held = append(held[:i], held[i+1:]...)
		case k == 7 && step%20 == 7:
			h := fmt.Sprintf("a%03d", step) // sorts before every other: each index moves
			if err := l.AddNode(Node{Hostname: h, Speed: 1, MemoryMB: 64, OS: "linux", CPUs: 1}); err != nil {
				t.Fatal(err)
			}
			if err := l.AddLink(Link{A: h, B: "n03", BandwidthMbps: 50}); err != nil {
				t.Fatal(err)
			}
		}
		links := len(l.Links())
		snap := l.Snapshot()
		if len(held) > 0 && rng.Intn(2) == 0 {
			if err := snap.Release(held[rng.Intn(len(held))].ID); err != nil {
				t.Fatal(err)
			}
		}
		snap.ReadColumns(&base)
		requireColumnsEqualSnapshot(t, fmt.Sprintf("step %d: base", step), &base, snap, links)
		for trialNo := 0; trialNo < 2; trialNo++ {
			snap.ReadColumns(&trial)
			requireColumnsEqualSnapshot(t, fmt.Sprintf("step %d: trial %d", step, trialNo), &trial, snap, links)
			nodes := []NodeClaim{{Hostname: "n02", MemoryMB: 1, CPULoad: 1}}
			lks := []LinkClaim{{A: "n02", B: "n04", BandwidthMbps: 5}, {A: "n01", B: "n06", BandwidthMbps: 5}}
			fork := snap.Fork()
			if _, err := fork.Reserve("trial", nodes, lks); err != nil {
				t.Fatal(err)
			}
			if err := trial.Reserve(nodes, lks, snap.base.topo.locate(nil, nodes, lks)); err != nil {
				t.Fatal(err)
			}
			requireColumnsEqualSnapshot(t, fmt.Sprintf("step %d: trial %d charged", step, trialNo), &trial, fork, links)
		}
		requireColumnsEqualSnapshot(t, fmt.Sprintf("step %d: base after its trials", step), &base, snap, links)
	}
}

// TestColumnsRestoreIsExact walks one Columns the way the joint search does
// — charge, go deeper, come back, restore, try the next sibling — beside a
// stack of snapshot forks, one per level. Whatever the depth, and however many
// siblings were charged and restored before, the columns must hold bit for bit
// what the fork at that depth holds: the values restored are the ones saved,
// not the ones subtraction would arrive at. Claims stack on one node and on
// one link, some are refused (and must leave no trace in the log), and once
// the walk is over the columns must be re-aimable like any other.
func TestColumnsRestoreIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	l, residents := columnsTestLedger(t, rng, 8)
	links := len(l.Links())
	snap := l.Snapshot()
	if err := snap.Release(residents[2].ID); err != nil {
		t.Fatal(err)
	}
	var cols Columns
	var undo Undo
	snap.ReadColumns(&cols)
	host := func() string { return fmt.Sprintf("n%02d", 1+rng.Intn(6)) } // n00-n07 is the unlinked pair
	charged, refused := 0, 0
	var walk func(view *Snapshot, depth int)
	walk = func(view *Snapshot, depth int) {
		requireColumnsEqualSnapshot(t, fmt.Sprintf("depth %d on entry", depth), &cols, view, links)
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
			fork := view.Fork()
			_, forkErr := fork.Reserve("trial", nodes, lks)
			mark := undo.Mark()
			colsErr := cols.Charge(nodes, lks, snap.base.topo.locate(nil, nodes, lks), &undo)
			if fmt.Sprint(forkErr) != fmt.Sprint(colsErr) {
				t.Fatalf("depth %d: fork says %v, columns say %v", depth, forkErr, colsErr)
			}
			if colsErr != nil {
				refused++
				if undo.Mark() != mark {
					t.Fatalf("depth %d: a refused charge logged %d entries", depth, undo.Mark()-mark)
				}
			} else {
				charged++
				walk(fork, depth+1)
			}
			cols.Restore(&undo, mark)
			requireColumnsEqualSnapshot(t, fmt.Sprintf("depth %d after sibling %d", depth, sibling), &cols, view, links)
		}
	}
	walk(snap, 0)
	if undo.Mark() != 0 || charged < 30 || refused == 0 {
		t.Fatalf("log holds %d entries after %d charges and %d refusals", undo.Mark(), charged, refused)
	}
	// Nothing of the walk is left for the next user of the columns.
	var trial Columns
	snap.ReadColumns(&trial)
	requireColumnsEqualSnapshot(t, "a fresh read after the walk", &trial, snap, links)
	other := l.Snapshot()
	other.ReadColumns(&cols)
	requireColumnsEqualSnapshot(t, "re-aimed after the walk", &cols, other, links)
}

// TestColumnsReleaseMatchesSnapshot releases each resident's claim, alone and
// then all of them one after another, both in a snapshot and in columns read
// from it: the columns must hold what the snapshot holds, bit for bit, the log
// must name every entry a release wrote, an unknown claim must be refused in
// the snapshot's words, and Restore must take the columns back to the very
// bits they were read with.
func TestColumnsReleaseMatchesSnapshot(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l, residents := columnsTestLedger(t, rng, 6+rng.Intn(4))
		links := len(l.Links())
		base := l.Snapshot()
		var cols Columns
		base.ReadColumns(&cols)
		var undo Undo
		for _, c := range residents {
			snap := l.Snapshot()
			if err := snap.Release(c.ID); err != nil {
				t.Fatal(err)
			}
			if err := cols.Release(base, c.ID, &undo); err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("seed %d, release %d", seed, c.ID)
			requireColumnsEqualSnapshot(t, what, &cols, snap, links)
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
			requireColumnsEqualSnapshot(t, what+", restored", &cols, base, links)
		}
		all := l.Snapshot()
		for _, c := range residents {
			if err := all.Release(c.ID); err != nil {
				t.Fatal(err)
			}
			if err := cols.Release(base, c.ID, &undo); err != nil {
				t.Fatal(err)
			}
			requireColumnsEqualSnapshot(t, fmt.Sprintf("seed %d, releases up to %d", seed, c.ID), &cols, all, links)
		}
		cols.Restore(&undo, 0)
		requireColumnsEqualSnapshot(t, fmt.Sprintf("seed %d, every release restored", seed), &cols, base, links)
		snap := l.Snapshot()
		wantErr := snap.Release(1 << 40)
		if err := cols.Release(base, 1<<40, &undo); err == nil || err.Error() != wantErr.Error() || undo.Mark() != 0 {
			t.Fatalf("seed %d: releasing an unknown claim: %v (log %d), the snapshot says %v", seed, err, undo.Mark(), wantErr)
		}
	}
}
