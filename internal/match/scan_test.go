package match

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"harmony/internal/resource"
	"harmony/internal/rsl"
)

// scanTestLedger is a seeded cluster with everything a scan orders by or a
// spec filters on: two operating systems, uneven installed memory, memory-only
// and loaded residents (so nodes differ in free memory and in load), a down and
// a draining node, and every pair linked but two.
func scanTestLedger(t *testing.T, seed int64, nodes int) *resource.Ledger {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	l := resource.NewLedger()
	host := func(i int) string { return fmt.Sprintf("h%02d", i) }
	for i := 0; i < nodes; i++ {
		n := resource.Node{Hostname: host(i), Speed: 1, MemoryMB: float64(64 * (1 + rng.Intn(3))), OS: "linux", CPUs: 1}
		if rng.Intn(4) == 0 {
			n.OS = "aix"
		}
		if err := l.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nodes; i++ {
		for j := i + 1; j < nodes; j++ {
			if (i == 1 && j == 2) || (i == 0 && j == nodes-1) {
				continue
			}
			lk := resource.Link{A: host(i), B: host(j), BandwidthMbps: 100, LatencyMs: float64(1 + (i+j)%3)}
			if err := l.AddLink(lk); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < nodes; i++ {
		var nc resource.NodeClaim
		switch rng.Intn(4) {
		case 0:
			nc = resource.NodeClaim{Hostname: host(i), MemoryMB: float64(8 * (1 + rng.Intn(4)))}
		case 1:
			nc = resource.NodeClaim{Hostname: host(i), MemoryMB: 4, CPULoad: float64(1+rng.Intn(3)) / 2}
		default:
			continue
		}
		if _, err := l.Reserve("resident", []resource.NodeClaim{nc}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for host, health := range map[string]resource.NodeHealth{host(3): resource.HealthDown, host(nodes - 2): resource.HealthDraining} {
		if err := l.SetNodeHealth(host, health); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// scanTestRequests covers the shapes Match treats differently, each both where
// it fits and where it does not.
func scanTestRequests(t *testing.T) []Request {
	t.Helper()
	opt := func(body string) *rsl.OptionSpec {
		return mustBundle(t, fmt.Sprintf("harmonyBundle T:1 b {{o %s}}", body)).Option("o")
	}
	var reqs []Request
	bag := opt(`{variable n {1}} {node w * {seconds {60 / n}} {memory 24} {replicate n}}`)
	idle := opt(`{variable n {1}} {node w * {seconds 9} {memory 8} {replicate n} {exclusive 1}}`)
	comm := opt(`{variable n {1}} {node w * {os linux} {seconds 5} {memory 4} {replicate n}} {communication {3 * n ^ 2}}`)
	for _, n := range []float64{1, 2, 3, 5, 8, 13, 40} { // 40 runs out of machines
		env := rsl.MapEnv{"n": n}
		reqs = append(reqs, Request{Option: bag, Env: env}, Request{Option: idle, Env: env}, Request{Option: comm, Env: env})
	}
	reqs = append(reqs,
		// A wildcard spec and a named one that lands on the host the wildcard
		// would take or has taken.
		Request{Option: opt(`{node a * {seconds 2} {memory 30}} {node b h00 {seconds 1} {memory 30}} {link a b 5}`)},
		Request{Option: opt(`{node b h05 {seconds 1} {memory 20}} {node a * {seconds 2} {memory 20} {replicate 4}} {link a b {a.memory / 4} 2}`)},
		// Stacked named specs, with and without room.
		Request{Option: opt(`{node a h04 {seconds 1} {memory 10} {replicate 3}} {node b h04 {memory 10}} {link a b 1}`)},
		Request{Option: opt(`{node a h04 {memory 40} {replicate 9}}`)},
		// OS and hostname tags.
		Request{Option: opt(`{node a * {os aix} {seconds 1} {memory 1} {replicate 2}}`)},
		Request{Option: opt(`{node a * {os aix} {memory 1} {replicate 30}}`)},
		Request{Option: opt(`{node a * {os vms} {memory 1}}`)},
		Request{Option: opt(`{node a * {hostname h06} {seconds 1} {memory 1}}`)},
		Request{Option: opt(`{node a * {hostname nosuch} {memory 1}}`)},
		// Down and draining nodes, by name.
		Request{Option: opt(`{node a h03 {memory 1}} {node z *}`)},
		// Memory: more than any node has, and a grant ladder.
		Request{Option: opt(`{node a * {memory 4000}}`)},
		Request{Option: opt(`{node a * {memory >=16} {seconds 3} {replicate 3}}`), MemoryGrants: map[string]float64{"a": 48}},
		Request{Option: opt(`{node a * {memory >=16}}`), MemoryGrants: map[string]float64{"a": 8}},
		// Links: the two unlinked pairs, capacity, latency.
		Request{Option: opt(`{node a h01 {memory 1}} {node b h02 {memory 1}} {node z *} {link a b 1}`)},
		Request{Option: opt(`{node a * {memory 1} {replicate 2}} {node b h08 {memory 1}} {link a b 500}`)},
		Request{Option: opt(`{node a * {memory 1}} {node b h08 {memory 1}} {link a b 5 0.5}`)},
		Request{Option: opt(`{node a h00 {memory 1}} {node z * {memory 1} {replicate 15}} {communication 10}`)},
	)
	return reqs
}

// TestSharedScanMatchesBareView holds Match over a shared scan to Match on a
// bare fork that reads and orders the table itself: the identical Assignment
// (positions included) or the identical error text, for every request shape,
// on several seeded clusters. Every request is matched over one scan, one
// after another, so a charge one call leaked into the scan's columns would
// show as a difference in the next. The scan is handed the table, so it
// cannot read it again; it must order it once.
func TestSharedScanMatchesBareView(t *testing.T) {
	reqs := scanTestRequests(t)
	for seed := int64(1); seed <= 4; seed++ {
		l := scanTestLedger(t, seed, 16)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			m := New(l)
			snap := l.Snapshot()
			type outcome struct {
				asg *Assignment
				err string
			}
			want := make([]outcome, len(reqs))
			fits := 0
			for i, req := range reqs {
				asg, err := m.WithView(snap.Fork()).Match(req)
				want[i] = outcome{asg, fmt.Sprint(err)}
				if err == nil {
					fits++
				}
			}
			if fits < len(reqs)/3 || fits > len(reqs)*5/6 {
				t.Fatalf("%d of %d requests fit: the cases no longer cover both outcomes", fits, len(reqs))
			}

			var scan Scan
			scan.Reset(snap, snap.AppendNodes(nil), nil)
			check := func(i int) {
				asg, err := scan.Match(reqs[i])
				if got := fmt.Sprint(err); got != want[i].err {
					t.Errorf("request %d: scan says %s, bare view says %s", i, got, want[i].err)
				} else if !reflect.DeepEqual(asg, want[i].asg) {
					t.Errorf("request %d: assignments differ:\n scan: %+v\n bare: %+v", i, asg, want[i].asg)
				}
			}
			for i := range reqs {
				check(i)
			}
			if scan.Builds() != 1 {
				t.Errorf("the shared scan ordered the table %d times, want once", scan.Builds())
			}
		})
	}
}

// TestScanNeverBuiltForNamedOptions: an evaluation whose options all name
// their hosts never pays for the scan order.
func TestScanNeverBuiltForNamedOptions(t *testing.T) {
	l := scanTestLedger(t, 1, 16)
	snap := l.Snapshot()
	var scan Scan
	scan.Reset(snap, nil, nil)
	named := mustBundle(t, `harmonyBundle T:1 b {{o {node s h00 {seconds 1} {memory 2}} {node c h05 {seconds 4} {memory 2}} {link c s 3}}}`).Option("o")
	got, err := scan.Match(Request{Option: named})
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewWithView(snap.Fork()).Match(Request{Option: named})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("assignments differ:\n scan: %+v\n bare: %+v", got, want)
	}
	if scan.Builds() != 0 {
		t.Fatalf("the scan was ordered %d times for an option that names its hosts", scan.Builds())
	}
}

// TestPlacesCarriedOnlyForTheirTopology: the positions Match leaves in an
// assignment are used for the inventory it ran on and looked up again by name
// for any other, and both ways agree with the name map.
func TestPlacesCarriedOnlyForTheirTopology(t *testing.T) {
	l := scanTestLedger(t, 2, 12)
	opt := mustBundle(t, `harmonyBundle T:1 b {{o {node s h04 {seconds 1} {memory 2}} {node w * {seconds 4} {memory 2} {replicate 3}} {link w s 3} {communication 6}}}`).Option("o")
	// h01 and h02 are not linked; keep one of them out of the all-pairs check.
	if err := l.SetNodeHealth("h01", resource.HealthDraining); err != nil {
		t.Fatal(err)
	}
	before := l.Snapshot()
	asg, err := New(l).Match(Request{Option: opt})
	if err != nil {
		t.Fatal(err)
	}
	byName := func(snap *resource.Snapshot) []int32 {
		copied := *asg
		copied.topo = resource.Topology{}
		return copied.Places(snap, nil)
	}
	if got, want := asg.Places(before, nil), byName(before); !reflect.DeepEqual(got, want) || len(asg.comm) < 3 || len(got) != 4+1+len(asg.comm) {
		t.Fatalf("carried places %v, looked up %v", got, want)
	}
	// A node that sorts first moves every index up by one.
	if err := l.AddNode(resource.Node{Hostname: "a-first", Speed: 1, MemoryMB: 64, OS: "linux", CPUs: 1}); err != nil {
		t.Fatal(err)
	}
	after := l.Snapshot()
	got, want := asg.Places(after, nil), byName(after)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after AddNode: places %v, looked up %v", got, want)
	}
	if old := asg.Places(before, nil); got[0] != old[0]+1 {
		t.Fatalf("after AddNode the server sits at %d, before at %d: the carried index was reused", got[0], old[0])
	}
}
