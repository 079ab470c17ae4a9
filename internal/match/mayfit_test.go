package match

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"harmony/internal/resource"
	"harmony/internal/rsl"
)

// fuzzBytes hands out a fuzz input one decision at a time: each call takes a
// byte, reduced below n, and 0 once the input runs out.
type fuzzBytes []byte

func (b *fuzzBytes) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// mayFitCase builds, from a fuzz input, a small cluster — up, draining and
// down nodes, two operating systems, partly loaded and partly filled — and
// one option over it: one to three specs, each a wildcard, a registered host
// or an unregistered one, with OS and hostname tags, memory, replicas and
// exclusivity drawn from the input.
func mayFitCase(t *testing.T, in fuzzBytes) (*resource.Ledger, Request) {
	l := resource.NewLedger()
	host := func(i int) string { return fmt.Sprintf("h%02d", i) }
	nodes := 1 + in.next(7)
	health := make([]resource.NodeHealth, nodes)
	for i := 0; i < nodes; i++ {
		n := resource.Node{Hostname: host(i), Speed: 1, MemoryMB: float64(16 * (1 + in.next(4))), OS: "linux", CPUs: 1}
		if in.next(4) == 0 {
			n.OS = "aix"
		}
		if err := l.AddNode(n); err != nil {
			t.Fatal(err)
		}
		health[i] = resource.HealthUp
		switch in.next(8) {
		case 0:
			health[i] = resource.HealthDown
		case 1:
			health[i] = resource.HealthDraining
		}
	}
	for i := 0; i < nodes; i++ {
		var nc resource.NodeClaim
		switch in.next(3) {
		case 0:
			nc = resource.NodeClaim{Hostname: host(i), MemoryMB: float64(4 * (1 + in.next(4)))}
		case 1:
			nc = resource.NodeClaim{Hostname: host(i), MemoryMB: 4, CPULoad: float64(1+in.next(3)) / 2}
		default:
			continue
		}
		if _, err := l.Reserve("resident", []resource.NodeClaim{nc}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i, h := range health {
		if err := l.SetNodeHealth(host(i), h); err != nil {
			t.Fatal(err)
		}
	}

	var specs strings.Builder
	for k, n := 0, 1+in.next(2); k < n; k++ {
		pattern := "*"
		if r := in.next(nodes + 3); r < nodes {
			pattern = host(r)
		} else if r == nodes {
			pattern = "hzz"
		}
		fmt.Fprintf(&specs, "{node s%d %s {seconds %d} {memory %d} {replicate %d}", k, pattern, 1+in.next(5), 4*in.next(5), 1+in.next(3))
		if os := in.next(6); os < 2 {
			fmt.Fprintf(&specs, " {os %s}", []string{"linux", "aix"}[os])
		}
		if in.next(6) == 0 {
			fmt.Fprintf(&specs, " {hostname %s}", host(in.next(nodes)))
		}
		if in.next(4) == 0 {
			specs.WriteString(" {exclusive 1}")
		}
		specs.WriteString("} ")
	}
	opt := mustBundle(t, fmt.Sprintf("harmonyBundle T:1 b {{o %s}}", specs.String())).Option("o")
	return l, Request{Option: opt}
}

// FuzzMayFit: a plan MayFit turns away does not place, on the scan's state or
// on that state charged further with another placement — the proof the joint
// search's choice filter and feasibility cut rest on. It runs over scans
// with and without columns.
func FuzzMayFit(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 256; i++ {
		in := make([]byte, 48)
		rng.Read(in)
		f.Add(in)
	}
	// Another application's replica, charged to the state as a deeper
	// joint-search level sees it.
	others, _, err := rsl.DecodeScript("harmonyBundle U:1 b {{o {node r * {seconds 1} {memory 4}}}}")
	if err != nil {
		f.Fatal(err)
	}
	other := NewPlan(Request{Option: others[0].Option("o")})
	f.Fuzz(func(t *testing.T, data []byte) {
		l, req := mayFitCase(t, fuzzBytes(data))
		snap := l.Snapshot()
		rows := snap.AppendNodes(nil)
		p := NewPlan(req)
		var asg Assignment

		var bare Scan
		bare.Reset(snap, rows, nil)
		if !bare.MayFit(p) && bare.Place(p, &asg) {
			t.Fatalf("MayFit turned away %s, which places on %v", req.Option.Name, asg.Nodes)
		}

		var cols resource.Columns
		snap.ReadColumns(&cols)
		var scan Scan
		scan.Reset(snap, rows, &cols)
		if scan.MayFit(p) {
			return
		}
		if scan.Place(p, &asg) {
			t.Fatalf("MayFit over columns turned away %s, which places on %v", req.Option.Name, asg.Nodes)
		}
		if !scan.Place(other, &asg) {
			return
		}
		if err := ReserveColumns(&cols, snap, "other", &asg, nil); err != nil {
			return
		}
		scan.Reset(snap, rows, &cols)
		if scan.Place(p, &asg) {
			t.Fatalf("%s places on %v once the state is charged further, not before", req.Option.Name, asg.Nodes)
		}
	})
}
