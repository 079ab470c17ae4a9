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

// mayFitCase builds, from a fuzz input, a small cluster (fuzzCluster) and one
// option over it of one or two fuzzSpecs.
func mayFitCase(t *testing.T, in fuzzBytes) (*resource.Ledger, Request) {
	l, nodes := fuzzCluster(t, &in)
	specs := fuzzSpecs(&in, nodes)
	return l, Request{Option: fuzzOption(t, "o", specs, "")}
}

// fuzzHost names the generated cluster's node i.
func fuzzHost(i int) string { return fmt.Sprintf("h%02d", i) }

// fuzzCluster builds, from a fuzz input, a small cluster — up, draining and
// down nodes, two operating systems, partly loaded and partly filled — and
// returns it with its node count.
func fuzzCluster(t *testing.T, in *fuzzBytes) (*resource.Ledger, int) {
	l := resource.NewLedger()
	nodes := 1 + in.next(7)
	health := make([]resource.NodeHealth, nodes)
	for i := 0; i < nodes; i++ {
		n := resource.Node{Hostname: fuzzHost(i), Speed: 1, MemoryMB: float64(16 * (1 + in.next(4))), OS: "linux", CPUs: 1}
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
			nc = resource.NodeClaim{Hostname: fuzzHost(i), MemoryMB: float64(4 * (1 + in.next(4)))}
		case 1:
			nc = resource.NodeClaim{Hostname: fuzzHost(i), MemoryMB: 4, CPULoad: float64(1+in.next(3)) / 2}
		default:
			continue
		}
		if _, err := l.Reserve("resident", []resource.NodeClaim{nc}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i, h := range health {
		if err := l.SetNodeHealth(fuzzHost(i), h); err != nil {
			t.Fatal(err)
		}
	}
	return l, nodes
}

// fuzzSpec is one node spec of a generated option.
type fuzzSpec struct {
	pattern                   string // a wildcard, a registered host or an unregistered one
	seconds, memory, replicas int
	os, hostname              string // "" when the tag is absent
	exclusive                 bool
	// respell writes the spec as the matcher reads it alike: a replica
	// count it rounds to the same, a memory minimum it grants exactly, a
	// product by one and a tag it does not read.
	respell bool
}

// fuzzSpecs draws one to two node specs over a cluster of nodes hosts.
func fuzzSpecs(in *fuzzBytes, nodes int) []fuzzSpec {
	specs := make([]fuzzSpec, 1+in.next(2))
	for k := range specs {
		sp := &specs[k]
		sp.pattern = "*"
		if r := in.next(nodes + 3); r < nodes {
			sp.pattern = fuzzHost(r)
		} else if r == nodes {
			sp.pattern = "hzz"
		}
		sp.seconds, sp.memory, sp.replicas = 1+in.next(5), 4*in.next(5), 1+in.next(3)
		if os := in.next(6); os < 2 {
			sp.os = []string{"linux", "aix"}[os]
		}
		if in.next(6) == 0 {
			sp.hostname = fuzzHost(in.next(nodes))
		}
		sp.exclusive = in.next(4) == 0
	}
	return specs
}

// fuzzOption decodes an option called name of the specs, named s0, s1, ...,
// with more appended to its body.
func fuzzOption(t *testing.T, name string, specs []fuzzSpec, more string) *rsl.OptionSpec {
	var b strings.Builder
	for k, sp := range specs {
		format := "{node s%d %s {seconds %d} {memory %d} {replicate %d}"
		if sp.respell {
			format = "{node s%d %s {seconds {%d * 1}} {memory >=%d} {replicate {%d + 0.4}} {arch any}"
		}
		fmt.Fprintf(&b, format, k, sp.pattern, sp.seconds, sp.memory, sp.replicas)
		if sp.os != "" {
			fmt.Fprintf(&b, " {os %s}", sp.os)
		}
		if sp.hostname != "" {
			fmt.Fprintf(&b, " {hostname %s}", sp.hostname)
		}
		if sp.exclusive {
			b.WriteString(" {exclusive 1}")
		}
		b.WriteString("} ")
	}
	return mustBundle(t, fmt.Sprintf("harmonyBundle T:1 b {{%s %s%s}}", name, b.String(), more)).Option(name)
}

// FuzzMayFit: a plan MayFit turns away does not place, on the scan's state or
// on that state charged further with another placement — the proof the joint
// search's choice filter and feasibility cut rest on.
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
		var cols resource.Columns
		snap.ReadColumns(&cols)
		var scan Scan
		scan.Reset(snap, rows, &cols)
		if scan.MayFit(p) {
			return
		}
		if scan.Place(p, &asg) {
			t.Fatalf("MayFit turned away %s, which places on %v", req.Option.Name, asg.Nodes)
		}
		if !scan.Place(other, &asg) {
			return
		}
		if err := ReserveColumns(&cols, snap, "other", &asg, nil, new(Charges)); err != nil {
			return
		}
		scan.Reset(snap, rows, &cols)
		if scan.Place(p, &asg) {
			t.Fatalf("%s places on %v once the state is charged further, not before", req.Option.Name, asg.Nodes)
		}
	})
}
