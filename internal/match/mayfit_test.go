package match

import (
	"fmt"
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

// MayFitCase builds, from a fuzz input, FuzzMayFit's case: a small cluster
// (fuzzCluster) and one option over it of one or two fuzzSpecs, whose seconds
// and memory may be spelled with an exponent or a division — one that
// overflows, divides by zero, or is finite but over half a speed's worth of
// the largest float. It returns the option's script too, and a declared speed
// for each of the cluster's nodes, 1 or 0.5, for vet and the model. It is
// exported for FuzzMayFit, which lives in package match_test to reach them.
func MayFitCase(t *testing.T, data []byte) (l *resource.Ledger, req Request, src string, speeds []float64) {
	in := fuzzBytes(data)
	l, nodes := fuzzCluster(t, &in)
	specs := fuzzSpecs(&in, nodes)
	for k := range specs {
		specs[k].form = in.next(len(fuzzForms))
	}
	for i := 0; i < nodes; i++ {
		speeds = append(speeds, []float64{1, 0.5}[in.next(2)])
	}
	src = fuzzScript("o", specs, "")
	return l, Request{Option: mustBundle(t, src).Option("o")}, src, speeds
}

// fuzzForms spell a spec's seconds s and memory m: as written, or with an
// exponent or a division. 2^1023 is finite, and overflows over a speed of 0.5
// or stacked on one node.
var fuzzForms = []struct{ seconds, memory string }{
	{"%d", "%d"},
	{"{%d ^ 2}", "{%d / 2}"},
	{"{%d ^ 441}", "%d"},
	{"{%d / 0}", "{%d / 0}"},
	{"{%d + 2 ^ 1023}", "%d"},
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
	// form, when not 0, spells seconds and memory as fuzzForms[form] does.
	form int
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
	return mustBundle(t, fuzzScript(name, specs, more)).Option(name)
}

// fuzzScript writes the bundle fuzzOption decodes.
func fuzzScript(name string, specs []fuzzSpec, more string) string {
	var b strings.Builder
	for k, sp := range specs {
		format := "{node s%d %s {seconds %d} {memory %d} {replicate %d}"
		switch {
		case sp.form != 0:
			form := fuzzForms[sp.form]
			format = "{node s%d %s {seconds " + form.seconds + "} {memory " + form.memory + "} {replicate %d}"
		case sp.respell:
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
	return fmt.Sprintf("harmonyBundle T:1 b {{%s %s%s}}", name, b.String(), more)
}
