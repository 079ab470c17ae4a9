package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"harmony/internal/namespace"
	"harmony/internal/replog"
	"harmony/internal/rsl"
)

// decodeBundle parses one bundle from RSL source.
func decodeBundle(t *testing.T, src string) *rsl.BundleSpec {
	t.Helper()
	bundles, _, err := rsl.DecodeScript(src)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return bundles[0]
}

// fig4ShapeRSL is the Figure 4 workload shape: every worker count up to
// nodes, with an explicit performance model whose knee sits well below the
// cluster size (so large counts are feasible but never optimal).
func fig4ShapeRSL(job, nodes int) string {
	counts, points := "", ""
	for n := 1; n <= nodes; n++ {
		if n > 1 {
			counts += " "
			points += " "
		}
		counts += fmt.Sprintf("%d", n)
		points += fmt.Sprintf("{%d %g}", n, 300.0/float64(n)+1.2*float64(n*n))
	}
	return fmt.Sprintf(`
harmonyBundle Bag%d:%d parallelism {
	{workers
		{variable workerNodes {%s}}
		{node worker * {seconds {300 / workerNodes}} {memory 32} {replicate workerNodes} {exclusive 1}}
		{performance {%s}}
	}
}`, job, job, counts, points)
}

// prunableRSL mixes what the joint search's filter must drop with what it
// must keep: an option whose memory demand exceeds any cluster this suite
// builds ("hog", which fits nowhere) beside duplicate variable values and an
// option with identical requirements but a never-faster model and a friction
// expression that fails ("respelled"), which tie or lose but whose warnings
// are still raised.
func prunableRSL(instance int) string {
	return fmt.Sprintf(`
harmonyBundle Mixed:%d plan {
	{lead
		{variable n {1 2 2 4}}
		{node worker * {memory {n * 8}} {seconds {120 / n}} {replicate n}}
		{performance {{1 40} {2 30} {4 20}}}
	}
	{respelled
		{variable n {1 2 2 4}}
		{node worker * {memory {n * 8}} {seconds {120 / n}} {replicate n}}
		{performance {{1 45} {2 30} {4 20}}}
		{friction {nosuch * 2}}
	}
	{hog
		{node worker * {memory 100000}}
		{performance {{1 10}}}
	}
}`, instance)
}

// TestNoFitQuotesLastChoice: when no choice fits, the error quotes why the
// last enumerated one does not. Here the first choice passes every per-node
// test and fails only on its link, and the last wants more memory than any
// node has; nothing is passed over before it is placed, so the error is the
// memory misfit.
func TestNoFitQuotesLastChoice(t *testing.T) {
	c, _ := newController(t, 4, Config{})
	_, _, err := c.Register(decodeBundle(t, `harmonyBundle Stuck:1 where {
	{linked {node x * {memory 8}} {node y * {memory 8}} {link x y 100000}}
	{hog {node x * {memory 100000}}}
}`))
	if !errors.Is(err, ErrNoFeasibleOption) || !strings.Contains(err.Error(), "need 100000 MB") || strings.Contains(err.Error(), "Mbps") {
		t.Fatalf("Register: %v; want ErrNoFeasibleOption quoting hog's memory misfit", err)
	}
}

// TestGrantLadderPerBinding: a memory minimum that reads a variable gets the
// grant ladder of each binding, minimum + each of rsl.GrantSteps (Section 3.5),
// in enumeration order; and every rung of every binding places, the top one
// included.
func TestGrantLadderPerBinding(t *testing.T) {
	c, _ := newController(t, 8, Config{})
	bundle := decodeBundle(t, `harmonyBundle Grow:1 parallelism {
	{workers
		{variable workerNodes {1 2 4}}
		{node worker * {seconds {60 / workerNodes}} {memory {>= 16 * workerNodes}} {replicate workerNodes}}
	}
}`)
	app := &appState{instance: 1, bundle: bundle, ownerPath: namespace.InstancePath(bundle.App, 1), lastSwitch: -1}
	bs := c.staticFor(app)
	if len(bs.choices) != 3*len(rsl.GrantSteps) {
		t.Fatalf("%d choices, want %d", len(bs.choices), 3*len(rsl.GrantSteps))
	}
	p := c.openEvaluation(app)
	for k, ch := range bs.choices {
		w := []float64{1, 2, 4}[k/len(rsl.GrantSteps)]
		if want := 16*w + rsl.GrantSteps[k%len(rsl.GrantSteps)]; ch.Vars["workerNodes"] != w || ch.Grants["worker"] != want {
			t.Fatalf("choice %d is %s, want workerNodes=%g with %g MB", k, ch, w, want)
		}
		if _, err := c.evaluateChoice(p, ch, &bs.stat[k]); err != nil {
			t.Fatalf("%s: %v", ch, err)
		}
	}
}

// TestOverCapRefused: a bundle whose choices exceed rsl.MaxChoices is refused
// by Register and by Apply, before anything is enumerated, and leaves the
// controller as it was; one exactly at the cap registers.
func TestOverCapRefused(t *testing.T) {
	c, _ := newController(t, 8, Config{})
	values := func(n int) string {
		var sb strings.Builder
		for i := 1; i <= n; i++ {
			fmt.Fprintf(&sb, "%d ", i)
		}
		return sb.String()
	}
	over := fmt.Sprintf(`harmonyBundle Big:1 b {{o {variable a {%s}} {variable b {%s}} {node n * {memory >=1} {seconds {a + b}}}}}`, values(100), values(100))
	if _, _, err := c.Register(decodeBundle(t, over)); !errors.Is(err, rsl.ErrTooManyChoices) || !strings.Contains(err.Error(), "40000") {
		t.Fatalf("Register: %v, want a refusal naming 40000 choices", err)
	}
	if _, err := c.Apply(&replog.Entry{Op: replog.OpRegister, RSL: over}); !errors.Is(err, rsl.ErrTooManyChoices) {
		t.Fatalf("Apply: %v, want rsl.ErrTooManyChoices", err)
	}
	if apps := c.Apps(); len(apps) != 0 {
		t.Fatalf("apps %+v after two refusals", apps)
	}
	at := fmt.Sprintf(`harmonyBundle Edge:1 b {{o {variable a {%s}} {node n * {memory 1} {seconds a}}}}`, values(rsl.MaxChoices))
	inst, _, err := c.Register(decodeBundle(t, at))
	if err != nil || inst != 1 {
		t.Fatalf("Register at the cap: %d, %v; want instance 1", inst, err)
	}
}
