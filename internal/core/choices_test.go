package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"harmony/internal/namespace"
	"harmony/internal/replog"
	"harmony/internal/rsl"
	"harmony/internal/vet"
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
	app := &appState{instance: 1, bundle: bundle, an: vet.NewBundle(bundle), ownerPath: namespace.InstancePath(bundle.App, 1), lastSwitch: -1}
	an := app.an
	if len(an.Choices) != 3*len(rsl.GrantSteps) {
		t.Fatalf("%d choices, want %d", len(an.Choices), 3*len(rsl.GrantSteps))
	}
	p := c.openEvaluation(app)
	for k, ch := range an.Choices {
		w := []float64{1, 2, 4}[k/len(rsl.GrantSteps)]
		if want := 16*w + rsl.GrantSteps[k%len(rsl.GrantSteps)]; ch.Vars["workerNodes"] != w || ch.Grants["worker"] != want {
			t.Fatalf("choice %d is %s, want workerNodes=%g with %g MB", k, ch, w, want)
		}
		if _, err := c.evaluateChoice(p, ch, an.Plans[k]); err != nil {
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

// dupChurnRSL has a duplicate value in its variable's domain, so two of its
// enumerated choices Equal each other, and a friction that grows with n.
const dupChurnRSL = `harmonyBundle Dup:1 b {
	{w {variable n {2 2 4}} {node x * {seconds {40 / n}} {memory 16} {replicate n} {exclusive 1}} {friction {n}}}
	{one {node x * {seconds 30} {memory 16}} {friction 2}}
}`

// churnBag is an exclusive bag that competes with Dup for nodes.
func churnBag(i int) string {
	return fmt.Sprintf(`harmonyBundle Bag%d:%d p {
	{w {variable m {1 2 4}} {node y * {seconds {%d / m}} {memory 16} {replicate m} {exclusive 1}} {friction 3}}
}`, i, i, 50+10*i)
}

// TestFrictionReadByIndex: the searches read whether a choice switches from
// the app's sameness vector, by enumeration index, instead of comparing
// choices. Dup's domain holds 2 twice, so two of its choices are its current
// one at once. Through arrivals that take the joint search, departures,
// re-evaluations, forced choices and a restore into a fresh controller, the
// decisions must be those the comparison made (want was recorded with it),
// and after every step each app's vector must say exactly which of its
// enumerated choices Equal its choice: adopt, ForceChoice and Restore each
// rebuild it.
func TestFrictionReadByIndex(t *testing.T) {
	const want = `register Dup: 1=w n=4(initial) | Dup w n=4 x0
register Bag1: 2=w m=4(initial) | Dup w n=4 x0 Bag1 w m=4 x0
register Bag2: 1=w n=2 3=w m=2(initial) | Dup w n=2 x1 Bag1 w m=4 x0 Bag2 w m=2 x1
reevaluate: | Dup w n=2 x1 Bag1 w m=4 x0 Bag2 w m=2 x1
unregister 2: 1=w n=4 3=w m=4 | Dup w n=4 x2 Bag2 w m=4 x2
force w n=2: 1=w n=2 | Dup w n=2 x3 Bag2 w m=4 x2
reevaluate: 1=w n=4 | Dup w n=4 x4 Bag2 w m=4 x2
register Bag3: 1=w n=2 4=w m=2(initial) | Dup w n=2 x5 Bag2 w m=4 x2 Bag3 w m=2 x1
restore: | Dup w n=2 x5 Bag2 w m=4 x2 Bag3 w m=2 x1
force one: 1=one | Dup one x6 Bag2 w m=4 x2 Bag3 w m=2 x1
reevaluate: 1=w n=2 | Dup w n=2 x7 Bag2 w m=4 x2 Bag3 w m=2 x1
unregister 3: 1=w n=4 4=w m=4 | Dup w n=4 x8 Bag3 w m=4 x2
unregister 4: | Dup w n=4 x8
reevaluate: | Dup w n=4 x8
force w n=2: 1=w n=2 | Dup w n=2 x9
register Bag4: 5=w m=4(initial) 1=w n=4 | Dup w n=4 x10 Bag4 w m=4 x0
reevaluate: | Dup w n=4 x10 Bag4 w m=4 x0
`
	c, clock := newController(t, 8, Config{})
	var got strings.Builder
	twins := 0
	// record writes a step's events and every app's choice and switch count
	// after it, and holds every app's vector to Equal.
	record := func(step string, events []Event, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		fmt.Fprintf(&got, "%s:", step)
		for _, ev := range events {
			fmt.Fprintf(&got, " %d=%s", ev.Instance, ev.Choice)
			if ev.Initial {
				got.WriteString("(initial)")
			}
		}
		got.WriteString(" |")
		for _, a := range c.Apps() {
			fmt.Fprintf(&got, " %s %s x%d", a.App, a.Choice, a.Switches)
		}
		got.WriteString("\n")
		for _, id := range c.order {
			app := c.apps[id]
			same := 0
			for k, ch := range app.an.Choices {
				if app.isCurrent(k) != ch.Equal(app.choice) {
					t.Fatalf("%s: %s: isCurrent(%d) is %v for %s, whose choice is %s", step, app.owner(), k, app.isCurrent(k), ch, app.choice)
				}
				if app.isCurrent(k) {
					same++
				}
			}
			if same > 1 {
				twins++
			}
		}
	}
	register := func(src string) int {
		t.Helper()
		// registerAt keeps the source, which EncodeState needs.
		inst, events, err := c.registerAt(vet.NewBundle(decodeBundle(t, src)), src, clock.Now())
		record("register "+src[len("harmonyBundle "):strings.Index(src, ":")], events, err)
		return inst
	}
	unregister := func(inst int) {
		t.Helper()
		events, err := c.Unregister(inst)
		record(fmt.Sprintf("unregister %d", inst), events, err)
	}
	force := func(inst int, ch Choice) {
		t.Helper()
		ev, err := c.ForceChoice(inst, ch)
		var events []Event
		if ev != nil {
			events = []Event{*ev}
		}
		record("force "+ch.String(), events, err)
	}
	reevaluate := func() {
		t.Helper()
		clock.AdvanceTo(clock.Now() + time.Hour)
		record("reevaluate", c.Reevaluate(), nil)
	}
	twoWorkers := Choice{Option: "w", Vars: map[string]float64{"n": 2}}

	dup := register(dupChurnRSL)
	bag1, bag2 := register(churnBag(1)), register(churnBag(2))
	reevaluate()
	unregister(bag1)
	force(dup, twoWorkers)
	reevaluate()
	bag3 := register(churnBag(3))

	data, err := c.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	st, err := DecodeState(data)
	if err != nil {
		t.Fatal(err)
	}
	restored, rclock := newController(t, 8, Config{})
	rclock.AdvanceTo(clock.Now())
	if err := restored.Restore(st); err != nil {
		t.Fatal(err)
	}
	c, clock = restored, rclock
	record("restore", nil, nil)

	force(dup, Choice{Option: "one"})
	reevaluate()
	unregister(bag2)
	unregister(bag3)
	reevaluate()
	force(dup, twoWorkers)
	register(churnBag(4))
	reevaluate()

	if got.String() != want {
		t.Fatalf("the churn went\n%s\nwhere comparing choices went\n%s", got.String(), want)
	}
	if twins == 0 {
		t.Fatal("Dup never held a choice its domain lists twice")
	}
}
