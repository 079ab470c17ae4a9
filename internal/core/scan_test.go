package core

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"harmony/internal/cluster"
	"harmony/internal/match"
	"harmony/internal/objective"
	"harmony/internal/predict"
	"harmony/internal/replog"
	"harmony/internal/rsl"
	"harmony/internal/simclock"
)

// evaluateChoiceByFork is the reference evaluateChoice is held to: it shares
// nothing and carries nothing over. It captures the ledger and releases the
// app's claim in the capture itself; the candidate is matched on a bare fork
// of that base (which reads and orders the node table itself), reserved in the
// fork through the view interface, and every other application — overlapping
// the candidate or not — is resolved afresh and predicted against the base and
// then against the fork.
func evaluateChoiceByFork(c *Controller, app *appState, ch Choice) (candidate, error) {
	opt := app.bundle.Option(ch.Option)
	if opt == nil {
		return candidate{}, fmt.Errorf("core: option %q not in bundle", ch.Option)
	}
	base := c.ledger.Snapshot()
	if app.claim != nil {
		if err := base.Release(app.claim.ID); err != nil {
			return candidate{}, err
		}
	}
	fork := base.Fork()
	matcher := match.NewWithView(fork)
	env := rsl.MapEnv(ch.Vars)
	asg, err := matcher.Match(match.Request{Option: opt, Env: env, MemoryGrants: ch.Grants})
	if err != nil {
		return candidate{}, err
	}
	if _, err := matcher.Reserve(app.owner(), asg); err != nil {
		return candidate{}, err
	}
	in := predict.Indexed{View: fork}
	pred, err := c.predictIndexed(in, opt, predict.Resolve(fork, asg))
	if err != nil {
		return candidate{}, err
	}
	var jobs []objective.JobPrediction
	for _, id := range c.order {
		other := c.apps[id]
		if other == app || other.assignment == nil {
			continue
		}
		opt := other.bundle.Option(other.choice.Option)
		if _, err := c.predictIndexed(predict.Indexed{View: base}, opt, predict.Resolve(base, other.assignment)); err != nil {
			return candidate{}, err
		}
		p, err := c.predictIndexed(in, opt, predict.Resolve(fork, other.assignment))
		if err != nil {
			return candidate{}, err
		}
		jobs = append(jobs, objective.JobPrediction{App: other.owner(), Seconds: p.Seconds})
	}
	jobs = append(jobs, objective.JobPrediction{App: app.owner(), Seconds: pred.Seconds})
	cand := candidate{choice: ch, assignment: asg, objective: c.cfg.Objective(jobs), predicted: pred.Seconds}
	if opt.Friction != nil {
		f, ferr := opt.Friction.Eval(rsl.ChainEnv{asg.MemoryEnv(), env})
		switch {
		case ferr != nil:
			cand.frictionWarn = fmt.Sprintf("core: %s option %s: friction evaluation failed: %v", app.bundle.App, opt.Name, ferr)
		case f > 0:
			cand.friction = f
		}
	}
	return cand, nil
}

// scanFrictionRSL is a two-option bundle with a wildcard spec, a link to a
// named server and a friction cost that reads granted memory.
func scanFrictionRSL(i int) string {
	return fmt.Sprintf(`
harmonyBundle Fric%d:%d where {
	{near
		{node server sp2-02 {seconds 2} {memory 8}}
		{node client * {os linux} {seconds 6} {memory >=12}}
		{link client server {client.memory / 2}}
		{friction {client.memory / 8}}
	}
	{far
		{node client * {seconds 9} {memory 4} {replicate 2}}
		{communication 40}
	}
}`, i, i)
}

// TestScanNeverOutlivesItsBase drives two controllers through one script in
// which the base of the pass state — columns, scan, residents and what-if
// table — changes in every way it can between two evaluations: an adoption
// (every Register re-evaluates the residents after adopting the arrival, and a
// pass adopts between one resident's evaluation and the next), a node going
// down and coming back, a node whose hostname sorts before every other being
// added (each index moves up by one and the link table grows), a round trip
// through EncodeState and Restore (whose assignments carry no positions), and
// a joint search, which releases every claim into the pass's columns. Two
// clients share a host and its link to the server, so a candidate of one
// lands on the entries the other reads. One controller keeps its pass state
// from step to step, as it runs in production; the other has it — node table,
// columns, scan, table, buffers and all — thrown away before every step. After
// every step their states must be byte-identical, and the kept pass's undo log
// must hold nothing beyond the open evaluation's release. Then, on the
// controller that keeps its pass, every choice of every resident is evaluated
// both ways:
// over the pass state, and by evaluateChoiceByFork, which rebuilds everything
// for each candidate; in one step a resident is forced to another choice
// halfway through, an adoption in the middle of the pass. The two must agree
// on the assignment (carried positions included), bit for bit on the
// prediction and the objective, and word for word on the error of a candidate
// that does not fit.
func TestScanNeverOutlivesItsBase(t *testing.T) {
	// The subtest is named for the placement order the scan is checked under.
	t.Run("first-fit", testScanNeverOutlivesItsBase)
}

func testScanNeverOutlivesItsBase(t *testing.T) {
	newCtrl := func() (*Controller, *cluster.Cluster) {
		cl, err := cluster.NewSP2(12)
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := New(Config{Cluster: cl, Clock: simclock.New()})
		if err != nil {
			t.Fatal(err)
		}
		return ctrl, cl
	}
	kept, keptCluster := newCtrl()
	wiped, wipedCluster := newCtrl()

	index := uint64(0)
	now := time.Duration(0)
	entry := func(e replog.Entry) func(*Controller) error {
		index++
		now += 90 * time.Second // past every granularity gate
		e.Index, e.Term, e.Time = index, 1, now
		return func(c *Controller) error {
			e := e
			_, err := c.Apply(&e)
			return err
		}
	}
	register := func(src string) func(*Controller) error {
		return entry(replog.Entry{Op: replog.OpRegister, RSL: src})
	}
	nodeState := func(host, state string) func(*Controller) error {
		return entry(replog.Entry{Op: replog.OpNodeState, Hostname: host, State: state})
	}
	pass := func() func(*Controller) error { return entry(replog.Entry{Op: replog.OpReevaluate}) }
	joint := func() func(*Controller) error {
		now += 90 * time.Second
		at := now
		return func(c *Controller) error {
			c.reevaluateExhaustive(at, 0, false)
			return nil
		}
	}
	addNode := func(c *Controller) error {
		cl := keptCluster
		if c == wiped {
			cl = wipedCluster
		}
		return cl.AddNode(&rsl.NodeDecl{Hostname: "a-first", Speed: 2, MemoryMB: 128, OS: "linux", CPUs: 1})
	}
	roundTrip := func(c *Controller) error {
		data, err := c.EncodeState()
		if err != nil {
			return err
		}
		st, err := DecodeState(data)
		if err != nil {
			return err
		}
		return c.Restore(st)
	}

	// forceMidPass stamps, in script order, an entry that forces instance to
	// another choice; which one is decided when it is applied.
	forceMidPass := func(instance int) *replog.Entry {
		index++
		now += 90 * time.Second
		return &replog.Entry{Index: index, Term: 1, Time: now, Op: replog.OpForceChoice, Instance: instance}
	}

	steps := []struct {
		name string
		do   func(*Controller) error
		// midPass, when set, forces a resident to another choice halfway
		// through the evaluations that follow the step.
		midPass *replog.Entry
	}{
		{"register a communicating bag", register(goldenCommRSL(1, 60)), nil},
		{"register a second", register(goldenCommRSL(2, 45)), nil},
		{"register a client with a wildcard host", register(goldenDBRSL(3)), nil},
		{"register a memory-only cache", register(goldenCacheRSL(4)), nil},
		{"register a bag with friction", register(scanFrictionRSL(5)), nil},
		{"register a client on a shared host", register(goldenShareRSL(8, "sp2-06", true)), nil},
		{"register a second client there", register(goldenShareRSL(9, "sp2-06", false)), nil},
		{"a joint search over every resident", joint(), nil},
		{"pass", pass(), forceMidPass(6)},
		{"a bag's host goes down", nodeState("sp2-03", "down"), nil},
		{"pass on the smaller machine", pass(), nil},
		{"add a node that sorts first", addNode, nil},
		{"pass over moved indices", pass(), nil},
		{"register on the grown machine", register(goldenCommRSL(6, 80)), nil},
		{"the host comes back", nodeState("sp2-03", "up"), nil},
		{"the named server drains", nodeState("sp2-01", "drain"), nil},
		{"pass", pass(), nil},
		{"encode, decode, restore", roundTrip, nil},
		{"pass after restore", pass(), nil},
		{"a joint search after restore", joint(), nil},
		{"the server is back", nodeState("sp2-01", "up"), nil},
		{"unregister the first bag", entry(replog.Entry{Op: replog.OpUnregister, Instance: 1}), nil},
		{"register one more", register(goldenCommRSL(7, 30)), nil},
		{"force a resident wide", entry(replog.Entry{Op: replog.OpForceChoice, Instance: 2,
			Choice: &replog.Choice{Option: "workers", Vars: map[string]float64{"workerNodes": 8}}}), nil},
		{"pass", pass(), nil},
	}
	// onlyOpenRelease fails unless the pass's undo log holds nothing but the
	// open evaluation's release: every charge was taken back, and so were the
	// joint search's releases.
	onlyOpenRelease := func(at string) {
		t.Helper()
		want := 0
		if kept.pass.app != nil {
			want = kept.pass.released
		}
		if got := kept.pass.undo.Mark(); got != want {
			t.Fatalf("%s: the pass's undo log holds %d entries, want %d", at, got, want)
		}
	}
	candidates, misfits, forced := 0, 0, 0
	for _, step := range steps {
		wiped.pass = passState{}
		errKept, errWiped := step.do(kept), step.do(wiped)
		if fmt.Sprint(errKept) != fmt.Sprint(errWiped) {
			t.Fatalf("%s: errors differ: %v / %v", step.name, errKept, errWiped)
		}
		onlyOpenRelease(step.name)
		a, err := kept.EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		b, err := wiped.EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: the controller that kept its pass state decided differently", step.name)
		}

		order := slices.Clone(kept.order)
		for n, id := range order {
			if step.midPass != nil && n == len(order)/2 {
				e := *step.midPass
				e.Choice = &replog.Choice{Option: "QS"}
				if cur, _ := kept.CurrentChoice(e.Instance); cur.Option == "QS" {
					e.Choice = &replog.Choice{Option: "DS", Grants: map[string]float64{"client": 25}}
				}
				e2 := e
				res, err := kept.Apply(&e)
				if err != nil || len(res.Events) != 1 {
					t.Fatalf("%s: forcing %d mid-pass: %v, %+v", step.name, e.Instance, err, res)
				}
				if _, err := wiped.Apply(&e2); err != nil {
					t.Fatal(err)
				}
				forced++
			}
			app := kept.apps[id]
			an := app.an
			p := kept.openEvaluation(app)
			for k, ch := range an.Choices {
				got, gotErr := kept.evaluateChoice(p, ch, an.Plans[k])
				onlyOpenRelease(fmt.Sprintf("%s: %s %s", step.name, app.owner(), ch))
				want, wantErr := evaluateChoiceByFork(kept, app, ch)
				candidates++
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: %s %s: shared says %v, rebuilt says %v", step.name, app.owner(), ch, gotErr, wantErr)
				}
				if gotErr != nil {
					misfits++
					continue
				}
				if !reflect.DeepEqual(got.assignment.Clone(), want.assignment.Clone()) {
					t.Fatalf("%s: %s %s: assignments differ:\n shared:  %+v\n rebuilt: %+v", step.name, app.owner(), ch, got.assignment, want.assignment)
				}
				if math.Float64bits(got.predicted) != math.Float64bits(want.predicted) ||
					math.Float64bits(got.objective) != math.Float64bits(want.objective) ||
					got.friction != want.friction || got.frictionWarn != want.frictionWarn {
					t.Fatalf("%s: %s %s: shared %+v, rebuilt %+v", step.name, app.owner(), ch, got, want)
				}
			}
		}
	}
	if n := len(kept.Apps()); n != 8 || forced != 1 {
		t.Fatalf("%d residents at the end, want 8; %d forced mid-pass, want 1", n, forced)
	}
	if candidates < 500 || misfits == 0 || misfits > candidates/2 {
		t.Fatalf("%d candidates compared, %d of them misfits: the script no longer covers both outcomes", candidates, misfits)
	}
}

// TestOneScanPerEvaluation counts how often the scan order is worked out: at
// most once per evaluation whatever the number of candidates — once for every
// evaluation of a wide-greedy cycle, whose candidates are all wildcards, and
// never on db-crowd, whose options name their hosts.
func TestOneScanPerEvaluation(t *testing.T) {
	counts := func(c *Controller) (evaluations, scans uint64) {
		return c.evaluations, uint64(c.pass.scan.Builds())
	}
	cycle := func(c *Controller, arrival *rsl.BundleSpec) {
		t.Helper()
		inst, _, err := c.Register(arrival)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Unregister(inst); err != nil {
			t.Fatal(err)
		}
	}

	wide, _ := newController(t, 256, Config{})
	for job := 1; job <= 8; job++ {
		if _, _, err := wide.Register(decodeBundle(t, wideBagRSL(fmt.Sprintf("Bag%d", job), job, 300))); err != nil {
			t.Fatal(err)
		}
	}
	c0, s0 := counts(wide)
	arrival := decodeBundle(t, wideBagRSL("Job", 9, 310))
	cycle(wide, arrival)
	c1, s1 := counts(wide)
	// The arrival and 8 residents on Register, 8 residents on Unregister; each
	// has the arrival's enumeration, and an evaluation tries all of it.
	evaluations := c1 - c0
	candidates := evaluations * uint64(arrival.ChoiceCount())
	if evaluations != 17 || s1-s0 != evaluations || candidates < 500 {
		t.Errorf("wide-greedy cycle: %d evaluations ordered the table %d times for %d candidates; want 17, 17 and over 500",
			evaluations, s1-s0, candidates)
	}

	crowd := crowdController(t, 16, Config{})
	c0, _ = counts(crowd)
	cycle(crowd, decodeBundle(t, crowdRSL(17, 17)))
	c1, s1 = counts(crowd)
	if evaluations := c1 - c0; evaluations != 33 || s1 != 0 {
		t.Errorf("db-crowd cycle: %d evaluations ordered the table %d times; want 33 and 0", evaluations, s1)
	}
}

// TestSearchNeverForks reads the package's source: nothing in it forks a
// snapshot — neither search does, a greedy candidate and a joint trial being
// charged to columns — an assignment is reserved through a view only by
// adoption, a node table is read out of a snapshot only where a search's
// base is built, once per base, since neither function loops over it, and a
// bundle's requests are resolved where its analysis is made (vet.NewBundle,
// one plan per choice, when the app is made) and a forced choice in one place
// (match.ChoicePlan), never by match.NewPlan here and never matched from
// scratch (Match). Nor does anything in it start a goroutine: evaluation is
// one serial loop.
func TestSearchNeverForks(t *testing.T) {
	allowed := map[string]map[string]bool{
		"Fork":        {},
		"Match":       {},
		"Reserve":     {"adopt": true, "reevaluateExhaustive": true},
		"AppendNodes": {"openPass": true, "jointProblem": true},
		"NewPlan":     {},
		"NewBundle":   {"Register": true, "Apply": true, "Restore": true},
		"ChoicePlan":  {"forceChoiceAt": true},
	}
	seen := map[string]int{}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if g, ok := n.(*ast.GoStmt); ok {
						t.Errorf("%s: %s starts a goroutine", fset.Position(g.Pos()), fn.Name.Name)
					}
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok || allowed[sel.Sel.Name] == nil {
						return true
					}
					seen[sel.Sel.Name]++
					if !allowed[sel.Sel.Name][fn.Name.Name] {
						t.Errorf("%s: %s calls %s", fset.Position(call.Pos()), fn.Name.Name, sel.Sel.Name)
					}
					return true
				})
			}
		}
	}
	for name, callers := range allowed {
		if len(callers) > 0 && seen[name] == 0 {
			t.Errorf("no call of %s found: the test no longer reads what it thinks it reads", name)
		}
	}
}
