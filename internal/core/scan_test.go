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
// nothing and carries nothing over. The candidate is matched on a bare fork
// of the base (which reads and orders the node table itself), reserved in the
// fork through the view interface, and every application — overlapping the
// candidate or not — is resolved afresh and predicted against the base and
// then by walking the fork's overlay chain.
func evaluateChoiceByFork(c *Controller, ctx *evalContext, ch Choice) (candidate, error) {
	app := ctx.app
	opt := app.bundle.Option(ch.Option)
	if opt == nil {
		return candidate{}, fmt.Errorf("core: option %q not in bundle", ch.Option)
	}
	fork := ctx.base.Fork()
	matcher := c.matcher.WithView(fork)
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
	for i := range ctx.others {
		o := &ctx.others[i]
		asg := o.placed.pl.Assignment()
		if _, err := c.predictIndexed(predict.Indexed{View: ctx.base}, o.opt, predict.Resolve(ctx.base, asg)); err != nil {
			return candidate{}, err
		}
		p, err := c.predictIndexed(in, o.opt, predict.Resolve(fork, asg))
		if err != nil {
			return candidate{}, err
		}
		jobs = append(jobs, objective.JobPrediction{App: o.owner, Seconds: p.Seconds})
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
// which the base of the shared scan and columns changes in every way it can
// between two evaluations: an adoption (every Register re-evaluates the
// residents after adopting the arrival, and a pass adopts between one
// resident's evaluation and the next), a node going down and coming back, a
// node whose hostname sorts before every other being added (each index moves
// up by one and the link table grows), and a round trip through EncodeState
// and Restore (whose assignments carry no positions). One controller keeps
// its evaluation context from step to step, as it runs in production; the
// other has the context — node table, columns, scan, buffers and all — thrown
// away before every step. After every step their states must be
// byte-identical. Then, on the controller that keeps its context, every choice
// of every resident is evaluated both ways against one context: over the
// shared scan and trial state, and by evaluateChoiceByFork, which rebuilds
// everything for each candidate. The two must agree on the assignment (carried
// positions included), bit for bit on the prediction and the objective, and
// word for word on the error of a candidate that does not fit.
func TestScanNeverOutlivesItsBase(t *testing.T) {
	for _, strategy := range []match.Strategy{match.FirstFit, match.BestFit, match.WorstFit} {
		t.Run(strategy.String(), func(t *testing.T) { testScanNeverOutlivesItsBase(t, strategy) })
	}
}

func testScanNeverOutlivesItsBase(t *testing.T, strategy match.Strategy) {
	newCtrl := func() (*Controller, *cluster.Cluster) {
		cl, err := cluster.NewSP2(12)
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := New(Config{Cluster: cl, Clock: simclock.New(), Strategy: strategy})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ctrl.Stop)
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

	steps := []struct {
		name string
		do   func(*Controller) error
	}{
		{"register a communicating bag", register(goldenCommRSL(1, 60))},
		{"register a second", register(goldenCommRSL(2, 45))},
		{"register a client with a wildcard host", register(goldenDBRSL(3))},
		{"register a memory-only cache", register(goldenCacheRSL(4))},
		{"register a bag with friction", register(scanFrictionRSL(5))},
		{"pass", pass()},
		{"a bag's host goes down", nodeState("sp2-03", "down")},
		{"pass on the smaller machine", pass()},
		{"add a node that sorts first", addNode},
		{"pass over moved indices", pass()},
		{"register on the grown machine", register(goldenCommRSL(6, 80))},
		{"the host comes back", nodeState("sp2-03", "up")},
		{"the named server drains", nodeState("sp2-01", "drain")},
		{"pass", pass()},
		{"encode, decode, restore", roundTrip},
		{"pass after restore", pass()},
		{"the server is back", nodeState("sp2-01", "up")},
		{"unregister the first bag", entry(replog.Entry{Op: replog.OpUnregister, Instance: 1})},
		{"register one more", register(goldenCommRSL(7, 30))},
		{"force a resident wide", entry(replog.Entry{Op: replog.OpForceChoice, Instance: 2,
			Choice: &replog.Choice{Option: "workers", Vars: map[string]float64{"workerNodes": 8}}})},
		{"pass", pass()},
	}
	candidates, misfits := 0, 0
	for _, step := range steps {
		wiped.mu.Lock()
		wiped.evalCtx = evalContext{}
		wiped.mu.Unlock()
		errKept, errWiped := step.do(kept), step.do(wiped)
		if fmt.Sprint(errKept) != fmt.Sprint(errWiped) {
			t.Fatalf("%s: errors differ: %v / %v", step.name, errKept, errWiped)
		}
		a, err := kept.EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		b, err := wiped.EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: the controller that kept its evaluation context decided differently", step.name)
		}

		kept.mu.Lock()
		for _, id := range kept.order {
			app := kept.apps[id]
			bs := kept.staticForLocked(app)
			ctx := kept.newEvalContextLocked(app)
			for k, ch := range bs.choices {
				got, gotErr := kept.evaluateChoice(ctx, ch, &bs.stat[k])
				want, wantErr := evaluateChoiceByFork(kept, ctx, ch)
				candidates++
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: %s %s: shared says %v, rebuilt says %v", step.name, app.owner(), ch, gotErr, wantErr)
				}
				if gotErr != nil {
					misfits++
					continue
				}
				if !reflect.DeepEqual(got.assignment, want.assignment.Clone()) {
					t.Fatalf("%s: %s %s: assignments differ:\n shared:  %+v\n rebuilt: %+v", step.name, app.owner(), ch, got.assignment, want.assignment)
				}
				if math.Float64bits(got.predicted) != math.Float64bits(want.predicted) ||
					math.Float64bits(got.objective) != math.Float64bits(want.objective) ||
					got.friction != want.friction || got.frictionWarn != want.frictionWarn {
					t.Fatalf("%s: %s %s: shared %+v, rebuilt %+v", step.name, app.owner(), ch, got, want)
				}
			}
		}
		kept.mu.Unlock()
	}
	if n := len(kept.Apps()); n != 6 {
		t.Fatalf("%d residents at the end, want 6", n)
	}
	if candidates < 500 || misfits == 0 || misfits > candidates/2 {
		t.Fatalf("%d candidates compared, %d of them misfits: the script no longer covers both outcomes", candidates, misfits)
	}
}

// TestOneScanPerEvaluation counts how often the scan order is worked out: at
// most once per evaluation context whatever the number of candidates — once
// for every context of a wide-greedy cycle, whose candidates are all
// wildcards, and never on db-crowd, whose options name their hosts.
func TestOneScanPerEvaluation(t *testing.T) {
	counts := func(c *Controller) (contexts, scans, candidates uint64) {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.evalContexts, uint64(c.evalCtx.scan.Builds()), c.prune.Considered - c.prune.Unreachable - c.prune.Dominated
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
	c0, s0, n0 := counts(wide)
	cycle(wide, decodeBundle(t, wideBagRSL("Job", 9, 310)))
	c1, s1, n1 := counts(wide)
	// The arrival and 8 residents on Register, 8 residents on Unregister.
	if contexts := c1 - c0; contexts != 17 || s1-s0 != contexts || n1-n0 < 500 {
		t.Errorf("wide-greedy cycle: %d contexts ordered the table %d times for %d candidates; want 17, 17 and over 500",
			contexts, s1-s0, n1-n0)
	}

	crowd := crowdController(t, 16, Config{})
	c0, _, _ = counts(crowd)
	cycle(crowd, decodeBundle(t, crowdRSL(17, 17)))
	c1, s1, _ = counts(crowd)
	if contexts := c1 - c0; contexts != 33 || s1 != 0 {
		t.Errorf("db-crowd cycle: %d contexts ordered the table %d times; want 33 and 0", contexts, s1)
	}
}

// TestSearchNeverForks reads the package's source: nothing in it forks a
// snapshot — neither search does, a greedy candidate and a joint trial being
// charged to columns — an assignment is reserved through a view only by
// adoption, a node table is read out of a snapshot only where a search's
// base is built, once per base, since neither function loops over it, and a
// request is resolved (match.NewPlan) in one place, once per choice, never
// matched from scratch (Match). Nor does anything in it start a goroutine:
// evaluation is one serial loop.
func TestSearchNeverForks(t *testing.T) {
	allowed := map[string]map[string]bool{
		"Fork":        {},
		"Match":       {},
		"Reserve":     {"adoptLocked": true, "reevaluateExhaustiveLocked": true},
		"AppendNodes": {"newEvalContextLocked": true, "jointProblemLocked": true},
		"NewPlan":     {"newPlan": true},
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
