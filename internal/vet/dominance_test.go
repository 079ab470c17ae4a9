package vet_test

import (
	"fmt"
	"math/rand"
	"testing"

	"harmony/internal/predict"
	"harmony/internal/rsl"
	"harmony/internal/vet"
)

// --- generator -------------------------------------------------------------

var genDomains = [][]float64{{1, 2}, {1, 2, 4}, {2, 4, 8}, {1, 3}}

// Equivalent spellings within a row let the generator produce pairs that
// are semantically equal but structurally different, exercising the
// relational rules rather than plain string equality.
var genMemory = [][]string{
	{"32", "32", "16 + 16"},
	{"n * 8", "8 * n"},
	{"n + 16", "16 + n"},
	{"max(n, 8) * 4"},
}
var genReplicate = [][]string{
	{""}, // nil: exactly one
	{"2", "1 + 1"},
	{"n"},
	{"n + 1", "1 + n"},
	{"2 * n", "n * 2"},
}
var genSeconds = [][]string{
	{"100"},
	{"300 / n"},
	{"100 * n", "n * 100"},
}
var genFriction = [][]string{
	{""}, // nil: zero
	{"5"},
	{"20", "10 + 10"},
	{"n * 3", "3 * n"},
}
var genModels = [][]rsl.PerfPoint{
	nil,
	{{X: 1, Y: 100}, {X: 4, Y: 40}},
	{{X: 1, Y: 100}, {X: 4, Y: 60}},
	{{X: 1, Y: 50}, {X: 4, Y: 80}},  // nondecreasing
	{{X: 1, Y: 50}, {X: 4, Y: 120}}, // nondecreasing, slower
	{{X: 1, Y: 30}, {X: 2, Y: 20}, {X: 8, Y: 90}},
}

// pick indexes: which row of each pool an option uses, so a pair can
// share rows (likely provably related) or not.
type optPick struct {
	mem, rep, sec, fric, model      int
	memAlt, repAlt, secAlt, fricAlt int
	exclusive                       bool
	opMin                           bool
}

func randPick(r *rand.Rand) optPick {
	return optPick{
		mem: r.Intn(len(genMemory)), rep: r.Intn(len(genReplicate)),
		sec: r.Intn(len(genSeconds)), fric: r.Intn(len(genFriction)),
		model:  r.Intn(len(genModels)),
		memAlt: r.Intn(8), repAlt: r.Intn(8), secAlt: r.Intn(8), fricAlt: r.Intn(8),
		exclusive: r.Intn(3) == 0,
		opMin:     r.Intn(4) == 0,
	}
}

// mutatePick perturbs one dimension, biased toward changes that keep the
// pair comparable (same footprint, larger replicas, slower model).
func mutatePick(r *rand.Rand, p optPick) optPick {
	q := p
	switch r.Intn(5) {
	case 0: // respell only: semantically identical option
		q.memAlt, q.repAlt, q.secAlt, q.fricAlt = r.Intn(8), r.Intn(8), r.Intn(8), r.Intn(8)
	case 1:
		q.rep = r.Intn(len(genReplicate))
	case 2:
		q.model = r.Intn(len(genModels))
	case 3:
		q.fric = r.Intn(len(genFriction))
	default:
		q.sec = r.Intn(len(genSeconds))
	}
	return q
}

func buildOption(name string, domain []float64, p optPick) rsl.OptionSpec {
	alt := func(row []string, i int) string { return row[i%len(row)] }
	tags := map[string]rsl.TagValue{
		"memory":  {Op: rsl.OpExact, Expr: rsl.MustParseExpr(alt(genMemory[p.mem], p.memAlt))},
		"seconds": {Op: rsl.OpExact, Expr: rsl.MustParseExpr(alt(genSeconds[p.sec], p.secAlt))},
	}
	if p.opMin {
		tv := tags["memory"]
		tv.Op = rsl.OpMin
		tags["memory"] = tv
	}
	if p.exclusive {
		tags["exclusive"] = rsl.TagValue{Op: rsl.OpExact, Expr: rsl.MustParseExpr("1")}
	}
	spec := rsl.NodeSpec{LocalName: "w", HostPattern: "*", Tags: tags}
	if rep := alt(genReplicate[p.rep], p.repAlt); rep != "" {
		spec.Replicate = rsl.MustParseExpr(rep)
	}
	opt := rsl.OptionSpec{
		Name:        name,
		Nodes:       []rsl.NodeSpec{spec},
		Performance: genModels[p.model],
		Variables:   []rsl.VariableSpec{{Name: "n", Values: domain}},
	}
	if fric := alt(genFriction[p.fric], p.fricAlt); fric != "" {
		opt.Friction = rsl.MustParseExpr(fric)
	}
	return opt
}

// --- concrete refuter ------------------------------------------------------

// concreteOption is one option's footprint under one concrete binding.
type concreteOption struct {
	mem, sec, rep, fric float64
	exclusive, opMin    bool
	model               []rsl.PerfPoint
	ok                  bool // every expression evaluated
}

func evalConcrete(opt *rsl.OptionSpec, n float64) concreteOption {
	env := rsl.MapEnv{"n": n}
	c := concreteOption{model: opt.Performance, ok: true}
	ev := func(e rsl.Expr, dflt float64) float64 {
		if e == nil {
			return dflt
		}
		v, err := e.Eval(env)
		if err != nil {
			c.ok = false
		}
		return v
	}
	spec := &opt.Nodes[0]
	c.mem = ev(spec.Tags["memory"].Expr, 0)
	c.opMin = spec.Tags["memory"].Op == rsl.OpMin
	c.sec = ev(spec.Tags["seconds"].Expr, 0)
	c.rep = ev(spec.Replicate, 1)
	_, c.exclusive = spec.Tags["exclusive"]
	fenv := rsl.ChainEnv{rsl.MapEnv{"w.memory": c.mem, "w.seconds": c.sec}, env}
	if opt.Friction != nil {
		v, err := opt.Friction.Eval(fenv)
		if err != nil {
			c.ok = false
		}
		c.fric = v
	}
	if c.fric < 0 {
		c.fric = 0
	}
	return c
}

// refute checks one dominance claim against one concrete binding: it
// returns an error if the binding is a counterexample — the dominated
// option is feasible there but the dominator is not provably at least as
// good on every axis the controller scores.
func refute(oi, oj *rsl.OptionSpec, n float64) error {
	cj := evalConcrete(oj, n)
	if !cj.ok {
		return nil // dominated option infeasible here: nothing to refute
	}
	ci := evalConcrete(oi, n)
	if !ci.ok {
		return fmt.Errorf("dominator fails to evaluate at n=%g", n)
	}
	const tol = 1e-9
	if ci.mem != cj.mem || ci.opMin != cj.opMin {
		return fmt.Errorf("memory differs at n=%g: %g vs %g", n, ci.mem, cj.mem)
	}
	if ci.exclusive != cj.exclusive {
		return fmt.Errorf("exclusivity differs at n=%g", n)
	}
	if ci.rep > cj.rep+tol {
		return fmt.Errorf("dominator needs more replicas at n=%g: %g > %g", n, ci.rep, cj.rep)
	}
	if ci.fric > cj.fric+tol {
		return fmt.Errorf("dominator has higher friction at n=%g: %g > %g", n, ci.fric, cj.fric)
	}
	switch {
	case len(ci.model) == 0 && len(cj.model) == 0:
		// Identical default-model inputs required: same assignment shape.
		if ci.rep != cj.rep || ci.sec != cj.sec {
			return fmt.Errorf("no models but assignments differ at n=%g", n)
		}
	case len(ci.model) > 0 && len(cj.model) > 0:
		yi, err1 := predict.Interpolate(ci.model, ci.rep)
		yj, err2 := predict.Interpolate(cj.model, cj.rep)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("interpolation failed at n=%g", n)
		}
		if yi > yj+tol {
			return fmt.Errorf("dominator predicts slower at n=%g: %g > %g", n, yi, yj)
		}
	default:
		return fmt.Errorf("model present on only one side at n=%g", n)
	}
	return nil
}

// TestDominanceSoundness is the ISSUE's soundness property: across well
// over 1000 generated option pairs, the relational comparator never
// claims a dominance that concrete enumeration over the full variable
// domain refutes.
func TestDominanceSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pairs, claims := 0, 0
	for pairs < 1500 {
		domain := genDomains[r.Intn(len(genDomains))]
		pi := randPick(r)
		var pj optPick
		if r.Intn(4) == 0 {
			pj = randPick(r) // unrelated pair
		} else {
			pj = mutatePick(r, pi)
		}
		b := &rsl.BundleSpec{
			App: "gen", Name: "b",
			Options: []rsl.OptionSpec{
				buildOption("first", domain, pi),
				buildOption("second", domain, pj),
			},
		}
		pairs++
		for _, d := range vet.NewBundle(b).Dominance() {
			claims++
			oi, oj := &b.Options[d.By], &b.Options[d.Dominated]
			for _, n := range domain {
				if err := refute(oi, oj, n); err != nil {
					t.Fatalf("unsound %s claim (%s dominates %s): %v\n  dominator: %+v\n  dominated: %+v",
						d.Rule, oi.Name, oj.Name, err, pi, pj)
				}
			}
		}
	}
	// The prover made 690 claims on these pairs when its rules moved onto the
	// plans; fewer means it lost power.
	if claims < 690 {
		t.Fatalf("generator produced only %d dominance claims over %d pairs, want at least 690; the prover lost power", claims, pairs)
	}
	t.Logf("%d pairs, %d dominance claims, all survived enumeration", pairs, claims)
}
