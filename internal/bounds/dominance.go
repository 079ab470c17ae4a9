package bounds

import (
	"fmt"
	"sort"
	"strings"

	"harmony/internal/predict"
	"harmony/internal/rsl"
	"harmony/internal/vet/absint"
)

// Dominance rule identifiers.
const (
	// RuleIdentical: the dominated option's requirements are provably
	// identical to an earlier sibling's for every shared binding, and the
	// earlier model is never slower.
	RuleIdentical = "identical-requirements"
	// RuleSubset: the dominated option requests the same per-replica
	// footprint as an earlier sibling but at least as many replicas, and
	// the earlier model is never slower at its (smaller) node count.
	RuleSubset = "subset-replicas"
)

// Domination is one edge of the dominance partial order: option Dominated
// can never be chosen by the controller because option By — evaluated
// earlier, with ties keeping the earlier candidate — always scores at
// least as well whenever Dominated is feasible.
type Domination struct {
	// Dominated and By are option indices into the bundle.
	Dominated, By int
	// Rule names the proof rule that applied.
	Rule string
	// Detail is a human-readable justification.
	Detail string
}

// Dominance computes the dominance partial order of a bundle's options.
// Every claim is a proof valid for any variable binding, any grant, any
// cluster state, and any coordinate-monotone objective: the controller
// evaluates options in lexical order and adopts a later candidate only on
// a strictly better score, so an option that an earlier sibling always
// ties or beats is unreachable. Only the earliest dominator of each
// option is reported.
func Dominance(b *rsl.BundleSpec) []Domination {
	var out []Domination
	for j := 1; j < len(b.Options); j++ {
		for i := 0; i < j; i++ {
			if d, ok := dominates(b, i, j); ok {
				out = append(out, d)
				break
			}
		}
	}
	return out
}

// dominates decides whether option i (earlier) dominates option j.
func dominates(b *rsl.BundleSpec, i, j int) (Domination, bool) {
	oi, oj := &b.Options[i], &b.Options[j]
	if !varsEqual(oi, oj) {
		return Domination{}, false
	}
	vi, lenvI := option(oi)
	vj, lenvJ := option(oj)
	env := &optionEnv{opt: oj, vars: lenvJ.vars} // no granted names, as tags see
	lenv := joinEnv{lenvI, lenvJ}

	if identicalRequirements(oi, oj, env, lenv) {
		okModel := false
		switch {
		case len(oi.Performance) == 0 && len(oj.Performance) == 0:
			// Identical requirements and no model on either side: the
			// default model sees identical assignments, so predictions tie
			// and the earlier option wins.
			okModel = true
		case len(oi.Performance) > 0 && len(oj.Performance) > 0:
			okModel = modelAlwaysLE(oi.Performance, oj.Performance, vj.Nodes)
		}
		if okModel && frictionLE(oi, oj, lenv, true) {
			detail := fmt.Sprintf("requirements are identical to option %q and its prediction is never better", oi.Name)
			if len(oi.Performance) == 0 {
				detail = fmt.Sprintf("requirements are identical to option %q and neither has a performance model", oi.Name)
			}
			return Domination{Dominated: j, By: i, Rule: RuleIdentical, Detail: detail}, true
		}
	}

	if detail, ok := subsetReplicas(oi, oj, vi.Nodes, vj.Nodes, env, lenv); ok {
		return Domination{Dominated: j, By: i, Rule: RuleSubset, Detail: detail}, true
	}
	return Domination{}, false
}

// varsEqual requires the two options to declare the same variables over
// the same value sets, so a binding of one is a binding of the other.
func varsEqual(oi, oj *rsl.OptionSpec) bool {
	if len(oi.Variables) != len(oj.Variables) {
		return false
	}
	key := func(vs []rsl.VariableSpec) string {
		parts := make([]string, len(vs))
		for i, v := range vs {
			vals := append([]float64(nil), v.Values...)
			sort.Float64s(vals)
			parts[i] = fmt.Sprintf("%s=%v", v.Name, vals)
		}
		sort.Strings(parts)
		return strings.Join(parts, ";")
	}
	return key(oi.Variables) == key(oj.Variables)
}

// joinEnv joins two abstract environments name-wise, so a shared name is
// bound to an interval covering both options' values for it.
type joinEnv struct{ a, b absint.Env }

// Lookup implements absint.Env.
func (j joinEnv) Lookup(name string) (absint.Interval, bool) {
	x, okA := j.a.Lookup(name)
	y, okB := j.b.Lookup(name)
	switch {
	case okA && okB:
		return absint.Join(x, y), true
	case okA:
		return x, true
	}
	return y, okB
}

// one is the implicit replicate expression.
var one rsl.Expr = &rsl.NumberExpr{Value: 1}

// zero is the implicit friction expression.
var zero rsl.Expr = &rsl.NumberExpr{Value: 0}

func orOne(e rsl.Expr) rsl.Expr {
	if e == nil {
		return one
	}
	return e
}

func orZero(e rsl.Expr) rsl.Expr {
	if e == nil {
		return zero
	}
	return e
}

// provedEq is ProvedEqual extended with the structural shortcut: two
// identical expressions evaluate identically on every binding — and fail
// identically on the bindings where they error — so equality holds even
// when the interval analysis reports MayErr.
func provedEq(a, b rsl.Expr, env absint.Env) bool {
	return absint.ExprEqual(a, b) || absint.ProvedEqual(a, b, env)
}

// provedLE is ProvedLE with the same structural shortcut (a == b implies
// a <= b wherever both evaluate, and neither evaluates alone).
func provedLE(a, b rsl.Expr, env absint.Env) bool {
	return absint.ExprEqual(a, b) || absint.ProvedLE(a, b, env)
}

// identicalRequirements proves that options i and j make identical
// demands on the matcher for every shared binding: same node specs (all
// tags proven equal relationally), same links and communication.
func identicalRequirements(oi, oj *rsl.OptionSpec, env, lenv absint.Env) bool {
	if len(oi.Nodes) != len(oj.Nodes) || len(oi.Links) != len(oj.Links) {
		return false
	}
	for k := range oi.Nodes {
		si, sj := &oi.Nodes[k], &oj.Nodes[k]
		if si.LocalName != sj.LocalName || si.HostPattern != sj.HostPattern {
			return false
		}
		if !tagsEqual(si, sj, env, nil) {
			return false
		}
		if !provedEq(orOne(si.Replicate), orOne(sj.Replicate), env) {
			return false
		}
	}
	for k := range oi.Links {
		li, lj := &oi.Links[k], &oj.Links[k]
		if li.A != lj.A || li.B != lj.B {
			return false
		}
		if !provedEq(li.Bandwidth, lj.Bandwidth, lenv) {
			return false
		}
		if (li.Latency == nil) != (lj.Latency == nil) {
			return false
		}
		if li.Latency != nil && !provedEq(li.Latency, lj.Latency, lenv) {
			return false
		}
	}
	if (oi.Communication == nil) != (oj.Communication == nil) {
		return false
	}
	if oi.Communication != nil && !provedEq(oi.Communication, oj.Communication, lenv) {
		return false
	}
	return true
}

// tagsEqual proves two specs' tag maps equal: same keys, string tags
// byte-equal, numeric tags with the same operator and relationally equal
// expressions. Keys in skip are exempt.
func tagsEqual(si, sj *rsl.NodeSpec, env absint.Env, skip map[string]bool) bool {
	if len(si.Tags) != len(sj.Tags) {
		return false
	}
	for name, ti := range si.Tags {
		tj, ok := sj.Tags[name]
		if !ok {
			return false
		}
		if skip[name] {
			continue
		}
		if ti.IsString != tj.IsString {
			return false
		}
		if ti.IsString {
			if ti.Str != tj.Str {
				return false
			}
			continue
		}
		if ti.Op != tj.Op || !provedEq(ti.Expr, tj.Expr, env) {
			return false
		}
	}
	return true
}

// modelAlwaysLE proves P_i(n) <= P_j(n) for every n in the node-count
// interval. Both curves are piecewise linear with flat extension, so the
// difference attains its extremes at the knots clamped into the range.
func modelAlwaysLE(pi, pj []rsl.PerfPoint, n absint.Interval) bool {
	if len(pi) == 0 || len(pj) == 0 || n.IsEmpty() {
		return false
	}
	clamp := func(x float64) float64 {
		if x < n.Lo {
			return n.Lo
		}
		if x > n.Hi {
			return n.Hi
		}
		return x
	}
	check := func(points []rsl.PerfPoint) bool {
		for _, p := range points {
			x := clamp(p.X)
			yi, err1 := predict.Interpolate(pi, x)
			yj, err2 := predict.Interpolate(pj, x)
			if err1 != nil || err2 != nil || yi > yj {
				return false
			}
		}
		return true
	}
	return check(pi) && check(pj)
}

// refsSeconds reports whether an expression references any granted
// seconds binding (name.seconds).
func refsSeconds(e rsl.Expr) bool {
	if e == nil {
		return false
	}
	for _, name := range e.Vars(nil) {
		if strings.HasSuffix(name, ".seconds") {
			return true
		}
	}
	return false
}

// frictionLE proves friction_i <= friction_j for every shared binding.
// The controller clamps negative friction to zero, and max is monotone,
// so the proof on raw values carries over. When the options' granted
// seconds are not provably equal, a friction referencing any .seconds
// name is incomparable under a shared environment.
func frictionLE(oi, oj *rsl.OptionSpec, lenv absint.Env, secondsEqual bool) bool {
	fi, fj := orZero(oi.Friction), orZero(oj.Friction)
	if !secondsEqual && (refsSeconds(fi) || refsSeconds(fj)) {
		return false
	}
	return provedLE(fi, fj, lenv)
}

// modelNondecreasing reports whether a model's running time never falls
// as nodes are added (the regime where extra replicas never pay off).
func modelNondecreasing(points []rsl.PerfPoint) bool {
	for i := 1; i < len(points); i++ {
		if points[i].Y < points[i-1].Y {
			return false
		}
	}
	return true
}

// modelsEqual reports point-for-point equality of two models.
func modelsEqual(a, b []rsl.PerfPoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// subsetReplicas proves the replica-monotone rule: both options request a
// single wildcard-or-same-pattern node spec with a provably identical
// per-replica footprint, no links or communication, explicit models on
// both sides, and option i's replica count never exceeds option j's. Then
// whenever j matches, i matches a subset of j's placement (the matcher
// fills replicas first-fit over one shared host order), every other
// application is slowed at most as much, and i's prediction is proven no
// worse — so j can never strictly beat the earlier i. ni and nj are the
// options' node-count bounds.
func subsetReplicas(oi, oj *rsl.OptionSpec, ni, nj absint.Interval, env, lenv absint.Env) (string, bool) {
	if len(oi.Nodes) != 1 || len(oj.Nodes) != 1 {
		return "", false
	}
	si, sj := &oi.Nodes[0], &oj.Nodes[0]
	if si.HostPattern != sj.HostPattern {
		return "", false
	}
	if len(oi.Links) > 0 || len(oj.Links) > 0 || oi.Communication != nil || oj.Communication != nil {
		return "", false
	}
	if len(oi.Performance) == 0 || len(oj.Performance) == 0 {
		return "", false
	}
	// Per-replica footprint identical; granted seconds may differ, since a
	// single-spec option always claims full CPU load per node regardless.
	if !tagsEqual(si, sj, env, map[string]bool{"seconds": true}) {
		return "", false
	}
	secondsEqual := provedEq(orZero(secondsExpr(si)), orZero(secondsExpr(sj)), env)
	repI, repJ := orOne(si.Replicate), orOne(sj.Replicate)
	if !absint.ExprEqual(repI, repJ) {
		dRep := absint.Diff(repI, repJ, env)
		if dRep.MayErr || dRep.Val.IsEmpty() || dRep.Val.Hi > 0 {
			return "", false
		}
	}
	// The earlier model must be no slower at its smaller node count, for
	// every binding: either the shared curve never speeds up with nodes,
	// or the two models' ranges are fully ordered.
	sameCurveMonotone := modelsEqual(oi.Performance, oj.Performance) && modelNondecreasing(oi.Performance)
	rangesOrdered := false
	if !sameCurveMonotone {
		ri, rj := ModelRange(oi.Performance, ni), ModelRange(oj.Performance, nj)
		rangesOrdered = !ri.IsEmpty() && !rj.IsEmpty() && ri.Hi <= rj.Lo
	}
	if !sameCurveMonotone && !rangesOrdered {
		return "", false
	}
	if !frictionLE(oi, oj, lenv, secondsEqual) {
		return "", false
	}
	return fmt.Sprintf(
		"requests the same per-replica footprint as option %q with at least as many replicas (%s vs %s), and that option's prediction is never better",
		oi.Name, Render(absint.Eval(repJ, env).Val), Render(absint.Eval(repI, env).Val)), true
}

// secondsExpr is the spec's numeric seconds expression, or nil.
func secondsExpr(spec *rsl.NodeSpec) rsl.Expr {
	if tag, ok := spec.Tags["seconds"]; ok && !tag.IsString {
		return tag.Expr
	}
	return nil
}
