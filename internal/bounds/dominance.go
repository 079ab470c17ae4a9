package bounds

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"harmony/internal/match"
	"harmony/internal/predict"
	"harmony/internal/rsl"
)

// Dominance rule identifiers.
const (
	// RuleIdentical: the dominated option's requirements are identical to
	// an earlier sibling's at every shared binding and grant, and the
	// earlier model is never slower.
	RuleIdentical = "identical-requirements"
	// RuleSubset: the dominated option requests the same per-replica
	// footprint as an earlier sibling but at least as many replicas at
	// every shared binding, and the earlier model is never slower at its
	// (smaller) node count.
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

// Dominance computes the dominance partial order of the bundle's options
// from its plans. Each claim is checked at every choice the controller
// enumerates for the dominated option, against the earlier option's choice
// at the same binding and grant step, and holds for any cluster state and
// any coordinate-monotone objective: the controller evaluates choices in
// enumeration order and adopts a later candidate only on a strictly better
// score, so an option an earlier sibling always ties or beats is never
// chosen. Only the earliest dominator of each option is reported. A bundle
// over rsl.MaxChoices is not enumerated and has none.
func (an *Bundle) Dominance() []Domination {
	if !an.Enumerated() {
		return nil
	}
	var out []Domination
	for j := 1; j < len(an.Spec.Options); j++ {
		for i := 0; i < j; i++ {
			if d, ok := an.dominates(i, j); ok {
				out = append(out, d)
				break
			}
		}
	}
	return out
}

// dominates decides whether option i (earlier) dominates option j.
func (an *Bundle) dominates(i, j int) (Domination, bool) {
	oi, oj := &an.Spec.Options[i], &an.Spec.Options[j]
	if !varsEqual(oi, oj) {
		return Domination{}, false
	}
	if sameShape(oi, oj) && an.everyChoice(i, j, identicalAt) != nil {
		detail := fmt.Sprintf("requirements are identical to option %q and its prediction is never better", oi.Name)
		if len(oi.Performance) == 0 {
			detail = fmt.Sprintf("requirements are identical to option %q and neither has a performance model", oi.Name)
		}
		return Domination{Dominated: j, By: i, Rule: RuleIdentical, Detail: detail}, true
	}
	if subsetShape(oi, oj) {
		if r := an.everyChoice(i, j, subsetAt); r != nil {
			return Domination{Dominated: j, By: i, Rule: RuleSubset, Detail: fmt.Sprintf(
				"requests the same per-replica footprint as option %q with at least as many replicas (%s vs %s), and that option's prediction is never better",
				oi.Name, r.nodesJ, r.nodesI)}, true
		}
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

// pairing is one shared choice of options i and j: the same binding and
// the same grant step, each resolved for placement.
type pairing struct {
	oi, oj *rsl.OptionSpec
	vars   rsl.MapEnv
	pi, pj *match.Plan
}

// replicaRanges are the node counts of both options over the shared choices
// a rule held at.
type replicaRanges struct {
	nodesI, nodesJ Range
	n              int
}

// everyChoice checks rule at each of j's enumerated choices beside i's
// choice at the same binding and grant step, skipping those where j does not
// resolve: an option is not chosen where it cannot be placed. It returns the
// node counts it saw, or nil when the rule failed somewhere or j resolved
// nowhere.
func (an *Bundle) everyChoice(i, j int, rule func(*pairing) bool) *replicaRanges {
	oi, oj := &an.Spec.Options[i], &an.Spec.Options[j]
	choicesJ, plansJ := an.Option(j)
	_, plansI := an.Option(i)
	// The options bind the same variables over the same values, so they
	// have as many choices exactly when both climb the grant ladder or
	// neither does.
	if len(plansJ) == 0 || len(plansI) != len(plansJ) {
		return nil
	}
	steps := len(plansJ)
	for _, v := range oj.Variables {
		steps /= len(v.Values)
	}
	r := &replicaRanges{}
	for at := 0; at < len(plansJ); at += steps {
		vars := choicesJ[at].Vars
		from := bindingIndex(oi, vars) * steps
		for step, pj := range plansJ[at : at+steps] {
			if _, ok := pj.Footprint(); !ok {
				continue
			}
			p := &pairing{oi: oi, oj: oj, vars: rsl.MapEnv(vars), pi: plansI[from+step], pj: pj}
			if _, ok := p.pi.Footprint(); !ok || !rule(p) {
				return nil
			}
			r.nodesI.widen(float64(p.pi.Replicas()), r.n == 0)
			r.nodesJ.widen(float64(pj.Replicas()), r.n == 0)
			r.n++
		}
	}
	if r.n == 0 {
		return nil
	}
	return r
}

// bindingIndex is where vars falls in o.Bindings(), the first declared
// variable varying slowest; a value listed twice is found at its first
// place, whose choices are the same.
func bindingIndex(o *rsl.OptionSpec, vars map[string]float64) int {
	idx := 0
	for _, v := range o.Variables {
		x := vars[v.Name]
		idx = idx*len(v.Values) + slices.IndexFunc(v.Values, func(y float64) bool { return y == x || y != y && x != x })
	}
	return idx
}

// sameShape reports whether two options have the same structure: node
// specs with the same local names, host patterns, tag names, string tags
// and operators, and links between the same ends, so that only the values
// of their expressions can tell them apart.
func sameShape(oi, oj *rsl.OptionSpec) bool {
	if len(oi.Nodes) != len(oj.Nodes) || len(oi.Links) != len(oj.Links) {
		return false
	}
	for k := range oi.Nodes {
		si, sj := &oi.Nodes[k], &oj.Nodes[k]
		if si.LocalName != sj.LocalName || si.HostPattern != sj.HostPattern || !sameTags(si, sj) {
			return false
		}
	}
	for k := range oi.Links {
		li, lj := &oi.Links[k], &oj.Links[k]
		if li.A != lj.A || li.B != lj.B || (li.Latency == nil) != (lj.Latency == nil) {
			return false
		}
	}
	return (oi.Communication == nil) == (oj.Communication == nil)
}

// sameTags reports whether two specs have the same tag names, the same
// string tags, and numeric tags with the same operators.
func sameTags(si, sj *rsl.NodeSpec) bool {
	if len(si.Tags) != len(sj.Tags) {
		return false
	}
	for name, ti := range si.Tags {
		tj, ok := sj.Tags[name]
		if !ok || ti.IsString != tj.IsString {
			return false
		}
		if ti.IsString && ti.Str != tj.Str || !ti.IsString && ti.Op != tj.Op {
			return false
		}
	}
	return true
}

// subsetShape reports whether the replica-monotone rule can apply: both
// options request a single node spec on the same host pattern with the same
// tag structure, no links or communication, and explicit models on both
// sides.
func subsetShape(oi, oj *rsl.OptionSpec) bool {
	if len(oi.Nodes) != 1 || len(oj.Nodes) != 1 || oi.Nodes[0].HostPattern != oj.Nodes[0].HostPattern {
		return false
	}
	if len(oi.Links) > 0 || len(oj.Links) > 0 || oi.Communication != nil || oj.Communication != nil {
		return false
	}
	return len(oi.Performance) > 0 && len(oj.Performance) > 0 && sameTags(&oi.Nodes[0], &oj.Nodes[0])
}

// identicalAt checks the identical-requirements rule at one shared choice:
// every numeric tag, replica count, link and communication of the two
// options evaluates alike, and option i is predicted no slower and costs no
// more friction. Two expressions that both fail to evaluate count as alike.
func identicalAt(p *pairing) bool {
	vars := p.vars
	for k := range p.oi.Nodes {
		si, sj := &p.oi.Nodes[k], &p.oj.Nodes[k]
		if !sameTagValues(si, sj, vars, "") || !sameValue(orOne(si.Replicate), orOne(sj.Replicate), vars, vars) {
			return false
		}
	}
	ei, ej := p.pi.Env(), p.pj.Env()
	for k := range p.oi.Links {
		li, lj := &p.oi.Links[k], &p.oj.Links[k]
		if !sameValue(li.Bandwidth, lj.Bandwidth, ei, ej) {
			return false
		}
		if li.Latency != nil && !sameValue(li.Latency, lj.Latency, ei, ej) {
			return false
		}
	}
	if p.oi.Communication != nil && !sameValue(p.oi.Communication, p.oj.Communication, ei, ej) {
		return false
	}
	switch {
	case len(p.oi.Performance) == 0 && len(p.oj.Performance) == 0:
		// The default model sees identical assignments, so predictions tie
		// and the earlier option wins.
	case len(p.oi.Performance) > 0 && len(p.oj.Performance) > 0:
		if !modelLE(p) {
			return false
		}
	default:
		return false
	}
	return frictionLE(p, ei, ej)
}

// subsetAt checks the replica-monotone rule at one shared choice: the
// single specs' numeric tags other than seconds evaluate alike, option i
// asks for no more replicas, is predicted no slower at its node count, and
// costs no more friction. Then whenever j matches, i matches a subset of
// j's placement (the matcher fills replicas first-fit over one shared host
// order), every other application is slowed at most as much, and j can
// never strictly beat the earlier i. Granted seconds may differ, since a
// single-spec option claims full CPU load per node regardless.
func subsetAt(p *pairing) bool {
	vars := p.vars
	si, sj := &p.oi.Nodes[0], &p.oj.Nodes[0]
	if !sameTagValues(si, sj, vars, "seconds") {
		return false
	}
	ri, errI := orOne(si.Replicate).Eval(vars)
	rj, errJ := orOne(sj.Replicate).Eval(vars)
	if errI != nil || errJ != nil || ri > rj {
		return false
	}
	return modelLE(p) && frictionLE(p, p.pi.Env(), p.pj.Env())
}

// modelLE reports whether option i's model predicts no slower at its node
// count than option j's at its own.
func modelLE(p *pairing) bool {
	yi, err1 := predict.Interpolate(p.oi.Performance, float64(p.pi.Replicas()))
	yj, err2 := predict.Interpolate(p.oj.Performance, float64(p.pj.Replicas()))
	return err1 == nil && err2 == nil && yi <= yj
}

// frictionLE reports whether option i's friction is no more than j's as the
// controller charges it: clamped at zero, and zero when it does not
// evaluate. A friction of i that fails where j's evaluates is not compared.
func frictionLE(p *pairing, ei, ej rsl.Env) bool {
	fi, errI := orZero(p.oi.Friction).Eval(ei)
	fj, errJ := orZero(p.oj.Friction).Eval(ej)
	if errI != nil && errJ == nil {
		return false
	}
	if errI != nil || fi < 0 {
		fi = 0
	}
	if errJ != nil || fj < 0 {
		fj = 0
	}
	return fi <= fj
}

// sameTagValues reports whether two specs' numeric tags, except skip,
// evaluate alike under env.
func sameTagValues(si, sj *rsl.NodeSpec, env rsl.Env, skip string) bool {
	for name, ti := range si.Tags {
		if ti.IsString || name == skip {
			continue
		}
		x, errX := ti.EvalNum(env)
		y, errY := sj.Tags[name].EvalNum(env)
		if (errX != nil) != (errY != nil) || errX == nil && x != y {
			return false
		}
	}
	return true
}

// sameValue reports whether a under ea and b under eb evaluate to the same
// value, or both fail.
func sameValue(a, b rsl.Expr, ea, eb rsl.Env) bool {
	x, errA := a.Eval(ea)
	y, errB := b.Eval(eb)
	if errA != nil || errB != nil {
		return errA != nil && errB != nil
	}
	return x == y
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
