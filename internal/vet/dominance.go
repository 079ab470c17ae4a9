package vet

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
	if an.everyChoice(i, j, identicalAt) != nil {
		detail := fmt.Sprintf("requirements are identical to option %q and its prediction is never better", oi.Name)
		if len(oi.Performance) == 0 {
			detail = fmt.Sprintf("requirements are identical to option %q and neither has a performance model", oi.Name)
		}
		return Domination{Dominated: j, By: i, Rule: RuleIdentical, Detail: detail}, true
	}
	if len(oi.Performance) > 0 && len(oj.Performance) > 0 {
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
		from := bindingIndex(oi, choicesJ[at].Vars) * steps
		for step, pj := range plansJ[at : at+steps] {
			if _, ok := pj.Footprint(); !ok {
				continue
			}
			p := &pairing{oi: oi, oj: oj, pi: plansI[from+step], pj: pj}
			if !rule(p) {
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
// place, whose choices are the same. Values are never NaN: the decoder
// refuses them.
func bindingIndex(o *rsl.OptionSpec, vars map[string]float64) int {
	idx := 0
	for _, v := range o.Variables {
		idx = idx*len(v.Values) + slices.Index(v.Values, vars[v.Name])
	}
	return idx
}

// identicalAt checks the identical-requirements rule at one shared choice:
// the two plans resolved to the same request (match.Plan.SameAs), so they
// place and charge alike on any state, and option i is predicted no slower
// and costs no more friction.
func identicalAt(p *pairing) bool {
	if !p.pi.SameAs(p.pj) {
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
	return frictionLE(p)
}

// subsetAt checks the replica-monotone rule at one shared choice: option i's
// plan asks for the same single demand with no more replicas
// (match.Plan.Within), is predicted no slower at its node count, and costs no
// more friction. Then whenever j places, i places on a subset of j's hosts,
// every other application is slowed at most as much, and j can never
// strictly beat the earlier i. Granted seconds may differ, since a
// single-spec option claims full CPU load per node regardless.
func subsetAt(p *pairing) bool {
	return p.pi.Within(p.pj) && modelLE(p) && frictionLE(p)
}

// modelLE reports whether option i's model predicts no slower at its node
// count than option j's at its own.
func modelLE(p *pairing) bool {
	yi, err1 := predict.Interpolate(p.oi.Performance, float64(p.pi.Replicas()))
	yj, err2 := predict.Interpolate(p.oj.Performance, float64(p.pj.Replicas()))
	return err1 == nil && err2 == nil && yi <= yj
}

// frictionLE reports whether option i's friction is no more than j's as the
// controller charges it (match.Plan.Friction). A friction of i that fails
// where j's evaluates is not compared.
func frictionLE(p *pairing) bool {
	fi, errI := p.pi.Friction()
	fj, errJ := p.pj.Friction()
	if errI != nil && errJ == nil {
		return false
	}
	return fi <= fj
}
