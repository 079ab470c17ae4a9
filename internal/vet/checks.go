package vet

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"harmony/internal/cluster"
	"harmony/internal/match"
	"harmony/internal/rsl"
)

// switchBandwidthMbps is the interconnect the bandwidth checks assume: the
// SP-2 switch of the paper's Section 6 testbed, as the cluster package
// models it.
const switchBandwidthMbps float64 = cluster.DefaultSwitchBandwidthMbps

// analysis carries the per-script state shared by all checks.
type analysis struct {
	rep   *Report
	decls []*rsl.NodeDecl
	// capa sums decls, once per script.
	capa Capacity
}

func (a *analysis) diag(check string, sev Severity, pos rsl.Pos, bundle, option, format string, args ...any) {
	a.rep.add(Diagnostic{
		Check:    check,
		Severity: sev,
		Line:     pos.Line,
		Col:      pos.Col,
		Bundle:   bundle,
		Option:   option,
		Message:  fmt.Sprintf(format, args...),
	})
}

// checkDecls validates the harmonyNode declarations of the script itself
// (ExtraNodes describe an existing cluster and are not re-validated).
func (a *analysis) checkDecls(decls []*rsl.NodeDecl) {
	seen := make(map[string]*rsl.NodeDecl, len(decls))
	for _, d := range decls {
		if prev, dup := seen[d.Hostname]; dup {
			a.diag("dup-node-decl", SevError, d.Pos, "", "",
				"hostname %q already declared at %s", d.Hostname, prev.Pos)
		} else {
			seen[d.Hostname] = d
		}
		if d.MemoryMB <= 0 {
			a.diag("node-decl-capacity", SevWarn, d.Pos, "", "",
				"node %q declares no memory; every memory-bearing request will fail to match on it", d.Hostname)
		}
	}
}

// optScope is the Section 3.2 namespace visible to one option's
// expressions: its declared variables and its node local names, and the
// choices the controller enumerates for it.
type optScope struct {
	a      *analysis
	bundle string
	option string
	// vars maps declared variable names to their admissible values.
	vars map[string][]float64
	// locals is the set of option-local node names.
	locals map[string]bool
	// an is the bundle's analysis and index the option's place in it. When
	// an is not enumerated (over rsl.MaxChoices), no check that needs a
	// binding runs. plans resolve the option's choices for placement, and
	// envs is what each plan's link, communication and friction
	// expressions see, built on first use.
	an    *Bundle
	index int
	plans []*match.Plan
	envs  []rsl.Env
}

// checkBundle runs every check of one bundle over its analysis: the bundle
// enumerated and planned once, as the controller enumerates and plans it.
// Over rsl.MaxChoices it is not enumerated at all, and only the checks that
// need no binding run beside the refusal.
func (a *analysis) checkBundle(an *Bundle) {
	b := an.Spec
	if !an.Enumerated() {
		a.diag("too-many-choices", SevError, b.Pos, b.Name, "",
			"options expand to %d choices, over the cap of %d the controller enumerates; the bundle is refused", b.ChoiceCount(), rsl.MaxChoices)
	}
	for i := range b.Options {
		a.newScope(an, i).checkOption(&b.Options[i])
	}
	if an.Enumerated() {
		a.checkDominated(an)
		a.checkUnreachable(an)
	}
}

func (a *analysis) newScope(an *Bundle, i int) *optScope {
	b, opt := an.Spec, &an.Spec.Options[i]
	s := &optScope{
		a:      a,
		an:     an,
		index:  i,
		bundle: b.Name,
		option: opt.Name,
		vars:   make(map[string][]float64, len(opt.Variables)),
		locals: make(map[string]bool, len(opt.Nodes)),
	}
	_, s.plans = an.Option(i)
	for _, v := range opt.Variables {
		s.vars[v.Name] = v.Values
	}
	for i := range opt.Nodes {
		s.locals[opt.Nodes[i].LocalName] = true
	}
	return s
}

func (s *optScope) diag(check string, sev Severity, pos rsl.Pos, format string, args ...any) {
	s.a.diag(check, sev, pos, s.bundle, s.option, format, args...)
}

func (s *optScope) checkOption(opt *rsl.OptionSpec) {
	if len(opt.Nodes) == 0 {
		s.diag("empty-option", SevWarn, opt.Pos,
			"option requests no nodes; it never consumes or releases resources")
	}

	for i := range opt.Nodes {
		spec := &opt.Nodes[i]
		for _, tagName := range sortedTagNames(spec.Tags) {
			tag := spec.Tags[tagName]
			if tag.IsString {
				continue
			}
			ctx := exprCtx{kind: tagCtx, a: spec.LocalName, b: tagName}
			s.checkExpr(tag.Expr, tag.Pos, ctx, false)
			switch tagName {
			case "seconds", "memory":
				s.checkRange(tag.Expr, tag.Pos, ctx, 0, false)
			}
		}
		if spec.Replicate != nil {
			ctx := exprCtx{kind: replicateCtx, a: spec.LocalName}
			s.checkExpr(spec.Replicate, spec.ReplicatePos, ctx, false)
			s.checkRange(spec.Replicate, spec.ReplicatePos, ctx, 1, false)
		}
	}

	for i := range opt.Links {
		ls := &opt.Links[i]
		for _, end := range []string{ls.A, ls.B} {
			if !s.locals[end] {
				s.diag("link-endpoint", SevError, ls.Pos,
					"link endpoint %q is not a node of this option (nodes: %s)",
					end, strings.Join(s.localNames(), ", "))
			}
		}
		ctx := exprCtx{kind: linkCtx, a: ls.A, b: ls.B, what: "bandwidth"}
		s.checkExpr(ls.Bandwidth, ls.Pos, ctx, true)
		s.checkRange(ls.Bandwidth, ls.Pos, ctx, 0, true)
		if ls.Latency != nil {
			lctx := exprCtx{kind: linkCtx, a: ls.A, b: ls.B, what: "latency"}
			s.checkExpr(ls.Latency, ls.Pos, lctx, true)
			s.checkRange(ls.Latency, ls.Pos, lctx, 0, true)
		}
	}

	if opt.Communication != nil {
		s.checkExpr(opt.Communication, opt.CommunicationPos, exprCtx{what: "communication"}, true)
		s.checkRange(opt.Communication, opt.CommunicationPos, exprCtx{what: "communication"}, 0, true)
	}
	if opt.Granularity != nil {
		s.checkExpr(opt.Granularity, opt.GranularityPos, exprCtx{what: "granularity"}, false)
		s.checkRange(opt.Granularity, opt.GranularityPos, exprCtx{what: "granularity", kept: true}, 0, false)
	}
	if opt.Friction != nil {
		s.checkExpr(opt.Friction, opt.FrictionPos, exprCtx{what: "friction"}, true)
		s.checkRange(opt.Friction, opt.FrictionPos, exprCtx{what: "friction", kept: true}, 0, true)
	}

	s.checkPerformance(opt)
	s.checkCapacity(opt)
	s.checkFinite(opt)
	s.checkPrediction(opt)
}

// checkFinite reports as out of range (negative-tag) the choices never placed
// because a quantity their plans evaluate is NaN or an infinity
// (rsl.ErrNonFinite): an error when no choice is left, a warning otherwise.
func (s *optScope) checkFinite(opt *rsl.OptionSpec) {
	var first *match.NoFitError
	failed := 0
	for _, p := range s.plans {
		if why := p.Failure(); why != nil && errors.Is(why, rsl.ErrNonFinite) {
			first, failed = cmp.Or(first, why), failed+1
		}
	}
	switch {
	case failed > 0 && failed == len(s.plans):
		s.diag("negative-tag", SevError, opt.Pos,
			"no choice the controller enumerates can be placed: %s", first.Reason())
	case failed > 0:
		s.diag("negative-tag", SevWarn, opt.Pos,
			"%d of the %d choices the controller enumerates can never be placed (e.g. %s)", failed, len(s.plans), first.Reason())
	}
}

// checkPrediction reports the choices whose default-model prediction is not
// a finite time. The model divides a node's seconds by the node's speed,
// scaled down by contention: never above the fastest declared speed, and on an
// idle cluster never below the slowest over the replicas the plan may stack
// on one node. A choice with a spec whose seconds over the fastest speed is an
// infinity never predicts a finite time, and the controller refuses it: an
// error when no choice that resolves is left. A choice that does so over the
// slowest speed may, even on an idle cluster: a warning, as for some choices
// that never do. Skipped without declarations, and for an explicit model.
func (s *optScope) checkPrediction(opt *rsl.OptionSpec) {
	capa := &s.a.capa
	if capa.FastestSpeed <= 0 || len(opt.Performance) > 0 {
		return
	}
	resolved, never, may, witness := 0, 0, 0, ""
	for _, p := range s.plans {
		if p.Failure() != nil {
			continue
		}
		resolved++
		stack := float64(p.Replicas())
		why, always := "", false
		for k := range opt.Nodes {
			secs, _ := p.Seconds(k)
			name := opt.Nodes[k].LocalName
			if t := secs / capa.FastestSpeed; math.IsInf(t, 0) {
				why, always = fmt.Sprintf("node %q: seconds %g over the fastest declared speed %g is %g", name, secs, capa.FastestSpeed, t), true
				break
			}
			if t := secs * stack / capa.SlowestSpeed; why == "" && math.IsInf(t, 0) {
				why = fmt.Sprintf("node %q: seconds %g times the %g replica(s) that may share a node over the slowest declared speed %g is %g", name, secs, stack, capa.SlowestSpeed, t)
			}
		}
		switch {
		case always:
			never++
		case why != "":
			may++
		}
		witness = cmp.Or(witness, why)
	}
	switch {
	case never > 0 && never == resolved:
		s.diag("infinite-prediction", SevError, opt.Pos,
			"no choice the controller enumerates predicts a finite time: %s", witness)
	case never+may > 0:
		s.diag("infinite-prediction", SevWarn, opt.Pos,
			"%d of the %d choices the controller enumerates may predict no finite time (e.g. %s)", never+may, resolved, witness)
	}
}

// exprCtx names what an expression belongs to, e.g. `node "n" tag
// "seconds"`, and is put into words only when a finding is reported.
type exprCtx struct {
	kind ctxKind
	// a and b are the node and tag names, or a link's two ends; what is the
	// link field or the option tag.
	a, b, what string
	// kept marks a tag whose value the plan keeps, with the error, when it
	// does not evaluate (friction, granularity): checkRange reports that.
	// Any other quantity that does not evaluate fails its plan, and
	// checkFinite reports it.
	kept bool
}

// ctxKind is what an exprCtx names; the zero kind is an option tag, named
// by what alone.
type ctxKind int

const (
	tagCtx ctxKind = iota + 1
	replicateCtx
	linkCtx
)

// String implements fmt.Stringer.
func (c exprCtx) String() string {
	switch c.kind {
	case tagCtx:
		return fmt.Sprintf("node %q tag %q", c.a, c.b)
	case replicateCtx:
		return fmt.Sprintf("node %q replicate", c.a)
	case linkCtx:
		return fmt.Sprintf("link %s-%s %s", c.a, c.b, c.what)
	}
	return c.what
}

func (s *optScope) localNames() []string {
	names := make([]string, 0, len(s.locals))
	for n := range s.locals {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func sortedTagNames(tags map[string]rsl.TagValue) []string {
	names := make([]string, 0, len(tags))
	for n := range tags {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// checkExpr reports unbound names, constant ternaries and zero divisors in
// one expression. allowLocals states whether granted-resource names
// (local.memory, local.seconds) are visible, which holds for link,
// communication and friction expressions but not for node tags or
// granularity (the matcher evaluates those under the variable env alone).
func (s *optScope) checkExpr(e rsl.Expr, pos rsl.Pos, ctx exprCtx, allowLocals bool) {
	if e == nil {
		return
	}
	seen := make(map[string]bool)
	for _, name := range e.Vars(nil) {
		if seen[name] {
			continue
		}
		seen[name] = true
		if _, ok := s.vars[name]; ok {
			continue
		}
		if allowLocals && s.isGrantedName(name) {
			continue
		}
		if !allowLocals && s.isGrantedName(name) {
			s.diag("unbound-var", SevError, pos,
				"%s: granted-resource name %q is only visible in link, communication and friction expressions", ctx, name)
			continue
		}
		if local, _, found := strings.Cut(name, "."); found && s.locals[local] {
			s.diag("unbound-var", SevError, pos,
				"%s: unbound name %q (only %s.memory and %s.seconds are granted)", ctx, name, local, local)
			continue
		}
		hint := ""
		if len(s.vars) > 0 {
			hint = " (declared variables: " + strings.Join(s.varNames(), ", ") + ")"
		}
		s.diag("unbound-var", SevError, pos, "%s: expression references unbound name %q%s", ctx, name, hint)
	}

	rsl.Walk(e, func(x rsl.Expr) {
		switch n := x.(type) {
		case *rsl.CondExpr:
			if v, ok := constVal(n.Cond); ok {
				branch := "else"
				if v != 0 {
					branch = "then"
				}
				s.diag("const-ternary", SevWarn, pos,
					"%s: ternary condition %s is constant; the %s branch always wins", ctx, n.Cond, branch)
				return
			}
			// The condition varies syntactically but may still be decided
			// by the admissible bindings alone.
			seen, trues := 0, 0
			s.eachEnv(n.Cond, allowLocals, func(env rsl.Env, _ []string) bool {
				if v, err := n.Cond.Eval(env); err == nil {
					seen++
					if v != 0 {
						trues++
					}
				}
				return true
			})
			switch {
			case seen == 0:
			case trues == seen:
				s.diag("const-ternary", SevWarn, pos,
					"%s: ternary condition %s is true for every admissible binding; the then branch always wins", ctx, n.Cond)
			case trues == 0:
				s.diag("const-ternary", SevWarn, pos,
					"%s: ternary condition %s is false for every admissible binding; the else branch always wins", ctx, n.Cond)
			}
		case *rsl.BinaryExpr:
			if n.Op != "/" && n.Op != "%" {
				return
			}
			if v, ok := constVal(n.R); ok {
				if v == 0 {
					s.diag("div-zero", SevError, pos,
						"%s: divisor of %q is the constant zero", ctx, n.String())
				}
				return
			}
			seen, zeros, witness := 0, 0, ""
			s.eachEnv(n.R, allowLocals, func(env rsl.Env, names []string) bool {
				if v, err := n.R.Eval(env); err == nil {
					seen++
					if v == 0 {
						if zeros == 0 {
							witness = describeBinding(env, names)
						}
						zeros++
					}
				}
				return true
			})
			switch {
			case zeros == 0:
			case zeros == seen:
				s.diag("div-zero", SevError, pos,
					"%s: divisor of %q is zero for every admissible binding", ctx, n.String())
			default:
				s.diag("div-zero", SevWarn, pos,
					"%s: divisor of %q may be zero (e.g. %s)", ctx, n.String(), witness)
			}
		}
	})
}

// checkRange verifies a quantity that must be at least minAllowed over
// every admissible binding: an error when it is out of range wherever it
// evaluates (or is a constant out of range), a warning naming the first
// binding that puts it out of range otherwise. A replica count is judged as
// the matcher rounds it, so it is out of range only below minAllowed - 0.5.
func (s *optScope) checkRange(e rsl.Expr, pos rsl.Pos, ctx exprCtx, minAllowed float64, allowLocals bool) {
	if e == nil {
		return
	}
	out := func(v float64) bool {
		if ctx.kind == replicateCtx {
			v = math.Round(v)
		}
		return v < minAllowed
	}
	if v, ok := constVal(e); ok {
		if out(v) {
			s.diag("negative-tag", SevError, pos,
				"%s is %g; it must be at least %g", ctx, v, minAllowed)
		}
		return
	}
	seen, below, maxV, witness, witnessV := 0, 0, 0.0, "", 0.0
	failed, failure, failedAt := 0, error(nil), ""
	s.eachEnv(e, allowLocals, func(env rsl.Env, names []string) bool {
		v, err := e.Eval(env)
		if err != nil {
			// A division by zero is div-zero's to report.
			if ctx.kept && errors.Is(err, rsl.ErrNonFinite) {
				if failed == 0 {
					failure, failedAt = err, describeBinding(env, names)
				}
				failed++
			}
			return true
		}
		if seen == 0 || v > maxV {
			maxV = v
		}
		seen++
		if out(v) {
			if below == 0 {
				witness, witnessV = describeBinding(env, names), v
			}
			below++
		}
		return true
	})
	switch {
	case failed > 0 && seen == 0:
		s.diag("negative-tag", SevError, pos,
			"%s does not evaluate for any admissible binding: %v; the controller reads it as 0", ctx, failure)
	case failed > 0:
		s.diag("negative-tag", SevWarn, pos,
			"%s does not evaluate when %s: %v; the controller reads it as 0 there", ctx, failedAt, failure)
	}
	switch {
	case below == 0:
	case below == seen:
		s.diag("negative-tag", SevError, pos,
			"%s is at most %g for every admissible binding; it must be at least %g", ctx, maxV, minAllowed)
	default:
		s.diag("negative-tag", SevWarn, pos,
			"%s evaluates to %g when %s; it must be at least %g", ctx, witnessV, witness, minAllowed)
	}
}

func (s *optScope) checkPerformance(opt *rsl.OptionSpec) {
	if len(opt.Performance) == 0 {
		return
	}
	if opt.PerformanceUnsorted {
		s.diag("perf-unsorted", SevWarn, opt.PerformancePos,
			"performance points were listed out of ascending node order; the decoder sorts them, but the source order looks like a typo")
	}
	for _, pt := range opt.Performance {
		if pt.X < 1 {
			s.diag("perf-point", SevError, opt.PerformancePos,
				"performance point {%g %g}: node count %g is below 1", pt.X, pt.Y, pt.X)
		}
		if pt.Y < 0 {
			s.diag("perf-point", SevError, opt.PerformancePos,
				"performance point {%g %g}: expected time %g is negative", pt.X, pt.Y, pt.Y)
		}
	}

	// perf-model-range: Section 4.2 interpolates expected time over the
	// requested node count, so a model whose node-count span misses every
	// count the option's choices request only ever extrapolates.
	if len(opt.Nodes) == 0 || !s.an.Enumerated() {
		return
	}
	v := s.an.Vector(s.index)
	lo, hi := opt.Performance[0].X, opt.Performance[len(opt.Performance)-1].X
	if v.Choices > 0 && (v.Nodes.Hi < lo || v.Nodes.Lo > hi) {
		s.diag("perf-model-range", SevWarn, opt.PerformancePos,
			"performance model covers %g to %g node(s), but the option always requests %s; every prediction extrapolates", lo, hi, v.Nodes)
	}
}

// checkCapacity verifies the option against declared harmonyNode
// capacities: Section 4.1 matching can never succeed when no declared node
// meets a request even in the best case. It reads the least each request
// asks over the option's plans, and asks the matcher how many declared
// nodes, idle, would take a replica. Skipped when no declarations are in scope.
func (s *optScope) checkCapacity(opt *rsl.OptionSpec) {
	decls := s.a.decls
	if len(decls) == 0 {
		return
	}
	for k := range opt.Nodes {
		spec := &opt.Nodes[k]
		// least is the plan granting the spec the least memory: its demand
		// admits every node any other choice's does.
		var least *match.Plan
		var grant float64
		replicas := 0
		for _, p := range s.plans {
			n, mb, ok := p.Spec(k)
			if !ok {
				continue
			}
			if least == nil || mb < grant {
				least, grant = p, mb
			}
			if replicas == 0 || n < replicas {
				replicas = n
			}
		}
		if least == nil {
			continue
		}
		eligible := least.Admitting(k, decls)
		if eligible == 0 {
			s.diag("node-unsatisfiable", SevError, spec.Pos,
				"no declared harmonyNode satisfies node %q (%s; %d node(s) declared)",
				spec.LocalName, describeDemand(spec, grant), len(decls))
			continue
		}
		if spec.HostPattern == "*" && replicas > eligible {
			s.diag("replicate-unsatisfiable", SevError, spec.ReplicatePos,
				"node %q needs at least %d distinct hosts, but only %d declared node(s) qualify",
				spec.LocalName, replicas, eligible)
		}
	}

	for k := range opt.Links {
		ls := &opt.Links[k]
		bwMin, ok := s.least(func(p *match.Plan) (float64, bool) { return p.LinkBandwidth(k) })
		if ok && bwMin > switchBandwidthMbps {
			sev := SevWarn
			if linksTwoHosts(opt, ls) {
				sev = SevError
			}
			s.diag("link-bandwidth", sev, ls.Pos,
				"link %s-%s needs at least %g Mbps; the interconnect provides %g Mbps",
				ls.A, ls.B, bwMin, switchBandwidthMbps)
		}
	}
	// Matching does not refuse a communication demand by capacity: it
	// spreads it over the pairs, which it then over-subscribes.
	if commMin, ok := s.least((*match.Plan).Communication); ok && commMin > switchBandwidthMbps {
		s.diag("link-bandwidth", SevWarn, opt.CommunicationPos,
			"communication needs at least %g Mbps; the interconnect provides %g Mbps",
			commMin, switchBandwidthMbps)
	}
}

// least is the least value of a quantity over the option's plans that
// resolve it; ok is false when none does.
func (s *optScope) least(of func(*match.Plan) (float64, bool)) (lo float64, ok bool) {
	for _, p := range s.plans {
		if v, resolved := of(p); resolved && (!ok || v < lo) {
			lo, ok = v, true
		}
	}
	return lo, ok
}

// linksTwoHosts reports whether the link's ends always land on two different
// hosts, so matching checks its bandwidth against a link's capacity every
// time: two different wildcard specs (matching puts an option's wildcard
// replicas on distinct hosts) or two different fixed hosts. A wildcard and a
// fixed host may share a host, and a link within one host loads no link.
func linksTwoHosts(opt *rsl.OptionSpec, ls *rsl.LinkSpec) bool {
	var a, b *rsl.NodeSpec
	for i := range opt.Nodes {
		switch opt.Nodes[i].LocalName {
		case ls.A:
			a = &opt.Nodes[i]
		case ls.B:
			b = &opt.Nodes[i]
		}
	}
	if a == nil || b == nil {
		return false
	}
	if a.HostPattern == "*" || b.HostPattern == "*" {
		return a.HostPattern == b.HostPattern
	}
	return a.HostPattern != b.HostPattern
}

// describeDemand puts into words what node spec asks of a machine, granted
// grantMB of memory.
func describeDemand(spec *rsl.NodeSpec, grantMB float64) string {
	var parts []string
	if spec.HostPattern != "*" {
		parts = append(parts, "host "+spec.HostPattern)
	}
	for _, tag := range []string{"hostname", "os"} {
		if t, ok := spec.Tags[tag]; ok && t.IsString {
			parts = append(parts, tag+" "+t.Str)
		}
	}
	if t, ok := spec.Tags["memory"]; ok && !t.IsString {
		parts = append(parts, fmt.Sprintf("memory >= %g MB", grantMB))
	}
	if len(parts) == 0 {
		return "no constraints"
	}
	return strings.Join(parts, ", ")
}

// checkDominated flags options that an earlier sibling dominates at every
// choice the controller enumerates (Bundle.Dominance): the controller
// evaluates options in lexical order and adopts a later candidate only on a
// strictly better score, so an option an earlier sibling always ties or
// beats can never be chosen, whatever the cluster's state.
func (a *analysis) checkDominated(an *Bundle) {
	b := an.Spec
	for _, d := range an.Dominance() {
		oj := &b.Options[d.Dominated]
		a.diag("dominated-option", SevWarn, oj.Pos, b.Name, oj.Name,
			"%s; this option can never be chosen", d.Detail)
	}
}

// checkUnreachable flags options whose least total memory, distinct host
// count or pinned memory over their enumerated choices exceeds what the
// declared cluster provides even when idle. Such an option can never be
// matched in any live state, since live capacity never exceeds declared
// capacity.
func (a *analysis) checkUnreachable(an *Bundle) {
	b := an.Spec
	if a.capa.Nodes == 0 {
		return
	}
	// The per-spec capacity checks have already run; when one of them
	// proved a single request unsatisfiable, the aggregate verdict adds
	// nothing, so keep only the sharper finding.
	perSpec := make(map[string]bool)
	for _, d := range a.rep.Diags {
		if d.Bundle == b.Name && d.Severity == SevError &&
			(d.Check == "node-unsatisfiable" || d.Check == "replicate-unsatisfiable") {
			perSpec[d.Option] = true
		}
	}
	for i := range b.Options {
		opt := &b.Options[i]
		if perSpec[opt.Name] {
			continue
		}
		if why := unreachable(an.Vector(i), a.capa); why != "" {
			a.diag("unreachable-option", SevError, opt.Pos, b.Name, opt.Name,
				"%s; no cluster state can ever admit this option", why)
		}
	}
}

// --- expression utilities ---

// constVal folds an expression with no free variables to its value.
func constVal(e rsl.Expr) (float64, bool) {
	if e == nil || len(e.Vars(nil)) > 0 {
		return 0, false
	}
	v, err := e.Eval(nil)
	if err != nil {
		return 0, false
	}
	return v, true
}

// varNames lists the scope's declared variables, sorted.
func (s *optScope) varNames() []string {
	names := make([]string, 0, len(s.vars))
	for n := range s.vars {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// isGrantedName reports whether name is a granted-resource binding
// (local.memory or local.seconds for a node of this option).
func (s *optScope) isGrantedName(name string) bool {
	local, field, found := strings.Cut(name, ".")
	if !found || !s.locals[local] {
		return false
	}
	return field == "memory" || field == "seconds"
}

// eachEnv calls fn with every environment e is evaluated in, and the
// sorted names of e it binds, until fn returns false. An expression that
// cannot see granted names is evaluated at every binding of its own
// variables, the first in sorted order varying slowest; one that can is
// evaluated at every enumerated choice, in its plan's environment
// (match.Plan.Env: each node spec's granted memory and seconds, as far as
// the plan resolved them). Nothing is enumerated when
// the bundle is over the cap, or e references a name the scope does not
// bind (the unbound-var check reports those).
func (s *optScope) eachEnv(e rsl.Expr, allowLocals bool, fn func(env rsl.Env, names []string) bool) {
	if !s.an.Enumerated() {
		return
	}
	var names []string
	for _, name := range e.Vars(nil) {
		if slices.Contains(names, name) {
			continue
		}
		if _, ok := s.vars[name]; !ok && !(allowLocals && s.isGrantedName(name)) {
			return
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if allowLocals {
		if s.envs == nil {
			s.envs = make([]rsl.Env, len(s.plans))
			for i, p := range s.plans {
				s.envs[i] = p.Env()
			}
		}
		for _, env := range s.envs {
			if !fn(env, names) {
				return
			}
		}
		return
	}
	env := make(rsl.MapEnv, len(names))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(names) {
			return fn(env, names)
		}
		for _, v := range s.vars[names[i]] {
			env[names[i]] = v
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
}

// describeBinding renders the named bindings of env, e.g. "workerNodes=0"
// or "client.memory=25".
func describeBinding(env rsl.Env, names []string) string {
	if len(names) == 0 {
		return "always"
	}
	parts := make([]string, len(names))
	for i, n := range names {
		v, _ := env.Lookup(n)
		parts[i] = fmt.Sprintf("%s=%g", n, v)
	}
	return strings.Join(parts, ", ")
}
