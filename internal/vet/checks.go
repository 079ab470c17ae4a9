package vet

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"harmony/internal/bounds"
	"harmony/internal/cluster"
	"harmony/internal/rsl"
	"harmony/internal/vet/absint"
)

// defaultSwitchBandwidthMbps mirrors the SP-2 switch assumed by the
// cluster package when no capacity is given.
const defaultSwitchBandwidthMbps = cluster.DefaultSwitchBandwidthMbps

// maxBindings caps the variable-domain cross product the analyzer is
// willing to enumerate for exact witnesses. Beyond it the domain-dependent
// checks no longer skip silently: they fall back to the interval abstract
// interpreter (package absint), which is sound for any domain size, and an
// analysis-skipped info diagnostic records the lost witness precision.
const maxBindings = 4096

// analysis carries the per-script state shared by all checks.
type analysis struct {
	rep      *Report
	opts     Options
	decls    []*rsl.NodeDecl
	switchBW float64
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
// expressions: its declared variables and its node local names.
type optScope struct {
	a      *analysis
	bundle string
	option string
	// vars maps declared variable names to their admissible values.
	vars map[string][]float64
	// locals is the set of option-local node names.
	locals map[string]bool
	// localMins binds each granted-resource name (local.memory,
	// local.seconds) to its minimal value, for best-case evaluation.
	localMins rsl.MapEnv
	// ienvVars is the interval environment of the declared variables
	// (each bound to the convex hull of its domain).
	ienvVars absint.MapEnv
	// ienvLocals extends ienvVars with the granted-resource names, each
	// bound to [min, +inf): a grant meets the request's minimum but is
	// otherwise unbounded, so interval claims stay sound for any grant.
	ienvLocals absint.MapEnv
}

func (a *analysis) checkBundle(b *rsl.BundleSpec) {
	for i := range b.Options {
		opt := &b.Options[i]
		s := a.newScope(b, opt)
		s.checkOption(opt)
	}
	a.checkDominated(b)
	a.checkUnreachable(b)
}

func (a *analysis) newScope(b *rsl.BundleSpec, opt *rsl.OptionSpec) *optScope {
	s := &optScope{
		a:         a,
		bundle:    b.Name,
		option:    opt.Name,
		vars:      make(map[string][]float64, len(opt.Variables)),
		locals:    make(map[string]bool, len(opt.Nodes)),
		localMins: make(rsl.MapEnv, 2*len(opt.Nodes)),
	}
	for _, v := range opt.Variables {
		s.vars[v.Name] = v.Values
	}
	s.ienvVars = make(absint.MapEnv, len(s.vars))
	for n, vals := range s.vars {
		s.ienvVars[n] = absint.FromValues(vals)
	}
	for i := range opt.Nodes {
		spec := &opt.Nodes[i]
		s.locals[spec.LocalName] = true
	}
	// Bind granted-resource names to their best-case (minimal) values so
	// link formulas like Figure 3's can be bounded from below.
	for i := range opt.Nodes {
		spec := &opt.Nodes[i]
		mem, _, _, okM := s.minOfTag(spec, "memory")
		if !okM {
			mem = 0
		}
		sec, _, _, okS := s.minOfTag(spec, "seconds")
		if !okS {
			sec = 0
		}
		s.localMins[spec.LocalName+".memory"] = mem
		s.localMins[spec.LocalName+".seconds"] = sec
	}
	s.ienvLocals = make(absint.MapEnv, len(s.ienvVars)+len(s.localMins))
	for n, iv := range s.ienvVars {
		s.ienvLocals[n] = iv
	}
	for n, v := range s.localMins {
		s.ienvLocals[n] = absint.Of(v, math.Inf(1))
	}
	return s
}

// ienv selects the interval environment matching an expression's scope.
func (s *optScope) ienv(allowLocals bool) absint.MapEnv {
	if allowLocals {
		return s.ienvLocals
	}
	return s.ienvVars
}

// skipped records that a witness-producing check degraded to interval
// analysis because the variable-domain cross product exceeds maxBindings.
func (s *optScope) skipped(check string, pos rsl.Pos, ctx string) {
	s.diag("analysis-skipped", SevInfo, pos,
		"%s: variable domains exceed %d combinations; the %s check fell back to interval analysis", ctx, maxBindings, check)
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
			ctx := fmt.Sprintf("node %q tag %q", spec.LocalName, tagName)
			s.checkExpr(tag.Expr, tag.Pos, ctx, false)
			switch tagName {
			case "seconds", "memory":
				s.checkRange(tag.Expr, tag.Pos, ctx, 0, false)
			}
		}
		if spec.Replicate != nil {
			ctx := fmt.Sprintf("node %q replicate", spec.LocalName)
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
		ctx := fmt.Sprintf("link %s-%s bandwidth", ls.A, ls.B)
		s.checkExpr(ls.Bandwidth, ls.Pos, ctx, true)
		s.checkRange(ls.Bandwidth, ls.Pos, ctx, 0, true)
		if ls.Latency != nil {
			lctx := fmt.Sprintf("link %s-%s latency", ls.A, ls.B)
			s.checkExpr(ls.Latency, ls.Pos, lctx, true)
			s.checkRange(ls.Latency, ls.Pos, lctx, 0, true)
		}
	}

	if opt.Communication != nil {
		s.checkExpr(opt.Communication, opt.CommunicationPos, "communication", true)
		s.checkRange(opt.Communication, opt.CommunicationPos, "communication", 0, true)
	}
	if opt.Granularity != nil {
		s.checkExpr(opt.Granularity, opt.GranularityPos, "granularity", false)
		s.checkRange(opt.Granularity, opt.GranularityPos, "granularity", 0, false)
	}
	if opt.Friction != nil {
		s.checkExpr(opt.Friction, opt.FrictionPos, "friction", true)
		s.checkRange(opt.Friction, opt.FrictionPos, "friction", 0, true)
	}

	s.checkPerformance(opt)
	s.checkCapacity(opt)
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
func (s *optScope) checkExpr(e rsl.Expr, pos rsl.Pos, ctx string, allowLocals bool) {
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
			// by the admissible domains alone.
			switch absint.Eval(n.Cond, s.ienv(allowLocals)).Val.Truth() {
			case absint.TruthTrue:
				s.diag("const-ternary", SevWarn, pos,
					"%s: ternary condition %s is true for every admissible binding; the then branch always wins", ctx, n.Cond)
			case absint.TruthFalse:
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
			div := absint.Eval(n.R, s.ienv(allowLocals)).Val
			if v, ok := div.IsPoint(); ok && v == 0 {
				s.diag("div-zero", SevError, pos,
					"%s: divisor of %q is zero for every admissible binding", ctx, n.String())
				return
			}
			if !div.ContainsZero() {
				return // interval analysis proves the divisor nonzero
			}
			base := rsl.MapEnv(nil)
			if allowLocals {
				base = s.localMins
			}
			names, analyzable := s.scopeVarsOf(n.R, base)
			if !analyzable {
				return
			}
			complete := s.forEach(names, base, func(env rsl.MapEnv) bool {
				v, err := n.R.Eval(env)
				if err == nil && v == 0 {
					s.diag("div-zero", SevWarn, pos,
						"%s: divisor of %q may be zero (e.g. %s)", ctx, n.String(), describeBinding(env, names))
					return false
				}
				return true
			})
			if !complete {
				s.skipped("div-zero", pos, ctx)
				s.diag("div-zero", SevWarn, pos,
					"%s: divisor of %q may be zero (admissible range %s)", ctx, n.String(), div)
			}
		}
	})
}

// checkRange verifies a quantity that must be at least minAllowed: an
// error when the expression is provably out of range for every admissible
// binding (constant, or interval-bounded below minAllowed), a warning when
// some admissible variable binding puts it out of range. The interval
// analysis also proves many expressions in range, skipping enumeration.
func (s *optScope) checkRange(e rsl.Expr, pos rsl.Pos, ctx string, minAllowed float64, allowLocals bool) {
	if e == nil {
		return
	}
	if v, ok := constVal(e); ok {
		if v < minAllowed {
			s.diag("negative-tag", SevError, pos,
				"%s is %g; it must be at least %g", ctx, v, minAllowed)
		}
		return
	}
	rng := absint.Eval(e, s.ienv(allowLocals)).Val
	if !rng.IsEmpty() {
		if rng.Hi < minAllowed {
			s.diag("negative-tag", SevError, pos,
				"%s is at most %g for every admissible binding; it must be at least %g", ctx, rng.Hi, minAllowed)
			return
		}
		if rng.Lo >= minAllowed {
			return // interval analysis proves the quantity in range
		}
	}
	base := rsl.MapEnv(nil)
	if allowLocals {
		base = s.localMins
	}
	names, analyzable := s.scopeVarsOf(e, base)
	if !analyzable {
		return
	}
	complete := s.forEach(names, base, func(env rsl.MapEnv) bool {
		v, err := e.Eval(env)
		if err == nil && v < minAllowed {
			s.diag("negative-tag", SevWarn, pos,
				"%s evaluates to %g when %s; it must be at least %g", ctx, v, describeBinding(env, names), minAllowed)
			return false
		}
		return true
	})
	if !complete {
		s.skipped("negative-tag", pos, ctx)
		s.diag("negative-tag", SevWarn, pos,
			"%s may fall below %g (admissible range %s); it must be at least %g", ctx, minAllowed, rng, minAllowed)
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
	// count the option can request only ever extrapolates.
	if len(opt.Nodes) == 0 {
		return
	}
	total := absint.Point(0)
	for i := range opt.Nodes {
		spec := &opt.Nodes[i]
		rep := absint.Point(1)
		if spec.Replicate != nil {
			rv := absint.Eval(spec.Replicate, s.ienvVars).Val
			if rv.IsEmpty() {
				return // unanalyzable replicate; unbound-var reports it
			}
			rep = rv
		}
		total = total.Add(rep)
	}
	lo, hi := opt.Performance[0].X, opt.Performance[len(opt.Performance)-1].X
	if absint.Meet(total, absint.Of(lo, hi)).IsEmpty() {
		s.diag("perf-model-range", SevWarn, opt.PerformancePos,
			"performance model covers %g to %g node(s), but the option always requests %s; every prediction extrapolates", lo, hi, total)
	}
}

// checkCapacity verifies the option against declared harmonyNode
// capacities: Section 4.1 matching can never succeed when no declared node
// meets a request even in the best case. Skipped when no declarations are
// in scope.
func (s *optScope) checkCapacity(opt *rsl.OptionSpec) {
	decls := s.a.decls
	if len(decls) == 0 {
		return
	}
	for i := range opt.Nodes {
		spec := &opt.Nodes[i]
		memMin, _, memBailed, memOK := s.minOfTag(spec, "memory")
		if memBailed {
			s.skipped("node-unsatisfiable", spec.Tags["memory"].Pos,
				fmt.Sprintf("node %q tag \"memory\"", spec.LocalName))
		}
		var osWant, hostWant string
		if tag, ok := spec.Tags["os"]; ok && tag.IsString {
			osWant = tag.Str
		}
		if tag, ok := spec.Tags["hostname"]; ok && tag.IsString {
			hostWant = tag.Str
		}
		eligible := 0
		for _, d := range decls {
			if spec.HostPattern != "*" && d.Hostname != spec.HostPattern {
				continue
			}
			if hostWant != "" && d.Hostname != hostWant {
				continue
			}
			if osWant != "" && d.OS != osWant {
				continue
			}
			if memOK && d.MemoryMB < memMin {
				continue
			}
			eligible++
		}
		if eligible == 0 {
			s.diag("node-unsatisfiable", SevError, spec.Pos,
				"no declared harmonyNode satisfies node %q (%s; %d node(s) declared)",
				spec.LocalName, s.describeDemand(spec, memMin, memOK, osWant, hostWant), len(decls))
			continue
		}
		if spec.Replicate != nil && spec.HostPattern == "*" {
			repMin, _, repBailed, repOK := s.evalMin(spec.Replicate, nil)
			if repBailed {
				s.skipped("replicate-unsatisfiable", spec.ReplicatePos,
					fmt.Sprintf("node %q replicate", spec.LocalName))
			}
			if repOK && repMin > float64(eligible) {
				s.diag("replicate-unsatisfiable", SevError, spec.ReplicatePos,
					"node %q needs at least %g distinct hosts, but only %d declared node(s) qualify",
					spec.LocalName, repMin, eligible)
			}
		}
	}

	for i := range opt.Links {
		ls := &opt.Links[i]
		bwMin, _, bwBailed, ok := s.evalMin(ls.Bandwidth, s.localMins)
		if bwBailed {
			s.skipped("link-bandwidth", ls.Pos, fmt.Sprintf("link %s-%s bandwidth", ls.A, ls.B))
		}
		if ok && bwMin > s.a.switchBW {
			s.diag("link-bandwidth", SevWarn, ls.Pos,
				"link %s-%s needs at least %g Mbps; the interconnect provides %g Mbps",
				ls.A, ls.B, bwMin, s.a.switchBW)
		}
	}
	if opt.Communication != nil {
		commMin, _, commBailed, ok := s.evalMin(opt.Communication, s.localMins)
		if commBailed {
			s.skipped("link-bandwidth", opt.CommunicationPos, "communication")
		}
		if ok && commMin > s.a.switchBW {
			s.diag("link-bandwidth", SevWarn, opt.CommunicationPos,
				"communication needs at least %g Mbps; the interconnect provides %g Mbps",
				commMin, s.a.switchBW)
		}
	}
}

func (s *optScope) describeDemand(spec *rsl.NodeSpec, memMin float64, memOK bool, osWant, hostWant string) string {
	var parts []string
	if spec.HostPattern != "*" {
		parts = append(parts, "host "+spec.HostPattern)
	}
	if hostWant != "" {
		parts = append(parts, "hostname "+hostWant)
	}
	if osWant != "" {
		parts = append(parts, "os "+osWant)
	}
	if memOK {
		parts = append(parts, fmt.Sprintf("memory >= %g MB", memMin))
	}
	if len(parts) == 0 {
		return "no constraints"
	}
	return strings.Join(parts, ", ")
}

// checkDominated flags options the relational bounds engine proves
// dominated by an earlier sibling: the controller evaluates options in
// lexical order and adopts a later candidate only on a strictly better
// score, so an option an earlier sibling always ties or beats can never
// be chosen. The proof quantifies over every variable binding, grant and
// cluster state, and is sound at any domain size — no enumeration.
func (a *analysis) checkDominated(b *rsl.BundleSpec) {
	for _, d := range bounds.Dominance(b) {
		oj := &b.Options[d.Dominated]
		a.diag("dominated-option", SevWarn, oj.Pos, b.Name, oj.Name,
			"%s; this option can never be chosen", d.Detail)
	}
}

// checkUnreachable flags options whose resource lower bound — over every
// variable binding and every admissible grant — exceeds what the declared
// cluster provides even when idle. Such an option can never be matched in
// any live state, since live capacity never exceeds declared capacity.
func (a *analysis) checkUnreachable(b *rsl.BundleSpec) {
	if len(a.decls) == 0 {
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
		if u, ok := bounds.Unreachable(bounds.Option(opt), a.decls); ok {
			a.diag("unreachable-option", SevError, opt.Pos, b.Name, opt.Name,
				"%s; no cluster state can ever admit this option", u.Reason)
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

// scopeVarsOf lists the free variables of e that range over declared
// domains. analyzable is false when e references a name neither in scope
// nor bound by base (the unbound-var check reports those separately).
func (s *optScope) scopeVarsOf(e rsl.Expr, base rsl.MapEnv) (names []string, analyzable bool) {
	seen := make(map[string]bool)
	for _, name := range e.Vars(nil) {
		if seen[name] {
			continue
		}
		seen[name] = true
		if _, ok := s.vars[name]; ok {
			names = append(names, name)
			continue
		}
		if _, ok := base[name]; ok {
			continue
		}
		return nil, false
	}
	sort.Strings(names)
	return names, true
}

// forEach enumerates every admissible binding of the named variables over
// their domains (on top of base), calling fn until it returns false.
// Returns false when the cross product exceeds maxBindings.
func (s *optScope) forEach(names []string, base rsl.MapEnv, fn func(env rsl.MapEnv) bool) bool {
	total := 1
	for _, n := range names {
		total *= len(s.vars[n])
		if total > maxBindings {
			return false
		}
	}
	env := make(rsl.MapEnv, len(base)+len(names))
	for k, v := range base {
		env[k] = v
	}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(names) {
			return fn(env)
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
	return true
}

// evalMin returns a sound lower bound for e over every admissible variable
// binding (locals bound by base): the exact enumerated minimum when the
// domain cross product fits under maxBindings (exact=true), the interval
// lower bound otherwise (bailed=true; locals are then taken as unbounded
// above their minimums). ok is false when e references unresolvable names
// or provably never evaluates.
func (s *optScope) evalMin(e rsl.Expr, base rsl.MapEnv) (lo float64, exact, bailed, ok bool) {
	if e == nil {
		return 0, false, false, false
	}
	names, analyzable := s.scopeVarsOf(e, base)
	if !analyzable {
		return 0, false, false, false
	}
	minV, found := 0.0, false
	complete := s.forEach(names, base, func(env rsl.MapEnv) bool {
		v, err := e.Eval(env)
		if err == nil && (!found || v < minV) {
			minV, found = v, true
		}
		return true
	})
	if complete {
		return minV, true, false, found
	}
	val := absint.Eval(e, s.ienv(len(base) > 0)).Val
	if val.IsEmpty() {
		return 0, false, true, false
	}
	return val.Lo, false, true, true
}

// minOfTag evaluates the best-case (minimal) value of a numeric node tag.
func (s *optScope) minOfTag(spec *rsl.NodeSpec, tagName string) (lo float64, exact, bailed, ok bool) {
	tag, tagOK := spec.Tags[tagName]
	if !tagOK || tag.IsString || tag.Expr == nil {
		return 0, false, false, false
	}
	return s.evalMin(tag.Expr, nil)
}

// describeBinding renders the named variables of env, e.g. "workerNodes=0".
func describeBinding(env rsl.MapEnv, names []string) string {
	if len(names) == 0 {
		return "always"
	}
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%g", n, env[n])
	}
	return strings.Join(parts, ", ")
}
