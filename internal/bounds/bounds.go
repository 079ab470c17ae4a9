// Package bounds computes static per-option resource bound vectors and an
// option dominance partial order for RSL bundles. It lifts the scalar
// interval evaluator of internal/vet/absint to whole options: for each
// resource dimension the controller's matcher consumes (total memory,
// node count, distinct wildcard hosts, exclusively held nodes, per-host
// pinned memory, aggregate bandwidth) it computes an interval covering
// every variable binding the option admits, plus the range of the
// explicit performance model over the attainable node counts.
//
// Package vet builds on the vectors to prove options dead before the
// controller ever sees them (dominated-option, unreachable-option), and its
// workload check — run by the server on every bundle_setup — sums their
// lower ends over the admitted bundles and the incoming one; harmonyctl
// analyze prints them. The controller does not use them: its pruning
// proves infeasibility from each choice's resolved plan instead.
// Soundness is the contract: every bound is an over-approximation, so a
// "never" proved here is a "never" in the concrete system.
package bounds

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"harmony/internal/predict"
	"harmony/internal/rsl"
	"harmony/internal/vet/absint"
)

// Vector bounds one option's footprint over every admissible variable
// binding. Each interval covers the quantity for any binding and any
// grant the controller can make; unanalyzable expressions widen to
// [0, +inf) rather than failing, keeping lower bounds sound.
type Vector struct {
	// Nodes is the total replica count across all node specs.
	Nodes absint.Interval
	// DistinctHosts is the replica count over wildcard specs only; each
	// such replica occupies a distinct host during matching.
	DistinctHosts absint.Interval
	// MemoryMB is the total granted memory over all replicas.
	MemoryMB absint.Interval
	// ExclusiveNodes is how many nodes the option holds exclusively.
	ExclusiveNodes absint.Interval
	// PerHostMB is the memory pinned to specific hostnames.
	PerHostMB map[string]absint.Interval
	// BandwidthMbps is the aggregate link plus communication bandwidth.
	BandwidthMbps absint.Interval
	// Seconds is the explicit performance model's range over the
	// attainable node counts; empty when the option has no model.
	Seconds absint.Interval
}

// optionEnv is the abstract environment of one option: each declared
// variable bound to the convex hull of its domain and, once the node pass
// has set grants, each node spec's granted local.memory and local.seconds,
// for link, communication and friction expressions. Lookup scans the
// option's own declarations, so resolving a name builds nothing.
type optionEnv struct {
	opt  *rsl.OptionSpec
	vars []absint.Interval // parallel to opt.Variables
	// grants holds the memory and seconds grant of each node spec, at 2i
	// and 2i+1; nil before the node pass, when no granted name resolves.
	grants []absint.Interval
}

func newOptionEnv(opt *rsl.OptionSpec) *optionEnv {
	e := &optionEnv{opt: opt, vars: make([]absint.Interval, len(opt.Variables))}
	for i, v := range opt.Variables {
		e.vars[i] = absint.FromValues(v.Values)
	}
	return e
}

// Lookup implements absint.Env. A later declaration shadows an earlier
// one of the same name, and a granted name shadows a variable.
func (e *optionEnv) Lookup(name string) (absint.Interval, bool) {
	for i := len(e.grants)/2 - 1; i >= 0; i-- {
		local := e.opt.Nodes[i].LocalName
		if len(name) <= len(local) || name[len(local)] != '.' || name[:len(local)] != local {
			continue
		}
		switch name[len(local)+1:] {
		case "memory":
			return e.grants[2*i], true
		case "seconds":
			return e.grants[2*i+1], true
		}
	}
	for i := len(e.vars) - 1; i >= 0; i-- {
		if e.opt.Variables[i].Name == name {
			return e.vars[i], true
		}
	}
	return absint.Interval{}, false
}

// clampNonneg restricts an interval to the non-negative axis; resource
// quantities below zero never reach the matcher as demands.
func clampNonneg(iv absint.Interval) absint.Interval {
	if iv.IsEmpty() {
		return iv
	}
	return absint.Of(math.Max(iv.Lo, 0), math.Max(iv.Hi, 0))
}

// unknown is the weakest non-negative bound, used where analysis fails.
func unknown() absint.Interval { return absint.Of(0, math.Inf(1)) }

// tagInterval bounds a numeric node tag's granted quantity: an OpMin tag
// may be granted anything at or above its expression, an OpMax tag
// anything from zero up to it.
func tagInterval(spec *rsl.NodeSpec, name string, env absint.Env) absint.Interval {
	tag, ok := spec.Tags[name]
	if !ok || tag.IsString || tag.Expr == nil {
		return absint.Point(0)
	}
	h := absint.Eval(tag.Expr, env).Val
	if h.IsEmpty() {
		h = unknown()
	}
	h = clampNonneg(h)
	switch tag.Op {
	case rsl.OpMin:
		return absint.Of(h.Lo, math.Inf(1))
	case rsl.OpMax:
		return absint.Of(0, h.Hi)
	}
	return h
}

// replicateInterval bounds a spec's replica count (nil means exactly 1).
func replicateInterval(spec *rsl.NodeSpec, env absint.Env) absint.Interval {
	if spec.Replicate == nil {
		return absint.Point(1)
	}
	r := absint.Eval(spec.Replicate, env).Val
	if r.IsEmpty() {
		return unknown()
	}
	return clampNonneg(r)
}

// pinnedHost is the hostname a spec is pinned to, or "" for wildcard.
func pinnedHost(spec *rsl.NodeSpec) string {
	host := ""
	if spec.HostPattern != "*" {
		host = spec.HostPattern
	}
	if tag, ok := spec.Tags["hostname"]; ok && tag.IsString {
		host = tag.Str
	}
	return host
}

// Option computes the bound vector of one option.
func Option(opt *rsl.OptionSpec) Vector {
	v, _ := option(opt)
	return v
}

// option computes the bound vector of one option and returns the
// environment it evaluated links and communication in, with every node
// spec's grant set. Each memory and seconds tag is evaluated once.
func option(opt *rsl.OptionSpec) (Vector, *optionEnv) {
	env := newOptionEnv(opt)
	v := Vector{
		Nodes:          absint.Point(0),
		DistinctHosts:  absint.Point(0),
		MemoryMB:       absint.Point(0),
		ExclusiveNodes: absint.Point(0),
		BandwidthMbps:  absint.Point(0),
		Seconds:        absint.Empty(),
	}
	grants := make([]absint.Interval, 2*len(opt.Nodes))
	for i := range opt.Nodes {
		spec := &opt.Nodes[i]
		mem := tagInterval(spec, "memory", env)
		grants[2*i] = mem
		grants[2*i+1] = secondsGrant(spec, env)
		rep := replicateInterval(spec, env)
		v.Nodes = v.Nodes.Add(rep)
		v.MemoryMB = v.MemoryMB.Add(rep.Mul(mem))
		if spec.HostPattern == "*" {
			v.DistinctHosts = v.DistinctHosts.Add(rep)
		}
		if tag, ok := spec.Tags["exclusive"]; ok && !tag.IsString && tag.Expr != nil {
			t := absint.Eval(tag.Expr, env).Val
			if t.IsEmpty() {
				t = absint.Top()
			}
			lo, hi := 0.0, 0.0
			if t.Hi > 0 {
				hi = math.Max(rep.Hi, 1)
			}
			if t.Lo > 0 {
				lo = math.Max(rep.Lo, 1)
			}
			v.ExclusiveNodes = v.ExclusiveNodes.Add(absint.Of(lo, hi))
		}
		if host := pinnedHost(spec); host != "" {
			share := mem // at least one replica lands on the pinned host
			if spec.HostPattern != "*" {
				// A fixed-pattern spec places every replica on that host.
				share = rep.Mul(mem)
				share = absint.Of(math.Max(share.Lo, mem.Lo), share.Hi)
			}
			if v.PerHostMB == nil {
				v.PerHostMB = make(map[string]absint.Interval)
			}
			v.PerHostMB[host] = v.PerHostMB[host].Add(share)
		}
	}
	env.grants = grants
	for i := range opt.Links {
		bw := absint.Eval(opt.Links[i].Bandwidth, env).Val
		if bw.IsEmpty() {
			bw = unknown()
		}
		v.BandwidthMbps = v.BandwidthMbps.Add(clampNonneg(bw))
	}
	if opt.Communication != nil {
		comm := absint.Eval(opt.Communication, env).Val
		if comm.IsEmpty() {
			comm = unknown()
		}
		v.BandwidthMbps = v.BandwidthMbps.Add(clampNonneg(comm))
	}
	if len(opt.Performance) > 0 {
		v.Seconds = ModelRange(opt.Performance, v.Nodes)
	}
	return v, env
}

// secondsGrant bounds a spec's granted seconds: the matcher grants the
// tag's value whatever its operator, and zero without one.
func secondsGrant(spec *rsl.NodeSpec, env absint.Env) absint.Interval {
	tag, ok := spec.Tags["seconds"]
	if !ok || tag.IsString || tag.Expr == nil {
		return absint.Point(0)
	}
	sec := absint.Eval(tag.Expr, env).Val
	if sec.IsEmpty() {
		return unknown()
	}
	return clampNonneg(sec)
}

// ModelRange bounds a piecewise-linear performance model over an interval
// of node counts. Interpolation extends flat beyond the model's span, so
// the extremes lie at the knots clamped into the count range.
func ModelRange(points []rsl.PerfPoint, n absint.Interval) absint.Interval {
	if len(points) == 0 || n.IsEmpty() {
		return absint.Empty()
	}
	clamp := func(x float64) float64 { return math.Min(math.Max(x, n.Lo), n.Hi) }
	out := absint.Empty()
	for _, p := range points {
		if y, err := predict.Interpolate(points, clamp(p.X)); err == nil {
			out = absint.Join(out, absint.Point(y))
		}
	}
	return out
}

// Unreachability is one proof that an option can never match a cluster.
type Unreachability struct {
	// Reason is a human-readable statement of the violated bound.
	Reason string
}

// Unreachable proves, when possible, that an option with bound vector v
// can never be matched against the declared cluster: a resource LOWER
// bound (over every binding and grant) exceeds what the full cluster
// provides even when idle. A proof here holds in every live state, since
// live capacity never exceeds declared capacity.
func Unreachable(v Vector, decls []*rsl.NodeDecl) (Unreachability, bool) {
	if len(decls) == 0 {
		return Unreachability{}, false
	}
	capMem, hostMem := 0.0, make(map[string]float64, len(decls))
	for _, d := range decls {
		capMem += d.MemoryMB
		hostMem[d.Hostname] += d.MemoryMB
	}
	if v.MemoryMB.Lo > capMem {
		return Unreachability{Reason: fmt.Sprintf(
			"needs at least %g MB of memory in total, but the cluster provides %g MB across %d node(s)",
			v.MemoryMB.Lo, capMem, len(decls))}, true
	}
	if v.DistinctHosts.Lo > float64(len(decls)) {
		return Unreachability{Reason: fmt.Sprintf(
			"needs at least %g distinct hosts, but the cluster has %d node(s)",
			v.DistinctHosts.Lo, len(decls))}, true
	}
	hosts := make([]string, 0, len(v.PerHostMB))
	for h := range v.PerHostMB {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	for _, h := range hosts {
		have, known := hostMem[h]
		if !known {
			continue // per-spec vetting reports unknown hosts
		}
		if v.PerHostMB[h].Lo > have {
			return Unreachability{Reason: fmt.Sprintf(
				"pins at least %g MB on host %q, which has %g MB",
				v.PerHostMB[h].Lo, h, have)}, true
		}
	}
	return Unreachability{}, false
}

// Render formats an interval for tooling output, with unbounded ends
// rendered as "inf".
func Render(iv absint.Interval) string {
	if iv.IsEmpty() {
		return "-"
	}
	if v, ok := iv.IsPoint(); ok {
		return fmt.Sprintf("%g", v)
	}
	var sb strings.Builder
	sb.WriteByte('[')
	sb.WriteString(fmt.Sprintf("%g", iv.Lo))
	sb.WriteString(", ")
	if math.IsInf(iv.Hi, 1) {
		sb.WriteString("inf")
	} else {
		sb.WriteString(fmt.Sprintf("%g", iv.Hi))
	}
	sb.WriteByte(']')
	return sb.String()
}
