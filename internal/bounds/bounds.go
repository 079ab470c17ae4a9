// Package bounds computes per-option resource bound vectors and an option
// dominance partial order for RSL bundles, from the choices the controller
// enumerates (rsl.OptionSpec.Choices): each option's variable bindings
// times the grant ladder of its minimum memory tags. For each resource
// dimension the matcher consumes (total memory, node count, distinct
// wildcard hosts, exclusively held nodes, per-host pinned memory, aggregate
// bandwidth) a vector holds the least and greatest value over the choices
// that resolve, plus the explicit performance model's range at their node
// counts.
//
// Package vet builds on the vectors to prove options dead before the
// controller ever sees them (dominated-option, unreachable-option), and its
// workload check — run by the server on every bundle_setup — sums their
// lower ends over the admitted bundles and the incoming one; harmonyctl
// analyze prints them. The controller does not use them: its fit proof
// (match.Scan.MayFit) works from each choice's resolved plan instead. Every
// end of a range is the value of one choice the controller tries, so a
// "never" proved here is a "never" in the concrete system. A bundle over
// rsl.MaxChoices is never enumerated; its options have empty vectors.
package bounds

import (
	"fmt"
	"sort"

	"harmony/internal/match"
	"harmony/internal/predict"
	"harmony/internal/rsl"
)

// Range is the least and the greatest value of a quantity over an option's
// resolved choices.
type Range struct {
	Lo, Hi float64
}

// String renders a range as "v" when both ends agree and "[lo, hi]"
// otherwise.
func (r Range) String() string {
	if r.Lo == r.Hi {
		return fmt.Sprintf("%g", r.Lo)
	}
	return fmt.Sprintf("[%g, %g]", r.Lo, r.Hi)
}

// widen extends r to cover x; first says r covers nothing yet.
func (r *Range) widen(x float64, first bool) {
	if first || x < r.Lo {
		r.Lo = x
	}
	if first || x > r.Hi {
		r.Hi = x
	}
}

// Vector bounds one option's footprint (match.Plan.Footprint) over the
// choices the controller enumerates for it.
type Vector struct {
	// Choices is how many of the option's choices resolve: their plans'
	// replica counts, memory, seconds and exclusive tags, link bandwidths
	// and communication evaluate and are in range. The ranges cover those
	// choices, and are zero when there is none.
	Choices int
	// Nodes is the total replica count across all node specs.
	Nodes Range
	// DistinctHosts is the replica count over wildcard specs only; each
	// such replica occupies a distinct host during matching.
	DistinctHosts Range
	// MemoryMB is the total granted memory over all replicas.
	MemoryMB Range
	// ExclusiveNodes is how many nodes the option holds exclusively.
	ExclusiveNodes Range
	// PerHostMB is the memory pinned to specific hostnames.
	PerHostMB map[string]Range
	// BandwidthMbps is the aggregate link plus communication bandwidth.
	BandwidthMbps Range
	// Seconds is the explicit performance model at each choice's node
	// count; zero when the option has no model.
	Seconds Range
}

// Plans resolves each of opt's choices for placement, as the controller
// resolves them (match.NewPlan).
func Plans(opt *rsl.OptionSpec, choices []rsl.Choice) []*match.Plan {
	plans := make([]*match.Plan, len(choices))
	for i, ch := range choices {
		plans[i] = match.NewPlan(match.Request{Option: opt, Env: rsl.MapEnv(ch.Vars), MemoryGrants: ch.Grants})
	}
	return plans
}

// Option computes the bound vector of one option over its enumerated
// choices. An option over rsl.MaxChoices has an empty vector.
func Option(opt *rsl.OptionSpec) Vector {
	return OptionOf(opt, Plans(opt, opt.Choices()))
}

// OptionOf computes the bound vector of opt over the plans of its choices,
// usually of its whole enumeration.
func OptionOf(opt *rsl.OptionSpec, plans []*match.Plan) Vector {
	var v Vector
	var perHost map[string]float64
	for _, p := range plans {
		fp, ok := p.Footprint()
		if !ok {
			continue
		}
		first := v.Choices == 0
		v.Choices++
		v.Nodes.widen(float64(fp.Replicas), first)
		v.DistinctHosts.widen(float64(fp.Wildcards), first)
		v.MemoryMB.widen(fp.MemoryMB, first)
		v.ExclusiveNodes.widen(float64(fp.ExclusiveNodes), first)
		v.BandwidthMbps.widen(fp.BandwidthMbps, first)
		if len(opt.Performance) > 0 {
			if y, err := predict.Interpolate(opt.Performance, float64(fp.Replicas)); err == nil {
				v.Seconds.widen(y, first)
			}
		}
		if len(fp.Pinned) == 0 {
			continue
		}
		if perHost == nil {
			perHost = make(map[string]float64, len(fp.Pinned))
			v.PerHostMB = make(map[string]Range, len(fp.Pinned))
		}
		clear(perHost)
		for _, s := range fp.Pinned {
			perHost[s.Host] += s.MB
		}
		for h, mb := range perHost {
			r := v.PerHostMB[h]
			r.widen(mb, first)
			v.PerHostMB[h] = r
		}
	}
	return v
}

// Capacity is what a declared cluster provides when idle: how many nodes
// are declared, their total memory, and the memory declared under each
// hostname.
type Capacity struct {
	Nodes    int
	MemoryMB float64
	HostMB   map[string]float64
}

// CapacityOf sums the declarations.
func CapacityOf(decls []*rsl.NodeDecl) Capacity {
	return Capacity{}.Add(decls)
}

// Add returns c with decls declared after it. The sums run in declaration
// order, so a capacity kept for a cluster and extended by a script's own
// harmonyNode lines equals the one summed over both lists at once. c itself
// is not changed.
func (c Capacity) Add(decls []*rsl.NodeDecl) Capacity {
	if len(decls) == 0 {
		return c
	}
	host := make(map[string]float64, len(c.HostMB)+len(decls))
	for h, mb := range c.HostMB {
		host[h] = mb
	}
	for _, d := range decls {
		c.MemoryMB += d.MemoryMB
		host[d.Hostname] += d.MemoryMB
	}
	c.Nodes += len(decls)
	c.HostMB = host
	return c
}

// Unreachability is one proof that an option can never match a cluster.
type Unreachability struct {
	// Reason is a human-readable statement of the violated bound.
	Reason string
}

// Unreachable proves, when possible, that an option with bound vector v
// can never be matched against the declared cluster: the least of a
// resource over its resolved choices exceeds what the full cluster provides
// even when idle. A proof here holds in every live state, since live
// capacity never exceeds declared capacity.
func Unreachable(v Vector, capa Capacity) (Unreachability, bool) {
	if capa.Nodes == 0 || v.Choices == 0 {
		return Unreachability{}, false
	}
	if v.MemoryMB.Lo > capa.MemoryMB {
		return Unreachability{Reason: fmt.Sprintf(
			"needs at least %g MB of memory in total, but the cluster provides %g MB across %d node(s)",
			v.MemoryMB.Lo, capa.MemoryMB, capa.Nodes)}, true
	}
	if v.DistinctHosts.Lo > float64(capa.Nodes) {
		return Unreachability{Reason: fmt.Sprintf(
			"needs at least %g distinct hosts, but the cluster has %d node(s)",
			v.DistinctHosts.Lo, capa.Nodes)}, true
	}
	hosts := make([]string, 0, len(v.PerHostMB))
	for h := range v.PerHostMB {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	for _, h := range hosts {
		have, known := capa.HostMB[h]
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
