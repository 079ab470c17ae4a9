package vet

import (
	"fmt"
	"math"
	"sort"
	"sync"

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

// Bundle is one bundle's analysis, made once and shared by vet at the door,
// the controller and the next arrival's joint check: the choices the
// controller enumerates, each choice's plan and, computed once on first
// use, each option's bound vector and the bundle's least demand. It is safe
// for concurrent use.
type Bundle struct {
	// Spec is the bundle analysed.
	Spec *rsl.BundleSpec
	// Choices are Spec's choices, option by option, and Plans[k] resolves
	// Choices[k] for placement. Both are empty for a bundle over
	// rsl.MaxChoices, which is never enumerated.
	Choices []rsl.Choice
	Plans   []*match.Plan
	// start[i] is where option i's choices begin in Choices, and
	// start[len(Spec.Options)] is len(Choices); nil when not enumerated.
	start []int

	once    sync.Once
	vectors []Vector
	least   Demand
}

// NewBundle enumerates b's choices and resolves each for placement.
func NewBundle(b *rsl.BundleSpec) *Bundle {
	an := &Bundle{Spec: b}
	if b.ChoiceCount() > rsl.MaxChoices {
		return an
	}
	an.Choices = b.Choices()
	an.Plans = make([]*match.Plan, len(an.Choices))
	an.start = make([]int, len(b.Options)+1)
	k := 0
	for i := range b.Options {
		opt := &b.Options[i]
		an.start[i] = k
		for end := k + opt.ChoiceCount(); k < end; k++ {
			an.Plans[k] = match.ChoicePlan(opt, an.Choices[k])
		}
	}
	an.start[len(b.Options)] = k
	return an
}

// Enumerated is false for a bundle over rsl.MaxChoices.
func (an *Bundle) Enumerated() bool { return an.start != nil }

// Option returns option i's choices and their plans, empty when the bundle
// is not enumerated.
func (an *Bundle) Option(i int) ([]rsl.Choice, []*match.Plan) {
	if an.start == nil {
		return nil, nil
	}
	lo, hi := an.start[i], an.start[i+1]
	return an.Choices[lo:hi:hi], an.Plans[lo:hi:hi]
}

// Vector is option i's bound vector over its choices.
func (an *Bundle) Vector(i int) Vector {
	an.bound()
	return an.vectors[i]
}

// Least is the bundle's least demand over its options' vectors.
func (an *Bundle) Least() Demand {
	an.bound()
	return an.least
}

func (an *Bundle) bound() {
	an.once.Do(func() {
		an.vectors = make([]Vector, len(an.Spec.Options))
		for i := range an.vectors {
			_, plans := an.Option(i)
			an.vectors[i] = vectorOf(&an.Spec.Options[i], plans)
		}
		an.least = leastOf(an.vectors)
	})
}

// vectorOf computes the bound vector of opt over the plans of its choices.
func vectorOf(opt *rsl.OptionSpec, plans []*match.Plan) Vector {
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

// Demand is the least a bundle consumes whichever choice the controller
// picks: per resource, the least lower end over its options' vectors.
type Demand struct {
	MemoryMB       float64
	ExclusiveNodes float64
	BandwidthMbps  float64
	PerHostMB      map[string]float64
}

// leastOf is the element-wise minimum of the lower ends of a bundle's option
// vectors, over the options that have a choice that resolves.
func leastOf(vs []Vector) Demand {
	var d Demand
	first := true
	for _, v := range vs {
		if v.Choices == 0 {
			continue // never placed, so never the cheapest
		}
		if first {
			first = false
			d = Demand{MemoryMB: v.MemoryMB.Lo, ExclusiveNodes: v.ExclusiveNodes.Lo, BandwidthMbps: v.BandwidthMbps.Lo}
			if len(v.PerHostMB) > 0 {
				d.PerHostMB = make(map[string]float64, len(v.PerHostMB))
				for h, r := range v.PerHostMB {
					d.PerHostMB[h] = r.Lo
				}
			}
			continue
		}
		d.MemoryMB = math.Min(d.MemoryMB, v.MemoryMB.Lo)
		d.ExclusiveNodes = math.Min(d.ExclusiveNodes, v.ExclusiveNodes.Lo)
		d.BandwidthMbps = math.Min(d.BandwidthMbps, v.BandwidthMbps.Lo)
		// A host pinned by only some options is not pinned by the bundle.
		for h, lo := range d.PerHostMB {
			if r, ok := v.PerHostMB[h]; ok {
				d.PerHostMB[h] = math.Min(lo, r.Lo)
			} else {
				delete(d.PerHostMB, h)
			}
		}
	}
	return d
}

// Capacity is what a declared cluster provides when idle: how many nodes
// are declared, their total memory, and the memory declared under each
// hostname.
type Capacity struct {
	Nodes    int
	MemoryMB float64
	HostMB   map[string]float64
	// FastestSpeed and SlowestSpeed are the highest and the lowest declared
	// speed: no node runs a job's seconds faster than the one, and an idle
	// node runs one replica no slower than the other.
	FastestSpeed, SlowestSpeed float64
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
		c.FastestSpeed = max(c.FastestSpeed, d.Speed)
		if c.SlowestSpeed == 0 || d.Speed < c.SlowestSpeed {
			c.SlowestSpeed = d.Speed
		}
	}
	c.Nodes += len(decls)
	c.HostMB = host
	return c
}

// unreachable proves, when possible, that an option with bound vector v can
// never be matched against the declared cluster, and says why: the least of
// a resource over its resolved choices exceeds what the full cluster
// provides even when idle. A proof here holds in every live state, since
// live capacity never exceeds declared capacity. It returns "" when there
// is none.
func unreachable(v Vector, capa Capacity) string {
	if capa.Nodes == 0 || v.Choices == 0 {
		return ""
	}
	if v.MemoryMB.Lo > capa.MemoryMB {
		return fmt.Sprintf("needs at least %g MB of memory in total, but the cluster provides %g MB across %d node(s)",
			v.MemoryMB.Lo, capa.MemoryMB, capa.Nodes)
	}
	if v.DistinctHosts.Lo > float64(capa.Nodes) {
		return fmt.Sprintf("needs at least %g distinct hosts, but the cluster has %d node(s)",
			v.DistinctHosts.Lo, capa.Nodes)
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
			return fmt.Sprintf("pins at least %g MB on host %q, which has %g MB",
				v.PerHostMB[h].Lo, h, have)
		}
	}
	return ""
}
