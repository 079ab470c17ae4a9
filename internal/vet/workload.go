package vet

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"harmony/internal/bounds"
	"harmony/internal/rsl"
)

// WorkloadSpec is one bundle spec participating in a joint workload
// analysis: a source file (for diagnostics) and either its pre-decoded
// bundles (the server's registration path) or raw RSL source to decode.
type WorkloadSpec struct {
	// File names the spec in diagnostics.
	File string
	// Src is the RSL source; decoded when Bundles is nil. Decode problems
	// are ignored here — per-spec vetting reports them.
	Src string
	// Bundles supplies already-decoded bundles, bypassing Src.
	Bundles []*rsl.BundleSpec
}

// Workload jointly analyzes a set of bundle specs against one cluster:
// even when every spec is individually satisfiable, the set as a whole can
// be infeasible. For each bundle it takes the best case any option allows
// — total memory, exclusive node count, per-host pinned memory, aggregate
// bandwidth — from the lower ends of the options' bound vectors
// (bounds.Option), and compares the sums against the declared cluster
// (opts.ExtraNodes plus any harmonyNode commands inside the specs). Lower
// bounds mean no false alarms: a workload-* finding holds for every option
// choice and variable binding.
//
// Diagnostics carry the file of the last spec — the admission candidate
// when the server asks whether one more bundle still fits — and the
// position of that spec's first bundle.
//
// Workload computes every demand and the capacity afresh. Admission makes
// the same check with the same arithmetic for a running server, keeping
// them between arrivals.
func Workload(specs []WorkloadSpec, opts Options) *Report {
	decls := append([]*rsl.NodeDecl(nil), opts.ExtraNodes...)
	var parts []part
	for _, s := range specs {
		bundles := s.Bundles
		if bundles == nil {
			ar, _ := decode(s.Src, &Report{})
			bundles, decls = ar.bundles, append(decls, ar.decls...)
		}
		if len(bundles) > 0 {
			parts = append(parts, part{file: s.File, bundles: bundles})
		}
	}
	return joint(parts, bounds.CapacityOf(decls))
}

// part is one spec's share of a joint check: its bundles and, when the
// caller kept them, their demands (nil means compute them).
type part struct {
	file    string
	bundles []*rsl.BundleSpec
	demands []demand
}

func (p part) demand(i int) demand {
	if p.demands != nil {
		return p.demands[i]
	}
	return bundleDemand(p.bundles[i])
}

// joint sums the parts' demands, bundle by bundle in the order given, and
// reports what the sums prove against the capacity. Diagnostics carry the
// last part's file and the position of its first bundle.
func joint(parts []part, capa bounds.Capacity) *Report {
	rep := &Report{}
	if capa.Nodes == 0 || len(parts) == 0 {
		return rep
	}
	anchor := parts[len(parts)-1]
	file := anchor.file
	pos := anchor.bundles[0].Pos

	mem, excl, bw := 0.0, 0.0, 0.0
	perHost := make(map[string]float64, len(capa.HostMB))
	for _, p := range parts {
		for i := range p.bundles {
			m := p.demand(i)
			mem += m.mem
			excl += m.excl
			bw += m.bw
			for h, v := range m.perHost {
				perHost[h] += v
			}
		}
	}

	// who names every bundle, for the message of a finding. Most workloads
	// raise none, so the names are put together only when one fires.
	who := func() string {
		var names strings.Builder
		for _, p := range parts {
			for _, b := range p.bundles {
				if names.Len() > 0 {
					names.WriteString(", ")
				}
				fmt.Fprintf(&names, "%s:%d", b.App, b.Instance)
			}
		}
		return names.String()
	}

	diag := func(check string, sev Severity, format string, args ...any) {
		rep.add(Diagnostic{
			Check: check, Severity: sev, File: file,
			Line: pos.Line, Col: pos.Col,
			Message: fmt.Sprintf(format, args...),
		})
	}
	if mem > capa.MemoryMB {
		diag("workload-memory", SevError,
			"bundles %s demand at least %g MB of memory in their best case, but the cluster provides %g MB across %d node(s)",
			who(), mem, capa.MemoryMB, capa.Nodes)
	}
	if excl > float64(capa.Nodes) {
		diag("workload-nodes", SevError,
			"bundles %s demand at least %g exclusive node(s), but the cluster has %d",
			who(), excl, capa.Nodes)
	}
	// A host no declaration names is left to per-spec vetting, which reports
	// unsatisfiable hosts.
	var over []string
	for h, mb := range perHost {
		if have, known := capa.HostMB[h]; known && mb > have {
			over = append(over, h)
		}
	}
	sort.Strings(over)
	for _, h := range over {
		diag("workload-host", SevError,
			"bundles %s pin at least %g MB on host %q, which has %g MB",
			who(), perHost[h], h, capa.HostMB[h])
	}
	if bw > switchBandwidthMbps {
		diag("workload-bandwidth", SevWarn,
			"bundles %s demand at least %g Mbps of aggregate bandwidth, but the interconnect provides %g Mbps",
			who(), bw, switchBandwidthMbps)
	}

	rep.Sort()
	return rep
}

// demand is a vector of lower bounds on what a bundle consumes in its best
// (cheapest) case.
type demand struct {
	mem     float64            // total memory, MB
	excl    float64            // exclusively held nodes
	bw      float64            // aggregate link+communication bandwidth, Mbps
	perHost map[string]float64 // memory pinned to specific hostnames, MB
}

// bundleDemand is the demand of a bundle (demandOf its options' bound
// vectors). A bundle over rsl.MaxChoices is not enumerated, and demands
// nothing.
func bundleDemand(b *rsl.BundleSpec) demand {
	if b.ChoiceCount() > rsl.MaxChoices {
		return demand{}
	}
	vs := make([]bounds.Vector, len(b.Options))
	for i := range b.Options {
		vs[i] = bounds.Option(&b.Options[i])
	}
	return demandOf(vs)
}

// demandOf is the element-wise minimum of the lower ends of a bundle's
// option vectors, over the options that have a choice that resolves: no
// matter which the controller picks, the bundle consumes at least this much.
func demandOf(vs []bounds.Vector) demand {
	var d demand
	first := true
	for _, v := range vs {
		if v.Choices == 0 {
			continue // never placed, so never the cheapest
		}
		if first {
			first = false
			d = demand{mem: v.MemoryMB.Lo, excl: v.ExclusiveNodes.Lo, bw: v.BandwidthMbps.Lo}
			if len(v.PerHostMB) > 0 {
				d.perHost = make(map[string]float64, len(v.PerHostMB))
				for h, r := range v.PerHostMB {
					d.perHost[h] = r.Lo
				}
			}
			continue
		}
		d.mem = math.Min(d.mem, v.MemoryMB.Lo)
		d.excl = math.Min(d.excl, v.ExclusiveNodes.Lo)
		d.bw = math.Min(d.bw, v.BandwidthMbps.Lo)
		// A host pinned by only some options is not pinned by the bundle.
		for h, lo := range d.perHost {
			if r, ok := v.PerHostMB[h]; ok {
				d.perHost[h] = math.Min(lo, r.Lo)
			} else {
				delete(d.perHost, h)
			}
		}
	}
	return d
}
