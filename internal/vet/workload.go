package vet

import (
	"fmt"
	"sort"
	"strings"

	"harmony/internal/rsl"
)

// WorkloadSpec is one bundle spec participating in a joint workload
// analysis: a source file (for diagnostics) and either its pre-decoded
// bundles or raw RSL source to decode.
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
// bandwidth — from its least demand (Bundle.Least), and compares
// the sums against the declared cluster (opts.ExtraNodes plus any
// harmonyNode commands inside the specs). Lower bounds mean no false
// alarms: a workload-* finding holds for every option choice and variable
// binding.
//
// Diagnostics carry the file of the last spec — the admission candidate
// when the server asks whether one more bundle still fits — and the
// position of that spec's first bundle.
//
// Workload analyses every bundle and sums the capacity afresh. Admission
// makes the same check with the same arithmetic for a running server, from
// the analyses the controller keeps.
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
			p := part{file: s.File}
			for _, b := range bundles {
				p.bundles = append(p.bundles, NewBundle(b))
			}
			parts = append(parts, p)
		}
	}
	return joint(parts, CapacityOf(decls))
}

// Lint vets each spec's source as Script does, and then every spec jointly as
// Workload does, from the analyses the vetting made: each spec is parsed,
// decoded and planned once. Each script report carries its spec's File.
func Lint(specs []WorkloadSpec, opts Options) (scripts []*Report, workload *Report) {
	capa := CapacityOf(opts.ExtraNodes)
	all := capa
	var parts []part
	for _, s := range specs {
		rep, ar := script(s.Src, opts.ExtraNodes, capa)
		rep.File = s.File
		scripts = append(scripts, rep)
		all = all.Add(ar.decls)
		if len(ar.bundles) > 0 {
			parts = append(parts, part{file: s.File, bundles: ar.analyses})
		}
	}
	return scripts, joint(parts, all)
}

// part is one spec's share of a joint check: its bundles' analyses.
type part struct {
	file    string
	bundles []*Bundle
}

// joint sums the parts' least demands, bundle by bundle in the order given,
// and reports what the sums prove against the capacity. Diagnostics carry
// the last part's file and the position of its first bundle.
func joint(parts []part, capa Capacity) *Report {
	rep := &Report{}
	if capa.Nodes == 0 || len(parts) == 0 {
		return rep
	}
	anchor := parts[len(parts)-1]
	file := anchor.file
	pos := anchor.bundles[0].Spec.Pos

	mem, excl, bw := 0.0, 0.0, 0.0
	perHost := make(map[string]float64, len(capa.HostMB))
	for _, p := range parts {
		for _, an := range p.bundles {
			m := an.Least()
			mem += m.MemoryMB
			excl += m.ExclusiveNodes
			bw += m.BandwidthMbps
			for h, v := range m.PerHostMB {
				perHost[h] += v
			}
		}
	}

	// who names every bundle, for the message of a finding. Most workloads
	// raise none, so the names are put together only when one fires.
	who := func() string {
		var names strings.Builder
		for _, p := range parts {
			for _, an := range p.bundles {
				if names.Len() > 0 {
					names.WriteString(", ")
				}
				fmt.Fprintf(&names, "%s:%d", an.Spec.App, an.Spec.Instance)
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
