package vet

import (
	"fmt"
	"io"
	"sort"

	"harmony/internal/rsl"
)

// OptionReport is one option's bound vector and dominance/unreachability
// verdicts, rendered for tooling (harmonyctl analyze).
type OptionReport struct {
	Option string `json:"option"`
	// The least and greatest value over the option's resolved choices,
	// rendered as "v" or "[lo, hi]", and "-" when no choice resolves.
	Nodes          string            `json:"nodes"`
	DistinctHosts  string            `json:"distinct_hosts"`
	MemoryMB       string            `json:"memory_mb"`
	ExclusiveNodes string            `json:"exclusive_nodes"`
	BandwidthMbps  string            `json:"bandwidth_mbps"`
	Seconds        string            `json:"seconds,omitempty"`
	PerHostMB      map[string]string `json:"per_host_mb,omitempty"`
	// DominatedBy names the earliest sibling option proven to always tie
	// or beat this one (empty when none); Rule and Detail justify it.
	DominatedBy     string `json:"dominated_by,omitempty"`
	DominanceRule   string `json:"dominance_rule,omitempty"`
	DominanceDetail string `json:"dominance_detail,omitempty"`
	// Unreachable states why the option can never match the declared
	// cluster (only set when cluster declarations were provided).
	Unreachable string `json:"unreachable,omitempty"`
}

// BundleReport is the static analysis of one bundle.
type BundleReport struct {
	App    string `json:"app"`
	Bundle string `json:"bundle"`
	// Refused says why the bundle was not analyzed: its choices exceed
	// rsl.MaxChoices, and the controller refuses it.
	Refused string         `json:"refused,omitempty"`
	Options []OptionReport `json:"options"`
}

// Analyze computes one bundle's per-option bound vectors, its dominance
// partial order, and — when cluster declarations are given — per-option
// unreachability proofs. A bundle over rsl.MaxChoices is not enumerated:
// its report says so and lists no option.
func Analyze(b *rsl.BundleSpec, decls []*rsl.NodeDecl) *BundleReport {
	rep := &BundleReport{App: b.App, Bundle: b.Name}
	if err := b.CheckChoices(); err != nil {
		rep.Refused = err.Error()
		return rep
	}
	capa := CapacityOf(decls)
	an := NewBundle(b)
	domBy := make(map[int]Domination)
	for _, d := range an.Dominance() {
		domBy[d.Dominated] = d
	}
	for i := range b.Options {
		opt := &b.Options[i]
		v := an.Vector(i)
		or := OptionReport{Option: opt.Name, Nodes: "-", DistinctHosts: "-", MemoryMB: "-", ExclusiveNodes: "-", BandwidthMbps: "-"}
		if v.Choices > 0 {
			or.Nodes = v.Nodes.String()
			or.DistinctHosts = v.DistinctHosts.String()
			or.MemoryMB = v.MemoryMB.String()
			or.ExclusiveNodes = v.ExclusiveNodes.String()
			or.BandwidthMbps = v.BandwidthMbps.String()
			if len(opt.Performance) > 0 {
				or.Seconds = v.Seconds.String()
			}
		}
		if len(v.PerHostMB) > 0 {
			or.PerHostMB = make(map[string]string, len(v.PerHostMB))
			for h, r := range v.PerHostMB {
				or.PerHostMB[h] = r.String()
			}
		}
		if d, ok := domBy[i]; ok {
			or.DominatedBy = b.Options[d.By].Name
			or.DominanceRule = d.Rule
			or.DominanceDetail = d.Detail
		}
		or.Unreachable = unreachable(v, capa)
		rep.Options = append(rep.Options, or)
	}
	return rep
}

// WriteText renders a report as aligned text: one block per option with
// its bound vector, followed by the dominance partial order.
func (r *BundleReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "bundle %s:%s\n", r.App, r.Bundle)
	if r.Refused != "" {
		fmt.Fprintf(w, "  refused: %s\n", r.Refused)
		return
	}
	for _, o := range r.Options {
		fmt.Fprintf(w, "  option %s\n", o.Option)
		fmt.Fprintf(w, "    nodes          %s\n", o.Nodes)
		fmt.Fprintf(w, "    distinct hosts %s\n", o.DistinctHosts)
		fmt.Fprintf(w, "    memory MB      %s\n", o.MemoryMB)
		fmt.Fprintf(w, "    exclusive      %s\n", o.ExclusiveNodes)
		fmt.Fprintf(w, "    bandwidth Mbps %s\n", o.BandwidthMbps)
		if o.Seconds != "" {
			fmt.Fprintf(w, "    model seconds  %s\n", o.Seconds)
		}
		hosts := make([]string, 0, len(o.PerHostMB))
		for h := range o.PerHostMB {
			hosts = append(hosts, h)
		}
		sort.Strings(hosts)
		for _, h := range hosts {
			fmt.Fprintf(w, "    on %-12s %s MB\n", h, o.PerHostMB[h])
		}
		if o.Unreachable != "" {
			fmt.Fprintf(w, "    unreachable: %s\n", o.Unreachable)
		}
	}
	any := false
	for _, o := range r.Options {
		if o.DominatedBy != "" {
			if !any {
				fmt.Fprintf(w, "  dominance\n")
				any = true
			}
			fmt.Fprintf(w, "    %s < %s (%s: %s)\n", o.Option, o.DominatedBy, o.DominanceRule, o.DominanceDetail)
		}
	}
	if !any {
		fmt.Fprintf(w, "  dominance: none proven\n")
	}
}
