package match

import (
	"errors"
	"fmt"
	"testing"

	"harmony/internal/resource"
)

// TestNoFitErrorTexts pins the text of every message a NoFitError can carry
// — one per way a node is turned away, per grant violation, per link and
// communication failure — to the strings the matcher produced when it
// formatted them where they arose (PR 21's parent). They reach clients inside
// ErrNoFeasibleOption and the replay oracle compares them.
func TestNoFitErrorTexts(t *testing.T) {
	cases := []struct {
		name   string
		specs  string
		grants map[string]float64
		empty  bool // match on a ledger with no nodes
		want   string
	}{
		{name: "expression", specs: `{node a * {memory {nosuch + 1}}}`,
			want: `match: option "o" does not fit: node a: memory: rsl: unbound variable "nosuch"`},
		{name: "replicate", specs: `{node a * {replicate 0}}`,
			want: `match: option "o" does not fit: node a: replicate count 0 must be >= 1`},
		{name: "negative seconds", specs: `{node a * {seconds {0 - 2}}}`,
			want: `match: option "o" does not fit: node a: seconds -2 is negative`},
		{name: "grant below minimum", specs: `{node a * {memory >=16}}`, grants: map[string]float64{"a": 8},
			want: `match: option "o" does not fit: node a: grant 8 MB below minimum 16 MB`},
		{name: "grant above maximum", specs: `{node a * {memory <=16}}`, grants: map[string]float64{"a": 32.5},
			want: `match: option "o" does not fit: node a: grant 32.5 MB above maximum 16 MB`},
		{name: "grant differs", specs: `{node a * {memory 16}}`, grants: map[string]float64{"a": 8},
			want: `match: option "o" does not fit: node a: grant 8 MB differs from exact requirement 16 MB`},
		{name: "host not registered", specs: `{node a nosuch {memory 1}}`,
			want: `match: option "o" does not fit: node a replica 1: host nosuch not registered`},
		{name: "no hosts", specs: `{node a * {memory 1}}`, empty: true,
			want: `match: option "o" does not fit: node a replica 1: no registered hosts`},
		{name: "health", specs: `{node a sp2-02 {memory 1}}`,
			want: `match: option "o" does not fit: node a replica 1: sp2-02 is down`},
		{name: "draining", specs: `{node a sp2-03 {memory 1}}`,
			want: `match: option "o" does not fit: node a replica 1: sp2-03 is draining`},
		{name: "used", specs: `{node s sp2-01 {memory 1}} {node a * {memory 1} {replicate 8}}`,
			want: `match: option "o" does not fit: node a replica 8: remaining hosts already used`},
		{name: "os", specs: `{node a * {os aix} {memory 1}}`,
			want: `match: option "o" does not fit: node a replica 1: sp2-05 runs linux, need aix`},
		{name: "memory", specs: `{node a * {memory 120.5} {replicate 7}}`,
			want: `match: option "o" does not fit: node a replica 6: sp2-05 has 112 MB free, need 120.5 MB`},
		{name: "busy", specs: `{node a sp2-05 {exclusive 1} {memory 1}}`,
			want: `match: option "o" does not fit: node a replica 1: sp2-05 is busy (load 0.5), spec requires an idle node`},
		{name: "link end", specs: `{node a * {memory 1}} {link a zz 1}`,
			want: `match: option "o" does not fit: link a-zz references unknown node name`},
		{name: "link bandwidth expression", specs: `{node a * {memory 1}} {node b * {memory 1}} {link a b {nosuch * 2}}`,
			want: `match: option "o" does not fit: link a-b bandwidth: rsl: unbound variable "nosuch"`},
		{name: "link bandwidth negative", specs: `{node a * {memory 8}} {node b * {memory 1}} {link a b {2 - a.memory}}`,
			want: `match: option "o" does not fit: link a-b bandwidth -6 is negative`},
		{name: "no link", specs: `{node a sp2-01 {memory 1}} {node b island {memory 1}} {link a b 1}`,
			want: `match: option "o" does not fit: no link between sp2-01 and island`},
		{name: "link capacity", specs: `{node a sp2-01 {memory 1}} {node b sp2-04 {memory 1}} {link a b 5000.5}`,
			want: `match: option "o" does not fit: link sp2-01-sp2-04 needs 5000.5 Mbps, capacity 320 Mbps`},
		{name: "link latency expression", specs: `{node a sp2-01 {memory 1}} {node b sp2-04 {memory 1}} {link a b 1 {nosuch}}`,
			want: `match: option "o" does not fit: link a-b latency: rsl: unbound variable "nosuch"`},
		{name: "link latency", specs: `{node a sp2-01 {memory 1}} {node b sp2-04 {memory 1}} {link a b 1 0.001}`,
			want: `match: option "o" does not fit: link sp2-01-sp2-04 latency 0.5 ms exceeds 0.001 ms`},
		{name: "communication expression", specs: `{node a * {memory 1} {replicate 2}} {communication {nosuch}}`,
			want: `match: option "o" does not fit: communication: rsl: unbound variable "nosuch"`},
		{name: "communication negative", specs: `{node a * {memory 1} {replicate 2}} {communication {0 - 1.5}}`,
			want: `match: option "o" does not fit: communication -1.5 is negative`},
		{name: "communication link", specs: `{node a sp2-01 {memory 1}} {node b island {memory 1}} {communication 4}`,
			want: `match: option "o" does not fit: communication requires link sp2-01-island`},
		{name: "a node failure comes before a later spec's expression", specs: `{node a sp2-02 {memory 1}} {node b * {memory {nosuch}}}`,
			want: `match: option "o" does not fit: node a replica 1: sp2-02 is down`},
		{name: "a link's own failure comes before a later link's expression",
			specs: `{node a sp2-01 {memory 1}} {node b sp2-04 {memory 1}} {link a b 5000} {link a b {nosuch}}`,
			want:  `match: option "o" does not fit: link sp2-01-sp2-04 needs 5000 Mbps, capacity 320 Mbps`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, c := sp2Matcher(t, 8)
			l := c.Ledger()
			if tc.empty {
				l = resource.NewLedger()
				m = New(l)
			} else {
				if err := l.SetNodeHealth("sp2-02", resource.HealthDown); err != nil {
					t.Fatal(err)
				}
				if err := l.SetNodeHealth("sp2-03", resource.HealthDraining); err != nil {
					t.Fatal(err)
				}
				if _, err := l.Reserve("resident", []resource.NodeClaim{{Hostname: "sp2-05", MemoryMB: 16, CPULoad: 0.5}}, nil); err != nil {
					t.Fatal(err)
				}
				// A node with no link to any other.
				if err := l.AddNode(resource.Node{Hostname: "island", Speed: 1, MemoryMB: 64, OS: "linux", CPUs: 1}); err != nil {
					t.Fatal(err)
				}
			}
			opt := mustBundle(t, fmt.Sprintf(`harmonyBundle T:1 b {{o %s}}`, tc.specs)).Option("o")
			for _, view := range []resource.View{l, l.Snapshot()} {
				_, err := m.WithView(view).Match(Request{Option: opt, MemoryGrants: tc.grants})
				var nf *NoFitError
				if !errors.As(err, &nf) || nf.Option != "o" {
					t.Fatalf("err = %v, want a NoFitError for option o", err)
				}
				if got := err.Error(); got != tc.want {
					t.Errorf("text changed:\n got: %s\nwant: %s", got, tc.want)
				}
			}
		})
	}
}
