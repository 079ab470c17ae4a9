package match

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"harmony/internal/resource"
)

// TestNamedHostsLookedUpLikeScanned holds Match's two ways of building its
// node table to one answer. An option that names every host gets a table of
// just those hosts; its twin carries one wildcard spec more, at the end, so
// it takes the whole-cluster scan while the named specs before it meet the
// same rows in the same state. Every rejection must read the same, and a
// placement must be the same but for the twin's extra node.
func TestNamedHostsLookedUpLikeScanned(t *testing.T) {
	cases := []struct {
		name    string
		specs   string
		grants  map[string]float64
		exclude map[string]bool
		fits    bool
		// reason is part of the rejection, when there is one.
		reason string
	}{
		{name: "not registered", specs: `{node a nosuch {memory 1}}`, reason: "host nosuch not registered"},
		{name: "down", specs: `{node a sp2-02 {memory 1}}`, reason: "sp2-02 is down"},
		{name: "draining", specs: `{node s sp2-01 {memory 1}} {node a sp2-03 {memory 1}}`, reason: "sp2-03 is draining"},
		{name: "os", specs: `{node a sp2-04 {os aix} {memory 1}}`, reason: "sp2-04 runs linux, need aix"},
		{name: "memory", specs: `{node a sp2-04 {memory 500}}`, reason: "sp2-04 has 128 MB free, need 500 MB"},
		{name: "busy", specs: `{node a sp2-05 {exclusive 1} {memory 1}}`, reason: "sp2-05 is busy (load 0.5)"},
		{name: "hostname tag names another host", specs: `{node a sp2-04 {hostname sp2-06} {memory 1}}`, reason: "host sp2-04 not registered"},
		{name: "stacked replicas", specs: `{node a sp2-04 {seconds 2} {memory 40} {replicate 3}}`, fits: true},
		{name: "stacked replicas run out", specs: `{node a sp2-04 {memory 40} {replicate 4}}`, reason: "replica 4: sp2-04 has 8 MB free, need 40 MB"},
		{name: "exclusive replicas stack on their own charge", specs: `{node a sp2-04 {exclusive 1} {replicate 2}}`, reason: "replica 2: sp2-04 is busy (load 1)"},
		{
			name: "two local names on one host, linked",
			specs: `{node s sp2-01 {seconds 5} {memory 20}} {node c sp2-06 {seconds 1} {memory 2}}
				{node d sp2-06 {memory >=4}} {link c s {d.memory / 2}} {link c d 1}`,
			grants: map[string]float64{"d": 6}, fits: true,
		},
		{name: "excluded host is still taken by name", specs: `{node a sp2-04 {seconds 1} {memory 8}}`, exclude: map[string]bool{"sp2-04": true}, fits: true},
		{name: "names out of hostname order", specs: `{node b sp2-06 {seconds 3} {memory 1}} {node a sp2-04 {seconds 1} {memory 1}} {node c sp2-05 {memory 1}}`, fits: true},
		{name: "link capacity", specs: `{node s sp2-01 {memory 1}} {node c sp2-04 {memory 1}} {link c s 5000}`, reason: "needs 5000 Mbps, capacity 320 Mbps"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, c := sp2Matcher(t, 8)
			l := c.Ledger()
			if err := l.SetNodeHealth("sp2-02", resource.HealthDown); err != nil {
				t.Fatal(err)
			}
			if err := l.SetNodeHealth("sp2-03", resource.HealthDraining); err != nil {
				t.Fatal(err)
			}
			if _, err := l.Reserve("resident", []resource.NodeClaim{{Hostname: "sp2-05", MemoryMB: 16, CPULoad: 0.5}}, nil); err != nil {
				t.Fatal(err)
			}
			named := mustBundle(t, fmt.Sprintf(`harmonyBundle T:1 b {{o %s}}`, tc.specs)).Option("o")
			twin := mustBundle(t, fmt.Sprintf(`harmonyBundle T:1 b {{o %s {node zz *}}}`, tc.specs)).Option("o")
			if !namesEveryHost(named) || namesEveryHost(twin) {
				t.Fatal("the pair does not exercise both tables")
			}
			for _, view := range []resource.View{l, l.Snapshot().Fork()} {
				mv := m.WithView(view)
				req := Request{Option: named, MemoryGrants: tc.grants, ExcludeHosts: tc.exclude}
				got, gotErr := mv.Match(req)
				req.Option = twin
				want, wantErr := mv.Match(req)
				if (gotErr == nil) != tc.fits {
					t.Fatalf("named: err = %v, fits = %v", gotErr, tc.fits)
				}
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("errors differ:\n named: %v\n  twin: %v", gotErr, wantErr)
				}
				if gotErr != nil {
					if !strings.Contains(gotErr.Error(), tc.reason) {
						t.Fatalf("err = %v, want it to say %q", gotErr, tc.reason)
					}
					continue
				}
				if last := want.Nodes[len(want.Nodes)-1]; last.LocalName != "zz" {
					t.Fatalf("twin's last node is %+v, want the wildcard's", last)
				}
				want.Nodes = want.Nodes[:len(want.Nodes)-1]
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("assignments differ:\n named: %+v\n  twin: %+v", got, want)
				}
			}
		})
	}
}
