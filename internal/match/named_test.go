package match

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"harmony/internal/resource"
	"harmony/internal/rsl"
)

// TestNamedHostsLookedUpLikeScanned holds Match's two ways of building its
// node table to one answer. An option that names every host gets a table of
// just those hosts; its twin carries one wildcard spec more, at the end, so
// it takes the whole-cluster scan while the named specs before it meet the
// same rows in the same state. Every rejection must read the same, and a
// placement must be the same but for the twin's extra node.
func TestNamedHostsLookedUpLikeScanned(t *testing.T) {
	cases := []struct {
		name   string
		specs  string
		grants map[string]float64
		fits   bool
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
		{name: "names out of hostname order", specs: `{node b sp2-06 {seconds 3} {memory 1}} {node a sp2-04 {seconds 1} {memory 1}} {node c sp2-05 {memory 1}}`, fits: true},
		{name: "link capacity", specs: `{node s sp2-01 {memory 1}} {node c sp2-04 {memory 1}} {link c s 5000}`, reason: "needs 5000 Mbps, capacity 320 Mbps"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, c := sp2Matcher(t, 8)
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
				mv := NewWithView(view)
				req := Request{Option: named, MemoryGrants: tc.grants}
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

// namedTable is how Match once built the table of an option that names every
// host: just those hosts' rows, each looked up by hostname, bisected into
// place and copied out of the snapshot, with pos mapping a row back to the
// node's index. It is kept as the reference the index path is held to.
func namedTable(s *Scan, opt *rsl.OptionSpec) (t table, pos []int32) {
	for i := range opt.Nodes {
		host := opt.Nodes[i].HostPattern
		row, dup := slices.BinarySearchFunc(t.rows, host, func(ns resource.NodeState, h string) int {
			return strings.Compare(ns.Node.Hostname, h)
		})
		if dup {
			continue
		}
		if at, ok := s.snap.NodeIndex(host); ok {
			t.rows = slices.Insert(t.rows, row, s.snap.StateAt(at))
			pos = slices.Insert(pos, row, int32(at))
		}
	}
	for i := range t.rows {
		t.order = append(t.order, int32(i))
		t.free = append(t.free, s.cols.FreeMemoryMB[pos[i]])
		t.load = append(t.load, s.cols.CPULoad[pos[i]])
	}
	return t, pos
}

// placeByName places a plan that names every host on the reference table, as
// Match once did, and finishes the placement as Match does.
func placeByName(s *Scan, p *Plan, asg *Assignment, why *NoFitError) bool {
	t, pos := namedTable(s, p.opt)
	*asg = Assignment{Option: p.opt.Name}
	for i := range p.specs {
		ps := &p.specs[i]
		from := 0
		for r := 0; r < ps.replicas; r++ {
			var ok bool
			if from, ok = firstFit(&t, from, &ps.demand, make([]bool, len(t.rows)), why); !ok {
				why.spec, why.replica = ps.local, r+1
				return false
			}
			row := t.order[from]
			asg.Nodes = append(asg.Nodes, NodeAssignment{
				LocalName: ps.local,
				Hostname:  t.rows[row].Node.Hostname,
				Seconds:   ps.seconds,
				MemoryMB:  ps.demand.grant,
				CPULoad:   ps.cpuLoad,
				pos:       pos[row],
			})
		}
	}
	return s.link(p, asg, why)
}

// TestNamedHostsByIndex holds the placement of options that name every host,
// which finds each host's row by index in the scan's own table, to the
// hostname lookup it replaced (placeByName): Place must agree on whether the
// option fits and on the assignment, and Misfit must give the reference's
// reason word for word. The same cases run on a scan taken after AddNode,
// whose new node sorts first and moves every index, so an index kept from the
// old topology would place on the wrong row. MayFit's fixed-host check reads
// the same index: mayFit is its verdict, and a false one must mean the option
// does not fit.
func TestNamedHostsByIndex(t *testing.T) {
	cases := []struct {
		name   string
		specs  string
		fits   bool
		mayFit bool
		reason string
	}{
		{name: "fits", specs: `{node s sp2-01 {seconds 5} {memory 20}} {node c sp2-06 {seconds 1} {memory 2}} {link c s 2}`, fits: true, mayFit: true},
		{name: "not registered", specs: `{node s sp2-01 {memory 1}} {node a nosuch {memory 1}}`, reason: "node a replica 1: host nosuch not registered"},
		{name: "stacked on one host", specs: `{node a sp2-04 {seconds 2} {memory 60}} {node b sp2-04 {seconds 1} {memory 60}}`, fits: true, mayFit: true},
		{name: "stacked past its memory", specs: `{node a sp2-04 {memory 100}} {node b sp2-04 {memory 40}}`, mayFit: true, reason: "node b replica 1: sp2-04 has 28 MB free, need 40 MB"},
		{name: "stacked replicas past its memory", specs: `{node a sp2-04 {memory 40} {replicate 4}}`, reason: "node a replica 4: sp2-04 has 8 MB free, need 40 MB"},
		{name: "down", specs: `{node a sp2-02 {memory 1}}`, reason: "node a replica 1: sp2-02 is down"},
		{name: "draining", specs: `{node s sp2-01 {memory 1}} {node a sp2-03 {memory 1}}`, reason: "node a replica 1: sp2-03 is draining"},
		{name: "os", specs: `{node a sp2-04 {os aix} {memory 1}}`, reason: "node a replica 1: sp2-04 runs linux, need aix"},
		{name: "busy", specs: `{node a sp2-05 {exclusive 1} {memory 1}}`, reason: "node a replica 1: sp2-05 is busy (load 0.5), spec requires an idle node"},
		{name: "out of hostname order, communicating", specs: `{node b sp2-06 {seconds 3} {memory 1}} {node a sp2-04 {seconds 1} {memory 1}} {communication 6}`, fits: true, mayFit: true},
		{name: "link capacity", specs: `{node s sp2-01 {memory 1}} {node c sp2-04 {memory 1}} {link c s 5000}`, mayFit: true, reason: "link sp2-04-sp2-01 needs 5000 Mbps, capacity 320 Mbps"},
	}
	_, c := sp2Matcher(t, 8)
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
	scanOf := func(snap *resource.Snapshot) *Scan {
		var cols resource.Columns
		snap.ReadColumns(&cols)
		scan := new(Scan)
		scan.Reset(snap, snap.AppendNodes(nil), &cols)
		return scan
	}
	before := scanOf(l.Snapshot())
	if err := l.AddNode(resource.Node{Hostname: "a-first", Speed: 1, MemoryMB: 64, OS: "linux", CPUs: 1}); err != nil {
		t.Fatal(err)
	}
	after := scanOf(l.Snapshot())
	if before.snap.Topology() == after.snap.Topology() {
		t.Fatal("AddNode left the topology as it was")
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPlan(Request{Option: mustBundle(t, fmt.Sprintf(`harmonyBundle T:1 b {{o %s}}`, tc.specs)).Option("o")})
			if !namesEveryHost(p.opt) {
				t.Fatal("the option has a wildcard spec")
			}
			var placed [2]Assignment
			for i, scan := range []*Scan{before, after} {
				var got, want Assignment
				var why NoFitError
				fits, wantFits := scan.Place(p, &got), placeByName(scan, p, &want, &why)
				if fits != tc.fits || wantFits != tc.fits {
					t.Fatalf("scan %d: Place says %v, the reference %v, want %v", i, fits, wantFits, tc.fits)
				}
				if mayFit := scan.MayFit(p); mayFit != tc.mayFit {
					t.Fatalf("scan %d: MayFit says %v, want %v", i, mayFit, tc.mayFit)
				}
				misfit := scan.Misfit(p)
				if fits {
					if misfit != nil {
						t.Fatalf("scan %d: Misfit of a plan that fits: %v", i, misfit)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("scan %d: assignments differ:\n index:     %+v\n reference: %+v", i, got, want)
					}
					placed[i] = got
					continue
				}
				why.Option = p.opt.Name
				if misfit == nil || misfit.Error() != why.Error() {
					t.Fatalf("scan %d: Misfit says %v, the reference %v", i, misfit, why.Error())
				}
				if !strings.HasSuffix(misfit.Error(), tc.reason) {
					t.Fatalf("scan %d: Misfit says %v, want it to end %q", i, misfit, tc.reason)
				}
			}
			for k := range placed[0].Nodes {
				if b, a := placed[0].Nodes[k].pos, placed[1].Nodes[k].pos; a != b+1 {
					t.Fatalf("node %d sits at %d before AddNode and at %d after, want one further", k, b, a)
				}
			}
		})
	}
}
