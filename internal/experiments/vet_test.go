package experiments

import (
	"fmt"
	"slices"
	"testing"

	"harmony/internal/cluster"
	"harmony/internal/match"
	"harmony/internal/resource"
	"harmony/internal/rsl"
	"harmony/internal/vet"
)

// experimentSpecs is every RSL spec the experiments generate.
func experimentSpecs(t *testing.T) map[string]string {
	t.Helper()
	f4, err := figure4RSL(1, 8, 300, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]string{
		"Figure2aRSL":      Figure2aRSL,
		"Figure2bRSL":      Figure2bRSL,
		"Figure3RSL":       Figure3RSL,
		"ablationAppRSL":   ablationAppRSL(5),
		"ablationLoadRSL":  ablationLoadRSL,
		"figure4RSL":       f4,
		"figure7ClientRSL": figure7ClientRSL(1, "client1", 0),
	}
}

// TestSpecsAreVetClean keeps every RSL spec the experiments generate
// analyzer-clean, so regressions in either the specs or the analyzer
// surface here.
func TestSpecsAreVetClean(t *testing.T) {
	for name, src := range experimentSpecs(t) {
		for _, d := range vet.Script(src, vet.Options{}).Diags {
			t.Errorf("%s: %s", name, d)
		}
	}
}

// TestSpecsAgreeWithMatcher holds vet's "never fits" verdicts on the
// experiments' specs to the matcher, against the Section 6 reference
// cluster: an option vet calls unreachable-option, node-unsatisfiable or
// replicate-unsatisfiable has no enumerated choice that places on the idle
// cluster, and one that no choice places but vet does not flag is logged,
// since the door lets it in and the controller can never adopt it. Every
// bundle is under the cap the controller enumerates; Figure 4 at 4096
// nodes, the largest bundle the repository generates, is exactly at it.
func TestSpecsAgreeWithMatcher(t *testing.T) {
	decls := referenceCluster()
	cl, err := cluster.New(cluster.Config{}, decls)
	if err != nil {
		t.Fatal(err)
	}
	snap := cl.Ledger().Snapshot()
	var cols resource.Columns
	snap.ReadColumns(&cols)
	var scan match.Scan
	scan.Reset(snap, snap.AppendNodes(nil), &cols)
	options, unplaced := 0, 0
	for name, src := range experimentSpecs(t) {
		flagged := make(map[string]bool)
		for _, d := range vet.Script(src, vet.Options{ExtraNodes: decls}).Diags {
			switch d.Check {
			case "unreachable-option", "node-unsatisfiable", "replicate-unsatisfiable":
				flagged[d.Bundle+"/"+d.Option] = true
			}
		}
		bundles, _, err := rsl.DecodeScript(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, b := range bundles {
			if n := b.ChoiceCount(); n > rsl.MaxChoices {
				t.Errorf("%s: %d choices, over the cap", name, n)
			}
			for i := range b.Options {
				opt := &b.Options[i]
				options++
				var asg match.Assignment
				places := slices.ContainsFunc(opt.Choices(), func(ch rsl.Choice) bool {
					return scan.Place(match.NewPlan(match.Request{Option: opt, Env: rsl.MapEnv(ch.Vars), MemoryGrants: ch.Grants}), &asg)
				})
				switch key := b.Name + "/" + opt.Name; {
				case places && flagged[key]:
					t.Errorf("%s: vet says %s never fits, and a choice of it places at %v", name, key, asg.Hosts())
				case !places:
					unplaced++
					if !flagged[key] {
						t.Logf("%s: no choice of %s places on the idle reference cluster, and vet does not flag it", name, key)
					}
				}
			}
		}
	}
	t.Logf("%d options, %d placing nowhere", options, unplaced)
	f4, err := figure4RSL(1, 4096, 300, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	bundles, _, err := rsl.DecodeScript(f4)
	if err != nil {
		t.Fatal(err)
	}
	if n := bundles[0].ChoiceCount(); n != rsl.MaxChoices {
		t.Errorf("Figure 4 at 4096 nodes has %d choices, want exactly the cap %d", n, rsl.MaxChoices)
	}
}

// referenceCluster is the Section 6 reference cluster: the UMD server plus
// eight SP-2 nodes.
func referenceCluster() []*rsl.NodeDecl {
	decls := []*rsl.NodeDecl{
		{Hostname: "harmony.cs.umd.edu", Speed: 1, MemoryMB: 256, OS: "linux", CPUs: 1},
	}
	for i := 1; i <= 8; i++ {
		decls = append(decls, &rsl.NodeDecl{
			Hostname: fmt.Sprintf("sp2-%02d", i), Speed: 1, MemoryMB: 128, OS: "linux", CPUs: 1,
		})
	}
	return decls
}

// TestWorkloadIsLintClean runs the joint workload analysis over the
// paper's three figure applications against the Section 6 reference
// cluster (the UMD server plus eight SP-2 nodes): their combined
// best-case demand must provably fit.
func TestWorkloadIsLintClean(t *testing.T) {
	decls := referenceCluster()
	specs := []vet.WorkloadSpec{
		{File: "figure2a", Src: Figure2aRSL},
		{File: "figure2b", Src: Figure2bRSL},
		{File: "figure3", Src: Figure3RSL},
	}
	for _, d := range vet.Workload(specs, vet.Options{ExtraNodes: decls}).Diags {
		t.Errorf("joint workload: %s", d)
	}
}
