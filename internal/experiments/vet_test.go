package experiments

import (
	"fmt"
	"testing"

	"harmony/internal/rsl"
	"harmony/internal/vet"
)

// TestSpecsAreVetClean keeps every RSL spec the experiments generate
// analyzer-clean, so regressions in either the specs or the analyzer
// surface here.
func TestSpecsAreVetClean(t *testing.T) {
	f4, err := figure4RSL(1, 8, 300, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{
		"Figure2aRSL":      Figure2aRSL,
		"Figure2bRSL":      Figure2bRSL,
		"Figure3RSL":       Figure3RSL,
		"ablationAppRSL":   ablationAppRSL(5),
		"ablationLoadRSL":  ablationLoadRSL,
		"figure4RSL":       f4,
		"figure7ClientRSL": figure7ClientRSL(1, "client1", 0),
	} {
		for _, d := range vet.Script(src, vet.Options{}).Diags {
			t.Errorf("%s: %s", name, d)
		}
	}
}

// TestWorkloadIsLintClean runs the joint workload analysis over the
// paper's three figure applications against the Section 6 reference
// cluster (the UMD server plus eight SP-2 nodes): their combined
// best-case demand must provably fit.
func TestWorkloadIsLintClean(t *testing.T) {
	decls := []*rsl.NodeDecl{
		{Hostname: "harmony.cs.umd.edu", Speed: 1, MemoryMB: 256, OS: "linux", CPUs: 1},
	}
	for i := 1; i <= 8; i++ {
		decls = append(decls, &rsl.NodeDecl{
			Hostname: fmt.Sprintf("sp2-%02d", i), Speed: 1, MemoryMB: 128, OS: "linux", CPUs: 1,
		})
	}
	specs := []vet.WorkloadSpec{
		{File: "figure2a", Src: Figure2aRSL},
		{File: "figure2b", Src: Figure2bRSL},
		{File: "figure3", Src: Figure3RSL},
	}
	for _, d := range vet.Workload(specs, vet.Options{ExtraNodes: decls}).Diags {
		t.Errorf("joint workload: %s", d)
	}
}
