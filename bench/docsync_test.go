package main

import (
	"os"
	"strings"
	"testing"
)

// BENCHMARK.json, the harness's tables and README.md must name the same
// workloads and metrics: a later issue quotes these names from any of them.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	def, err := readBenchmarkDef("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(def.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if def.Workloads[i].Name != w.Name || def.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, def.Workloads[i].Name, def.Workloads[i].Why, w.Name, w.Why)
		}
	}
	same := func(kind string, got []metricDef, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the harness %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", def.EndToEnd, endToEndMetrics)
	same("per_layer", def.PerLayer, perLayerMetrics)
	for _, m := range endToEndMetrics {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func TestReadmeDocumentsEveryName(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	for _, w := range workloads {
		if !strings.Contains(readme, "`"+w.Name+"`") {
			t.Errorf("README.md does not document workload %s", w.Name)
		}
	}
	for _, m := range append(append([]metricSpec(nil), endToEndMetrics...), perLayerMetrics...) {
		if !strings.Contains(readme, "`"+m.Name+"`") {
			t.Errorf("README.md does not document metric %s", m.Name)
		}
	}
	for _, moves := range []string{movesProtocol, movesCore, movesReplica} {
		if !strings.Contains(readme, moves) {
			t.Errorf("README.md lacks the moves prediction %q", moves)
		}
	}
}
