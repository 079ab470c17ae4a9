package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// benchmarkDef is the part of BENCHMARK.json the harness reads.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkDef(path string) (*benchmarkDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

func readResults(path string) ([]*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []*Result
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// valuesOf collects one metric's values over a file's runs of one workload.
func valuesOf(rs []*Result, workload, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if r.Workload != workload {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdictOf judges b against a for one end-to-end metric. worse: b's median
// is worse than a's by more than the bound. unresolved: either side's own
// runs spread wider than the bound, so the medians decide nothing.
func verdictOf(a, b []float64, m metricDef) (rel float64, verdict string) {
	ma, mb := median(a), median(b)
	rel = (mb - ma) / math.Abs(ma)
	worsening := rel
	if m.Better == "higher" {
		worsening = -rel
	}
	sa, sb := spread(a), spread(b)
	switch {
	case sa > m.Bound || sb > m.Bound: // NaN (fewer than four runs) compares false
		return rel, "unresolved"
	case worsening > m.Bound:
		return rel, "worse"
	}
	return rel, "within"
}

// compareFiles prints one row per (metric, workload) with both medians, the
// relative difference and the verdict against the bound in BENCHMARK.json,
// and returns 1 if any row is worse.
func compareFiles(defPath, pathA, pathB string) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "bench: compare: %v\n", err)
		return 2
	}
	def, err := readBenchmarkDef(defPath)
	if err != nil {
		return fail(err)
	}
	a, err := readResults(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := readResults(pathB)
	if err != nil {
		return fail(err)
	}
	return compareResults(def, a, b)
}

func compareResults(def *benchmarkDef, a, b []*Result) int {
	code := 0
	fmt.Printf("%-26s %-16s %14s %14s %9s %7s  %s\n", "metric", "workload", "median a", "median b", "diff", "bound", "verdict")
	row := func(m metricDef, w string, gated bool) {
		va, vb := valuesOf(a, w, m.Name), valuesOf(b, w, m.Name)
		if len(va) == 0 || len(vb) == 0 {
			return
		}
		rel, verdict := verdictOf(va, vb, m)
		bound := fmt.Sprintf("%.0f%%", m.Bound*100)
		if !gated {
			bound, verdict = "-", "-"
		} else if verdict == "worse" {
			code = 1
		}
		fmt.Printf("%-26s %-16s %14.4f %14.4f %+8.1f%% %7s  %s (n=%d,%d)\n",
			m.Name, w, median(va), median(vb), rel*100, bound, verdict, len(va), len(vb))
	}
	for _, m := range def.EndToEnd {
		for _, w := range def.Workloads {
			row(m, w.Name, true)
		}
	}
	for _, m := range def.PerLayer {
		for _, w := range def.Workloads {
			row(m, w.Name, false)
		}
	}
	return code
}
