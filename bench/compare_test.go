package main

import "testing"

func TestVerdictOf(t *testing.T) {
	lower := metricDef{Name: "admit_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "cycles_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		name string
		a, b []float64
		m    metricDef
		want string
	}{
		{"same", steady, steady, lower, "within"},
		{"slower beyond bound", steady, []float64{120, 121, 119, 120, 120}, lower, "worse"},
		{"faster", steady, []float64{80, 81, 79, 80, 80}, lower, "within"},
		{"throughput fell", steady, []float64{80, 81, 79, 80, 80}, higher, "worse"},
		{"throughput rose", steady, []float64{120, 121, 119, 120, 120}, higher, "within"},
		{"own runs too wide", steady, []float64{60, 140, 100, 180, 20}, lower, "unresolved"},
		{"single runs", []float64{100}, []float64{105}, lower, "within"},
	}
	for _, c := range cases {
		if _, got := verdictOf(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareResultsExitCode(t *testing.T) {
	def := &benchmarkDef{EndToEnd: []metricDef{{Name: "admit_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10}}}
	def.Workloads = append(def.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "squeeze-small"})
	mk := func(v float64) []*Result {
		return []*Result{{Workload: "squeeze-small", Metrics: map[string]Metric{"admit_ms_p50": {Value: v, Unit: "ms"}}}}
	}
	if code := compareResults(def, mk(3.0), mk(3.1)); code != 0 {
		t.Errorf("a 3%% difference exits %d, want 0", code)
	}
	if code := compareResults(def, mk(3.0), mk(4.0)); code != 1 {
		t.Errorf("a 33%% regression exits %d, want 1", code)
	}
}
