package main

import (
	"encoding/json"
	"os"
	"testing"

	"harmony/internal/experiments"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("run -list: %v", err)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"T1"}); err != nil {
		t.Fatalf("run T1: %v", err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"XX"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunBenchJSON(t *testing.T) {
	dir := t.TempDir()
	out := dir + "/bench.json"
	if err := run([]string{"-json", out, "-bench-nodes", "4", "-bench-min", "5ms"}); err != nil {
		t.Fatalf("run -json: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep experiments.OptBenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	// Two shapes at GOMAXPROCS 1 and, where it differs, at the process's own.
	if (len(rep.Points) != 2 && len(rep.Points) != 4) || rep.Bench != "optimizer-hot-path" {
		t.Fatalf("unexpected report: %+v", rep)
	}

	// Same environment, same machine: comparing against itself must pass.
	out2 := dir + "/bench2.json"
	if err := run([]string{"-json", out2, "-bench-nodes", "4", "-bench-min", "5ms", "-baseline", out, "-tolerance", "400"}); err != nil {
		t.Fatalf("self-comparison failed: %v", err)
	}
}

func TestRunBenchRegressionGate(t *testing.T) {
	dir := t.TempDir()
	out := dir + "/bench.json"
	if err := run([]string{"-json", out, "-bench-nodes", "4", "-bench-min", "5ms"}); err != nil {
		t.Fatal(err)
	}
	// Rewrite the baseline to claim the hot path used to be 1000x faster;
	// the comparison must now report a regression.
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep experiments.OptBenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	for i := range rep.Points {
		rep.Points[i].NsPerReeval /= 1000
	}
	fast, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	baseline := dir + "/baseline.json"
	if err := os.WriteFile(baseline, fast, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-json", dir + "/bench2.json", "-bench-nodes", "4", "-bench-min", "5ms", "-baseline", baseline, "-tolerance", "15"})
	if err == nil {
		t.Fatal("1000x slowdown passed the regression gate")
	}

	// In a foreign environment the timing is not enforced, but the counts
	// are: the same 1000x faster baseline passes, and one prediction more
	// per pass in it fails.
	rep.GOOS = "plan9"
	foreign := func(name string) string {
		data, err := json.Marshal(&rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dir+"/"+name, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir + "/" + name
	}
	if err := run([]string{"-json", dir + "/bench3.json", "-bench-nodes", "4", "-bench-min", "5ms", "-baseline", foreign("same.json")}); err != nil {
		t.Fatalf("unchanged counts failed in a foreign environment: %v", err)
	}
	rep.Points[0].PredictionsPerPass++
	if err := run([]string{"-json", dir + "/bench4.json", "-bench-nodes", "4", "-bench-min", "5ms", "-baseline", foreign("counts.json")}); err == nil {
		t.Fatal("a changed prediction count passed the gate in a foreign environment")
	}
}

func TestRunBenchBadNodes(t *testing.T) {
	if err := run([]string{"-json", t.TempDir() + "/x.json", "-bench-nodes", "zero"}); err == nil {
		t.Fatal("bad -bench-nodes accepted")
	}
}

// TestRunBenchAccommodateGate runs the joint-search shape alone and holds it
// to the gate: itself as baseline passes, a baseline a thousand times faster
// does not.
func TestRunBenchAccommodateGate(t *testing.T) {
	dir := t.TempDir()
	out := dir + "/bench.json"
	args := []string{"-bench-nodes", "accommodate:2", "-bench-min", "5ms"}
	if err := run(append([]string{"-json", out}, args...)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep experiments.OptBenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if n := len(rep.Points); n != 2 && n != 4 {
		t.Fatalf("points = %d, want one per choice count and GOMAXPROCS setting: %+v", n, rep.Points)
	}
	if err := run(append([]string{"-json", dir + "/bench2.json", "-baseline", out, "-tolerance", "400"}, args...)); err != nil {
		t.Fatalf("self-comparison failed: %v", err)
	}
	for i := range rep.Points {
		rep.Points[i].NsPerAccommodation /= 1000
	}
	fast, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, fast, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(append([]string{"-json", dir + "/bench3.json", "-baseline", out, "-tolerance", "15"}, args...)); err == nil {
		t.Fatal("1000x slowdown of the accommodation passed the regression gate")
	}
}
