package vet

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSARIFGolden renders a mixed batch — a single-script report plus a
// workload report — and compares it byte-for-byte against the golden log.
func TestSARIFGolden(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "expr.rsl"))
	if err != nil {
		t.Fatal(err)
	}
	script := Script(string(src), Options{})
	script.File = "expr.rsl"
	workload := Workload(workloadCorpus(t, "workload"), Options{})

	got, err := SARIF([]*Report{script, nil, workload})
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "sarif.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run SARIF -update): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("SARIF mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestSARIFShape checks structural invariants independent of the golden:
// valid JSON, one run, every registered rule present, results resolving
// their ruleIndex, and severity-to-level mapping.
func TestSARIFShape(t *testing.T) {
	rep := Workload(workloadCorpus(t, "workload"), Options{})
	out, err := SARIF([]*Report{rep})
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
						DC struct {
							Level string `json:"level"`
						} `json:"defaultConfiguration"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex *int   `json:"ruleIndex"`
				Level     string `json:"level"`
				Locations []struct {
					Physical struct {
						Artifact struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out, &log); err != nil {
		t.Fatalf("SARIF output is not JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version %q, %d runs", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "harmonyctl-vet" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) != len(Checks()) {
		t.Errorf("rules = %d, want %d", len(run.Tool.Driver.Rules), len(Checks()))
	}
	if len(run.Results) != len(rep.Diags) {
		t.Fatalf("results = %d, want %d", len(run.Results), len(rep.Diags))
	}
	for i, res := range run.Results {
		d := rep.Diags[i]
		if res.RuleID != d.Check {
			t.Errorf("result %d ruleId = %q, want %q", i, res.RuleID, d.Check)
		}
		if res.RuleIndex == nil || run.Tool.Driver.Rules[*res.RuleIndex].ID != d.Check {
			t.Errorf("result %d ruleIndex does not resolve to %q", i, d.Check)
		}
		if want := sarifLevel(d.Severity); res.Level != want {
			t.Errorf("result %d level = %q, want %q", i, res.Level, want)
		}
		if len(res.Locations) != 1 || res.Locations[0].Physical.Artifact.URI != d.File ||
			res.Locations[0].Physical.Region.StartLine != d.Line {
			t.Errorf("result %d location = %+v, want %s:%d", i, res.Locations, d.File, d.Line)
		}
	}
}
