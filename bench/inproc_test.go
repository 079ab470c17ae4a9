package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"harmony"
)

// launchInProcess stands one server per workload up inside the test process
// (harmony.ListenAndServe over a controller built as harmonyd builds its
// own), so the whole pipeline — session, window, oracle, shadow spans,
// probes — runs without child processes.
func launchInProcess(dir string, w Workload) (*Deployment, error) {
	sh, err := newShadow(w, 0, nil)
	if err != nil {
		return nil, err
	}
	srv, err := harmony.ListenAndServe("127.0.0.1:0", harmony.ServerConfig{Controller: sh.ctrl})
	if err != nil {
		sh.Close()
		return nil, err
	}
	return &Deployment{
		members: []*member{{client: srv.Addr()}},
		stopInProcess: func() {
			_ = srv.Close()
			sh.Close()
		},
	}, nil
}

// inProcessConfig runs w for half a second with a short warm-up and a single
// set-up. replica-squeeze runs as its standalone twin: its inputs are the
// same, and replication needs real processes to kill.
func inProcessConfig(t *testing.T, w Workload, traced bool) RunConfig {
	w.Members = 1
	w.Warmup = 3
	return RunConfig{
		Workload: w, Seed: 5, Seconds: 0.5, Trace: traced,
		WorkDir: t.TempDir(), SetupRepeats: 1, Launch: launchInProcess,
	}
}

func metricNames(specs []metricSpec) []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.Name)
	}
	sort.Strings(out)
	return out
}

func checkEmitted(t *testing.T, res *Result, specs []metricSpec) {
	t.Helper()
	if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
		t.Errorf("%s: attempted=%d failed=%d correct=%t: %v", res.Workload, res.Attempted, res.Failed, res.Correct, res.Notes)
	}
	var got []string
	for name := range res.Metrics {
		got = append(got, name)
	}
	sort.Strings(got)
	want := metricNames(specs)
	if len(got) != len(want) {
		t.Errorf("%s: emitted %d metrics, want %d\n got: %v\nwant: %v", res.Workload, len(got), len(want), got, want)
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: emitted %q where %q was expected", res.Workload, got[i], want[i])
		}
	}
	for _, s := range specs {
		if m := res.Metrics[s.Name]; m.Unit != s.Unit {
			t.Errorf("%s: %s has unit %q, want %q", res.Workload, s.Name, m.Unit, s.Unit)
		}
	}
}

// Every workload, untraced: the end-to-end metrics are emitted by name and
// the oracle agrees with every ack and the final status.
func TestWorkloadsInProcess(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			res, err := run(ctx, inProcessConfig(t, w, false))
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, res, endToEndMetrics)
			if res.Metrics["cycles_per_s"].Value <= 0 || res.Metrics["admit_ms_p50"].Value <= 0 {
				t.Errorf("no work measured: %+v", res.Metrics)
			}
		})
	}
}

// Every standalone workload, traced: every per-layer metric is emitted, the
// spans carry parent links and cycle ids, and the layers the server's
// bundle_setup handler calls all appear under a server.bundle_setup span.
func TestTracedInProcess(t *testing.T) {
	for _, w := range workloads[:3] {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			cfg := inProcessConfig(t, w, true)
			cfg.TraceOut = cfg.WorkDir + "/spans.json"
			res, err := run(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, res, perLayerMetrics)
			for _, name := range []string{"core.register_ms", "rsl.decode_us", "vet.workload_us", "hclient.conn_setup_us", "protocol.bytes_per_cycle"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want a measurement", name, res.Metrics[name].Value)
				}
			}
			spans, err := readSpans(cfg.TraceOut)
			if err != nil {
				t.Fatal(err)
			}
			byID := make(map[int]Span)
			for _, s := range spans {
				byID[s.ID] = s
			}
			under := make(map[string]bool)
			for _, s := range spans {
				if p, ok := byID[s.Parent]; ok {
					if p.Cycle != s.Cycle {
						t.Fatalf("span %d (%s) of cycle %d has parent of cycle %d", s.ID, s.Name, s.Cycle, p.Cycle)
					}
					if p.Name == "server.bundle_setup" || byID[p.Parent].Name == "server.bundle_setup" {
						under[s.Name] = true
					}
				} else if s.Parent != 0 {
					t.Fatalf("span %d (%s) names a missing parent %d", s.ID, s.Name, s.Parent)
				}
			}
			for _, name := range []string{"protocol.decode", "vet.script", "vet.workload", "rsl.decode", "core.register", "namespace.walk", "protocol.encode"} {
				if !under[name] {
					t.Errorf("no %s span under server.bundle_setup", name)
				}
			}
		})
	}
}

func readSpans(path string) ([]Span, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spans []Span
	return spans, json.Unmarshal(data, &spans)
}
