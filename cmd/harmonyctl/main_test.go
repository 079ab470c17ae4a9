package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"harmony"
)

func startServer(t *testing.T) string {
	t.Helper()
	cl, err := harmony.NewSP2Cluster(2)
	if err != nil {
		t.Fatal(err)
	}
	clock := harmony.NewClock()
	ctrl, err := harmony.NewController(harmony.ControllerConfig{Cluster: cl, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := harmony.ListenAndServe("127.0.0.1:0", harmony.ServerConfig{Controller: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = srv.Close()
		clock.Stop()
	})
	return srv.Addr()
}

func TestStatusAgainstLiveServer(t *testing.T) {
	addr := startServer(t)
	if err := run([]string{"-addr", addr, "status"}, nil, io.Discard); err != nil {
		t.Fatalf("status: %v", err)
	}
	if err := run([]string{"-addr", addr, "reevaluate"}, nil, io.Discard); err != nil {
		t.Fatalf("reevaluate: %v", err)
	}
}

func TestUnknownCommandEnumeratesSubcommands(t *testing.T) {
	err := run([]string{"bogus"}, nil, io.Discard)
	if err == nil {
		t.Fatal("unknown command accepted")
	}
	for _, want := range []string{"status", "reevaluate", "node", "vet", "lint", "analyze"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention subcommand %q", err, want)
		}
	}
}

func TestNodeLifecycleCommands(t *testing.T) {
	addr := startServer(t)
	for _, state := range []string{"down", "drain", "up"} {
		var out strings.Builder
		if err := run([]string{"-addr", addr, "node", state, "sp2-02"}, nil, &out); err != nil {
			t.Fatalf("node %s: %v", state, err)
		}
		if !strings.Contains(out.String(), state) {
			t.Errorf("node %s output %q does not echo the state", state, out.String())
		}
	}
	if err := run([]string{"-addr", addr, "node", "down", "no-such-host"}, nil, io.Discard); err == nil {
		t.Error("node down on unknown host succeeded")
	}
	if err := run([]string{"-addr", addr, "node", "sideways", "sp2-02"}, nil, io.Discard); err == nil {
		t.Error("bogus node state accepted")
	}
	if err := run([]string{"-addr", addr, "node", "down"}, nil, io.Discard); err == nil {
		t.Error("node without host accepted")
	}
}

func TestDialFailure(t *testing.T) {
	if err := run([]string{"-addr", "127.0.0.1:1", "status"}, nil, io.Discard); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func writeSpec(t *testing.T, name, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const goodSpec = `harmonyBundle App:1 b {
	{only {node n * {memory 4}}}
}
`

const badSpec = `harmonyBundle App:1 b {
	{only {node n * {memory bogus}}}
}
`

// TestVetOffline verifies vet needs no server: a clean file succeeds, a
// broken one fails with its diagnostics on stdout, file-prefixed.
func TestVetOffline(t *testing.T) {
	good := writeSpec(t, "good.rsl", goodSpec)
	if err := run([]string{"vet", good}, nil, io.Discard); err != nil {
		t.Fatalf("vet on a clean spec: %v", err)
	}

	bad := writeSpec(t, "bad.rsl", badSpec)
	var sb strings.Builder
	err := run([]string{"vet", good, bad}, nil, &sb)
	if err == nil {
		t.Fatal("vet on a broken spec succeeded")
	}
	if !strings.Contains(err.Error(), "1 of 2") {
		t.Errorf("error %q does not count broken files", err)
	}
	out := sb.String()
	if !strings.Contains(out, bad+":") || !strings.Contains(out, "[unbound-var]") {
		t.Errorf("diagnostics missing file prefix or check ID:\n%s", out)
	}
}

func TestVetJSON(t *testing.T) {
	bad := writeSpec(t, "bad.rsl", badSpec)
	var sb strings.Builder
	if err := run([]string{"vet", "-json", bad}, nil, &sb); err == nil {
		t.Fatal("vet on a broken spec succeeded")
	}
	var reports []*harmony.VetReport
	if err := json.Unmarshal([]byte(sb.String()), &reports); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, sb.String())
	}
	if len(reports) != 1 || !reports[0].HasErrors() {
		t.Fatalf("unexpected reports: %+v", reports)
	}
	if reports[0].Diags[0].Check != "unbound-var" {
		t.Errorf("check = %q, want unbound-var", reports[0].Diags[0].Check)
	}
}

func TestVetNoFiles(t *testing.T) {
	if err := run([]string{"vet"}, nil, io.Discard); err == nil {
		t.Fatal("vet without files succeeded")
	}
}

// TestVetStdin: "-" reads the spec from standard input and reports it as
// "<stdin>".
func TestVetStdin(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"vet", "-"}, strings.NewReader(badSpec), &sb)
	if err == nil {
		t.Fatal("vet on a broken stdin spec succeeded")
	}
	if !strings.Contains(sb.String(), "<stdin>:") {
		t.Errorf("diagnostics do not name <stdin>:\n%s", sb.String())
	}
	// stdin may only be consumed once.
	if err := run([]string{"vet", "-", "-"}, strings.NewReader(goodSpec), io.Discard); err == nil ||
		!strings.Contains(err.Error(), "once") {
		t.Errorf("double stdin not refused: %v", err)
	}
}

func TestVetSARIF(t *testing.T) {
	bad := writeSpec(t, "bad.rsl", badSpec)
	var sb strings.Builder
	if err := run([]string{"vet", "-sarif", bad}, nil, &sb); err == nil {
		t.Fatal("vet on a broken spec succeeded")
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &log); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, sb.String())
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 || len(log.Runs[0].Results) == 0 {
		t.Fatalf("unexpected SARIF shape: %+v", log)
	}
	if log.Runs[0].Results[0].RuleID != "unbound-var" {
		t.Errorf("ruleId = %q, want unbound-var", log.Runs[0].Results[0].RuleID)
	}
}

const tinyCluster = `harmonyNode only {speed 1} {memory 8} {os linux}
`

// greedySpec fits the tiny cluster alone; two of them cannot coexist.
const greedySpec = `harmonyBundle App:%d b {
	{only {node n * {memory 6}}}
}
`

func TestLint(t *testing.T) {
	cluster := writeSpec(t, "cluster.rsl", tinyCluster)
	a := writeSpec(t, "a.rsl", fmt.Sprintf(greedySpec, 1))
	b := writeSpec(t, "b.rsl", fmt.Sprintf(greedySpec, 2))

	// One spec fits.
	if err := run([]string{"lint", "-cluster", cluster, a}, nil, io.Discard); err != nil {
		t.Fatalf("lint on a feasible workload: %v", err)
	}

	// Two specs jointly exceed the cluster's 8 MB.
	var sb strings.Builder
	err := run([]string{"lint", "-cluster", cluster, a, b}, nil, &sb)
	if err == nil {
		t.Fatal("lint on an infeasible workload succeeded")
	}
	if !strings.Contains(sb.String(), "[workload-memory]") {
		t.Errorf("joint finding missing:\n%s", sb.String())
	}

	// The spec may come from stdin.
	if err := run([]string{"lint", "-cluster", cluster, a, "-"},
		strings.NewReader(fmt.Sprintf(greedySpec, 2)), &sb); err == nil {
		t.Fatal("lint with an infeasible stdin spec succeeded")
	}
}

func TestLintFlagValidation(t *testing.T) {
	cluster := writeSpec(t, "cluster.rsl", tinyCluster)
	spec := writeSpec(t, "a.rsl", fmt.Sprintf(greedySpec, 1))
	if err := run([]string{"lint", spec}, nil, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-cluster") {
		t.Errorf("missing -cluster not refused: %v", err)
	}
	if err := run([]string{"lint", "-cluster", cluster}, nil, io.Discard); err == nil {
		t.Error("lint without specs succeeded")
	}
	empty := writeSpec(t, "empty.rsl", "")
	if err := run([]string{"lint", "-cluster", empty, spec}, nil, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "harmonyNode") {
		t.Errorf("nodeless cluster not refused: %v", err)
	}
}

// domSpec has an option provably dominated by an earlier sibling and one
// whose memory lower bound can exceed a small cluster.
const domSpec = `harmonyBundle App:1 b {
	{lead {variable n {1 2}} {node w * {memory {n * 4}} {replicate n}} {performance {{1 10} {2 8}}}}
	{copy {variable n {1 2}} {node w * {memory {n * 4}} {replicate n}} {performance {{1 12} {2 8}}}}
	{hog {node w * {memory 1000}}}
}
`

func TestAnalyzeText(t *testing.T) {
	spec := writeSpec(t, "dom.rsl", domSpec)
	var sb strings.Builder
	if err := run([]string{"analyze", spec}, nil, &sb); err != nil {
		t.Fatalf("analyze: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"bundle App:b", "option lead", "memory MB      [4, 16]",
		"model seconds  [8, 10]", "copy < lead (identical-requirements"} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "unreachable") {
		t.Errorf("unreachability reported without a cluster:\n%s", out)
	}
}

func TestAnalyzeCluster(t *testing.T) {
	cluster := writeSpec(t, "cluster.rsl", tinyCluster)
	spec := writeSpec(t, "dom.rsl", domSpec)
	var sb strings.Builder
	if err := run([]string{"analyze", "-cluster", cluster, spec}, nil, &sb); err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if !strings.Contains(sb.String(), "unreachable: needs at least 1000 MB") {
		t.Errorf("hog not proven unreachable against the tiny cluster:\n%s", sb.String())
	}
}

func TestAnalyzeJSON(t *testing.T) {
	spec := writeSpec(t, "dom.rsl", domSpec)
	var sb strings.Builder
	if err := run([]string{"analyze", "-json", spec}, nil, &sb); err != nil {
		t.Fatalf("analyze -json: %v", err)
	}
	var reports []*harmony.AnalyzeBundleReport
	if err := json.Unmarshal([]byte(sb.String()), &reports); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, sb.String())
	}
	if len(reports) != 1 || len(reports[0].Options) != 3 {
		t.Fatalf("unexpected reports: %+v", reports)
	}
	if got := reports[0].Options[1].DominatedBy; got != "lead" {
		t.Errorf("copy dominated_by = %q, want lead", got)
	}
}

func TestAnalyzeNoFiles(t *testing.T) {
	if err := run([]string{"analyze"}, nil, io.Discard); err == nil {
		t.Fatal("analyze without files succeeded")
	}
}

// startReplicatedServer brings up a single-member replicated controller and
// returns its client address.
func startReplicatedServer(t *testing.T) string {
	t.Helper()
	cl, err := harmony.NewSP2Cluster(2)
	if err != nil {
		t.Fatal(err)
	}
	clock := harmony.NewClock()
	ctrl, err := harmony.NewController(harmony.ControllerConfig{Cluster: cl, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := harmony.NewReplica("127.0.0.1:0", harmony.ReplicaConfig{Controller: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := harmony.ListenAndServe("127.0.0.1:0", harmony.ServerConfig{Controller: ctrl, Replica: rep})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = srv.Close()
		_ = rep.Close()
		clock.Stop()
	})
	// A single member elects itself; wait so status reports a settled role.
	deadline := time.Now().Add(5 * time.Second)
	for !rep.IsLeader() {
		if time.Now().After(deadline) {
			t.Fatal("single replica never became leader")
		}
		time.Sleep(10 * time.Millisecond)
	}
	return srv.Addr()
}

func TestClusterStatusText(t *testing.T) {
	addr := startReplicatedServer(t)
	dead := "127.0.0.1:1" // nothing listens here
	var out strings.Builder
	if err := run([]string{"-addr", addr + "," + dead, "cluster", "status"}, nil, &out); err != nil {
		t.Fatalf("cluster status: %v", err)
	}
	got := out.String()
	for _, want := range []string{"leader", "address", "role", addr, dead} {
		if !strings.Contains(got, want) {
			t.Errorf("output %q does not mention %q", got, want)
		}
	}
}

func TestClusterStatusJSON(t *testing.T) {
	addr := startReplicatedServer(t)
	var out strings.Builder
	if err := run([]string{"-addr", addr, "cluster", "status", "-json"}, nil, &out); err != nil {
		t.Fatalf("cluster status -json: %v", err)
	}
	var rows []struct {
		Addr  string `json:"addr"`
		Role  string `json:"role"`
		Term  uint64 `json:"term"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(out.String()), &rows); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if len(rows) != 1 || rows[0].Role != "leader" || rows[0].Addr != addr || rows[0].Term == 0 {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestClusterStatusErrors(t *testing.T) {
	// A plain server is a cluster of one: it answers with its own row.
	plain := startServer(t)
	var out strings.Builder
	if err := run([]string{"-addr", plain, "cluster", "status"}, nil, &out); err != nil {
		t.Errorf("cluster status against a plain server: %v", err)
	}
	for _, want := range []string{plain, "leader"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output %q does not mention %q", out.String(), want)
		}
	}
	if err := run([]string{"-addr", plain, "cluster"}, nil, io.Discard); err == nil {
		t.Error("cluster without a verb accepted")
	}
	if err := run([]string{"-addr", " , ", "cluster", "status"}, nil, io.Discard); err == nil {
		t.Error("empty address list accepted")
	}
}
