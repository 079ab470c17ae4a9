package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/simclock"
)

// warnRSL is legal and matchable but carries a warning-severity finding
// (performance points listed out of order).
const warnRSL = `
harmonyBundle App:1 b {
	{only
		{node server * {memory 2}}
		{performance {{4 90} {1 300}}}
	}
}`

// brokenRSL carries an error-severity finding: "bogus" is bound in no
// evaluation context.
const brokenRSL = `
harmonyBundle App:1 b {
	{only
		{node server * {memory bogus}}
	}
}`

type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (lc *logCapture) logf(format string, args ...any) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.lines = append(lc.lines, fmt.Sprintf(format, args...))
}

func (lc *logCapture) joined() string {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return strings.Join(lc.lines, "\n")
}

func TestVetWarnLogsAndAccepts(t *testing.T) {
	var lc logCapture
	srv, _ := startTestServer(t, Config{Logf: lc.logf})
	c := dialTest(t, srv)
	if err := c.Startup("App", true); err != nil {
		t.Fatalf("Startup: %v", err)
	}
	if _, err := c.BundleSetup(warnRSL); err != nil {
		t.Fatalf("warn-severity finding rejected the bundle: %v", err)
	}
	if logged := lc.joined(); !strings.Contains(logged, "[perf-unsorted]") {
		t.Errorf("vet finding not logged; log was:\n%s", logged)
	}
}

func TestVetRejectRefusesErrors(t *testing.T) {
	srv, _ := startTestServer(t, Config{Vet: VetReject})
	c := dialTest(t, srv)
	if err := c.Startup("App", true); err != nil {
		t.Fatalf("Startup: %v", err)
	}
	if _, err := c.BundleSetup(brokenRSL); err == nil {
		t.Fatal("error-severity spec accepted under VetReject")
	} else if !strings.Contains(err.Error(), "unbound-var") {
		t.Errorf("rejection does not name the check: %v", err)
	}
	// Warnings alone do not reject.
	if _, err := c.BundleSetup(warnRSL); err != nil {
		t.Fatalf("warning-only spec rejected under VetReject: %v", err)
	}
}

func TestVetOffSkipsAnalysis(t *testing.T) {
	var lc logCapture
	srv, _ := startTestServer(t, Config{Vet: VetOff, Logf: lc.logf})
	c := dialTest(t, srv)
	if err := c.Startup("App", true); err != nil {
		t.Fatalf("Startup: %v", err)
	}
	if _, err := c.BundleSetup(warnRSL); err != nil {
		t.Fatalf("BundleSetup: %v", err)
	}
	if logged := lc.joined(); strings.Contains(logged, "vet:") {
		t.Errorf("vet ran under VetOff; log was:\n%s", logged)
	}
}

// hungryRSL fits a two-node SP-2 on its own (2 x 100 MB on 2 x 128 MB
// hosts) but two copies provably cannot coexist.
const hungryRSL = `
harmonyBundle Greedy:%d jobs {
	{run
		{node worker * {memory 100} {replicate 2}}
	}
}`

func TestVetRejectJointWorkload(t *testing.T) {
	cl, err := cluster.NewSP2(2)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.New(core.Config{Cluster: cl, Clock: simclock.New()})
	if err != nil {
		t.Fatal(err)
	}
	var lc logCapture
	srv, err := Listen("127.0.0.1:0", Config{Controller: ctrl, Vet: VetReject, Logf: lc.logf})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() {
		_ = srv.Close()
	})
	c := dialTest(t, srv)
	if err := c.Startup("Greedy", true); err != nil {
		t.Fatalf("Startup: %v", err)
	}
	if _, err := c.BundleSetup(fmt.Sprintf(hungryRSL, 1)); err != nil {
		t.Fatalf("first bundle rejected: %v", err)
	}
	// The second bundle is individually fine, but the pair demands 400 MB
	// of a 256 MB cluster — admission must consider the admitted set.
	if _, err := c.BundleSetup(fmt.Sprintf(hungryRSL, 2)); err == nil {
		t.Fatal("jointly infeasible bundle accepted under VetReject")
	} else if !strings.Contains(err.Error(), "workload-memory") {
		t.Errorf("rejection does not name the workload check: %v", err)
	}
	if logged := lc.joined(); !strings.Contains(logged, "[workload-memory]") {
		t.Errorf("joint finding not logged; log was:\n%s", logged)
	}
}

// TestVetWarnLogsJointWorkload: in the default mode the joint finding is
// logged before the bundle proceeds to the controller (which is free to
// refuse it for its own reasons — vet does not pre-empt that).
func TestVetWarnLogsJointWorkload(t *testing.T) {
	cl, err := cluster.NewSP2(2)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.New(core.Config{Cluster: cl, Clock: simclock.New()})
	if err != nil {
		t.Fatal(err)
	}
	var lc logCapture
	srv, err := Listen("127.0.0.1:0", Config{Controller: ctrl, Logf: lc.logf})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() {
		_ = srv.Close()
	})
	c := dialTest(t, srv)
	if err := c.Startup("Greedy", true); err != nil {
		t.Fatalf("Startup: %v", err)
	}
	if _, err := c.BundleSetup(fmt.Sprintf(hungryRSL, 1)); err != nil {
		t.Fatalf("first bundle rejected: %v", err)
	}
	// The controller legitimately refuses the second bundle (nothing
	// fits), but the vet log must already carry the joint finding.
	if _, err := c.BundleSetup(fmt.Sprintf(hungryRSL, 2)); err != nil &&
		strings.Contains(err.Error(), "vet:") {
		t.Fatalf("VetWarn rejected on a vet finding: %v", err)
	}
	if logged := lc.joined(); !strings.Contains(logged, "[workload-memory]") {
		t.Errorf("joint finding not logged; log was:\n%s", logged)
	}
}

func TestParseVetMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want VetMode
	}{
		{"warn", VetWarn},
		{"off", VetOff},
		{"reject", VetReject},
	} {
		got, err := ParseVetMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseVetMode(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if got.String() != tc.in {
			t.Errorf("VetMode(%v).String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseVetMode("nope"); err == nil {
		t.Error("ParseVetMode accepted an unknown mode")
	}
}
