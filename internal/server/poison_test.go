package server

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/replog"
	"harmony/internal/simclock"
)

// poisonRSL is a bundle_setup script under 2 KB whose one option declares
// four variables of 100 values each: 10^8 choices, each of which the
// controller would evaluate on every decision, on every member, and again on
// every replay of the log.
func poisonRSL(t *testing.T) string {
	t.Helper()
	var vals strings.Builder
	for i := 1; i <= 100; i++ {
		fmt.Fprintf(&vals, "%d ", i)
	}
	v := strings.TrimSpace(vals.String())
	src := fmt.Sprintf(`harmonyBundle Poison:1 b {
	{o
		{variable a {%[1]s}}
		{variable b {%[1]s}}
		{variable c {%[1]s}}
		{variable d {%[1]s}}
		{node n * {memory 1} {seconds {a + b + c + d}}}
	}
}`, v)
	if len(src) >= 2048 {
		t.Fatalf("poison script is %d bytes, want under 2 KB", len(src))
	}
	return src
}

// registerEntries counts the register entries in a replica's log.
func registerEntries(t *testing.T, r *Replica) int {
	t.Helper()
	entries, err := r.log.EntriesFrom(r.log.Snapshot().Index + 1)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if e.Op == replog.OpRegister {
			n++
		}
	}
	return n
}

// TestPoisonBundleRefused: a bundle_setup whose choices exceed the cap the
// controller enumerates is refused within milliseconds in every vet mode,
// before anything is proposed, and the connection goes on being served.
func TestPoisonBundleRefused(t *testing.T) {
	src := poisonRSL(t)
	for _, mode := range []VetMode{VetWarn, VetReject, VetOff} {
		t.Run(mode.String(), func(t *testing.T) {
			srv, ctrl := startTestServer(t, Config{Vet: mode})
			c := dialTest(t, srv)
			if err := c.Startup("Poison", true); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			_, err := c.BundleSetup(src)
			took := time.Since(start)
			if err == nil || !strings.Contains(err.Error(), "too many choices") && !strings.Contains(err.Error(), "too-many-choices") {
				t.Fatalf("poison bundle_setup: %v, want a too-many-choices refusal", err)
			}
			if took > 100*time.Millisecond {
				t.Errorf("refusal took %v", took)
			}
			if n := registerEntries(t, srv.rep); n != 0 {
				t.Errorf("%d register entries proposed", n)
			}
			if _, _, err := c.Status(); err != nil {
				t.Fatalf("status after the refusal: %v", err)
			}
			if inst, err := c.BundleSetup(dbRSL); err != nil || inst == 0 {
				t.Fatalf("bundle_setup after the refusal: %d, %v", inst, err)
			}
			if apps := ctrl.Apps(); len(apps) != 1 || apps[0].App != "DBclient" {
				t.Errorf("apps %+v, want the one DBclient", apps)
			}
		})
	}
}

// TestPoisonEntryReplays: a durable replica whose log already holds a
// register entry for such a bundle, written there before the cap existed,
// restarts, refuses the entry on apply without enumerating it, says so in its
// log once, and serves.
func TestPoisonEntryReplays(t *testing.T) {
	dir := t.TempDir()
	st, _, err := replog.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveHardState(replog.HardState{Term: 1}); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendEntries([]replog.Entry{{Index: 1, Term: 1, Op: replog.OpRegister, RSL: poisonRSL(t)}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	cl, err := cluster.NewSP2(8)
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.New()
	t.Cleanup(clock.Stop)
	ctrl, err := core.New(core.Config{Cluster: cl, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		lines []string
	)
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	refusals := func() (n int, last string) {
		mu.Lock()
		defer mu.Unlock()
		for _, l := range lines {
			if strings.Contains(l, "apply: entry") {
				n, last = n+1, l
			}
		}
		return n, last
	}
	start := time.Now()
	rep, err := NewReplica("", ReplicaConfig{Controller: ctrl, DataDir: dir, Logf: logf})
	if err != nil {
		t.Fatalf("restart on a log holding the poison entry: %v", err)
	}
	t.Cleanup(func() { _ = rep.Close() })
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("restart took %v", took)
	}
	if got := rep.Status().CommitIndex; got < 1 {
		t.Fatalf("commit index %d, want the poison entry applied", got)
	}
	if apps := ctrl.Apps(); len(apps) != 0 {
		t.Fatalf("apps %+v after replaying a refused entry", apps)
	}
	// Nobody proposed the entry in this run, so the log is where its
	// refusal shows: once, with its index, its op and the controller's error.
	if n, last := refusals(); n != 1 || !strings.Contains(last, "entry 1 (register)") || !strings.Contains(last, "choices") {
		t.Fatalf("%d refusal lines, the last %q; want one naming entry 1, register and the choice cap", n, last)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(ln, Config{Controller: ctrl, Replica: rep})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	c := dialTest(t, srv)
	if err := c.Startup("DBclient", true); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Status(); err != nil {
		t.Fatalf("status: %v", err)
	}
	if _, err := c.BundleSetup(dbRSL); err != nil {
		t.Fatalf("bundle_setup on the restarted member: %v", err)
	}
	if n, _ := refusals(); n != 1 {
		t.Fatalf("%d refusal lines after an admitted bundle_setup, want still 1", n)
	}
}
