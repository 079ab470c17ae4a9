package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"harmony/internal/protocol"
	"harmony/internal/testport"
)

// TestMain lets the test binary stand in for the daemon: run with
// "harmonyd-child" first, it serves like harmonyd until it is killed.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "harmonyd-child" {
		if err := run(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "harmonyd:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestFlagValidation(t *testing.T) {
	if err := run([]string{"-sp2", "4", "-resources", "x.rsl", "-addr", "127.0.0.1:0"}); err == nil {
		t.Fatal("-sp2 with -resources accepted")
	}
	if err := run([]string{"-objective", "bogus", "-sp2", "1", "-addr", "127.0.0.1:0"}); err == nil {
		t.Fatal("bogus objective accepted")
	}
	if err := run([]string{"-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-vet", "bogus", "-sp2", "1", "-addr", "127.0.0.1:0"}); err == nil {
		t.Fatal("bogus vet mode accepted")
	}
}

func TestResourcesFileErrors(t *testing.T) {
	if err := run([]string{"-resources", "/no/such/file.rsl", "-addr", "127.0.0.1:0"}); err == nil {
		t.Fatal("missing resources file accepted")
	}
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.rsl")
	if err := os.WriteFile(empty, []byte("# nothing here\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-resources", empty, "-addr", "127.0.0.1:0"}); err == nil {
		t.Fatal("empty resources file accepted")
	}
	withBundle := filepath.Join(dir, "bundle.rsl")
	if err := os.WriteFile(withBundle, []byte("harmonyBundle A:1 b {{O {node n *}}}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-resources", withBundle, "-addr", "127.0.0.1:0"}); err == nil {
		t.Fatal("bundle in resources file accepted")
	}
	bad := filepath.Join(dir, "bad.rsl")
	if err := os.WriteFile(bad, []byte("harmonyNode { unclosed\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-resources", bad, "-addr", "127.0.0.1:0"}); err == nil {
		t.Fatal("unparsable resources file accepted")
	}
}

func TestReplicaFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-peers", "127.0.0.1:9990"},
		{"-advertise", "127.0.0.1:9989"},
		{"-election-timeout", "1s"},
	} {
		if err := run(append(args, "-sp2", "1", "-addr", "127.0.0.1:0")); err == nil {
			t.Errorf("%v without -peer-addr accepted", args[0])
		}
	}
	// With two offenders the error names the first in flag-table order, every
	// time.
	for i := 0; i < 20; i++ {
		err := run([]string{"-election-timeout", "1s", "-advertise", "127.0.0.1:9989", "-sp2", "1", "-addr", "127.0.0.1:0"})
		if err == nil || err.Error() != "-advertise requires -peer-addr" {
			t.Fatalf("two offending flags: err = %v", err)
		}
	}
	// An unbindable peer address fails before serving.
	if err := run([]string{"-sp2", "1", "-addr", "127.0.0.1:0", "-peer-addr", "256.0.0.1:0"}); err == nil {
		t.Error("bogus -peer-addr accepted")
	}
}

const crashRSL = `harmonyBundle Crash:1 cfg {
	{only {node n * {os linux} {seconds 5} {memory 20}}}
}`

// daemonChild runs this test binary as harmonyd with args.
func daemonChild(t *testing.T, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"harmonyd-child"}, args...)...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	return cmd
}

// daemonSession is a raw protocol connection to a daemon child.
type daemonSession struct {
	t    *testing.T
	conn net.Conn
	w    *protocol.Writer
	r    *protocol.Reader
	seq  uint64
}

// dialDaemon connects once the child listens.
func dialDaemon(t *testing.T, addr string) *daemonSession {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			t.Cleanup(func() { _ = conn.Close() })
			return &daemonSession{t: t, conn: conn, w: protocol.NewWriter(conn), r: protocol.NewReader(conn)}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never listened on %s: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (s *daemonSession) call(msg *protocol.Message) *protocol.Message {
	s.t.Helper()
	s.seq++
	msg.Seq = s.seq
	if err := s.w.Write(msg); err != nil {
		s.t.Fatalf("write %s: %v", msg.Type, err)
	}
	_ = s.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		reply, err := s.r.Read()
		if err != nil {
			s.t.Fatalf("read reply to %s: %v", msg.Type, err)
		}
		if reply.Seq != msg.Seq {
			continue // unsolicited update
		}
		if reply.Type == protocol.TypeError {
			s.t.Fatalf("%s: server error: %s", msg.Type, reply.Error)
		}
		return reply
	}
}

// A standalone daemon is a cluster of one over a durable log: kill -9 after
// an admission loses neither the ledger nor the session, and the restarted
// daemon serves resume for the old token without an election wait.
func TestStandaloneDataDirSurvivesKill(t *testing.T) {
	addr := testport.Addr(t)
	dataDir := t.TempDir()

	daemonArgs := []string{"-addr", addr, "-sp2", "4", "-data-dir", dataDir, "-lease-grace", "30s"}
	first := daemonChild(t, daemonArgs...)
	s := dialDaemon(t, addr)
	token := s.call(&protocol.Message{Type: protocol.TypeStartup, AppID: "Crash"}).ResumeToken
	inst := s.call(&protocol.Message{Type: protocol.TypeBundleSetup, RSL: crashRSL}).Instance
	before := s.call(&protocol.Message{Type: protocol.TypeStatus}).Apps
	if token == "" || inst == 0 || len(before) != 1 || len(before[0].Hosts) == 0 {
		t.Fatalf("admission: token %q, instance %d, apps %+v", token, inst, before)
	}
	if err := first.Process.Kill(); err != nil { // SIGKILL: no shutdown path runs
		t.Fatal(err)
	}
	_ = first.Wait()

	daemonChild(t, daemonArgs...)
	s2 := dialDaemon(t, addr)
	resumed := s2.call(&protocol.Message{Type: protocol.TypeResume, ResumeToken: token})
	if !reflect.DeepEqual(resumed.Instances, []int{inst}) {
		t.Fatalf("resume instances = %v, want [%d]", resumed.Instances, inst)
	}
	if after := s2.call(&protocol.Message{Type: protocol.TypeStatus}).Apps; !reflect.DeepEqual(after, before) {
		t.Fatalf("placement after restart = %+v, want %+v", after, before)
	}
	// The resumed connection owns the instance again.
	s2.call(&protocol.Message{Type: protocol.TypeEnd, Instance: inst})
}

// An idle daemon keeps nothing per tick: on a 256-node SP-2 its resident
// memory three replicated ticks after the first is what it was after the
// first, give or take the runtime's own noise.
func TestIdleDaemonHoldsNoPerTickState(t *testing.T) {
	if _, err := os.Stat("/proc/self/status"); err != nil {
		t.Skip("no /proc to read a process's resident memory from")
	}
	addr := testport.Addr(t)
	child := daemonChild(t, "-addr", addr, "-sp2", "256")
	s := dialDaemon(t, addr)
	commit := func() uint64 {
		return s.call(&protocol.Message{Type: protocol.TypeClusterStatus}).Replica.CommitIndex
	}
	// awaitTicks returns once n more ticks have committed.
	awaitTicks := func(n uint64) {
		t.Helper()
		want := commit() + n
		deadline := time.Now().Add(time.Duration(n+5) * time.Second)
		for commit() < want {
			if time.Now().After(deadline) {
				t.Fatalf("commit index never reached %d", want)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	awaitTicks(1)
	before := rssKB(t, child.Process.Pid)
	awaitTicks(3)
	after := rssKB(t, child.Process.Pid)
	t.Logf("resident %d kB after the first tick, %d kB three ticks later", before, after)
	const slackKB = 3 << 10
	if after > before+slackKB {
		t.Fatalf("idle daemon grew from %d kB to %d kB over three ticks (slack %d kB)", before, after, slackKB)
	}
}

// rssKB reads a process's resident set size from /proc.
func rssKB(t *testing.T, pid int) int {
	t.Helper()
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmRSS:" {
			kb, err := strconv.Atoi(f[1])
			if err != nil {
				t.Fatal(err)
			}
			return kb
		}
	}
	t.Fatal("no VmRSS line in /proc status")
	return 0
}
