package server

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"harmony/internal/hclient"
	"harmony/internal/replog"
)

// TestCloseJoinsEveryGoroutine proves at run time that every goroutine the
// server and client packages start has ended once their Close returns. It
// drives all twelve spawn sites: a standalone server with leases (accept
// loop, per-connection serve, lease sweeper, its own replica's loop); a
// three-member cluster that commits a proposal (run loops, peer senders, peer
// accept loops, per-peer handlers); and a reconnecting, heartbeating client
// whose connection the server drops once (read loop, heartbeats, reconnect
// loop, dial helper, and the read loop of the restored connection).
//
// Goroutines are told apart by id, not counted: any goroutine that existed
// before the test began is ignored, so what earlier tests left behind can
// neither hide a leak nor fake one.
func TestCloseJoinsEveryGoroutine(t *testing.T) {
	before := goroutineIDs(allStacks())

	srv, _ := startTestServer(t, Config{LeaseTTL: 30 * time.Second, LeaseGrace: 30 * time.Second})
	// The heartbeat interval is long on purpose: within the test's deadlines
	// only Close's stop channel can end the heartbeat loop.
	c, err := hclient.DialWith(srv.Addr(), hclient.DialConfig{Reconnect: true, HeartbeatInterval: time.Minute, MaxAttempts: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Startup("DBclient", false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BundleSetup(dbRSL); err != nil {
		t.Fatal(err)
	}
	srv.closeClientConns()
	waitTrue(t, 5*time.Second, "the client to resume", func() bool { return c.Stats().Resumes == 1 })
	if err := c.Heartbeat(); err != nil {
		t.Fatalf("heartbeat on the restored connection: %v", err)
	}

	nodes := startTestCluster(t, 3, time.Second, 0)
	if _, _, err := waitLeader(t, nodes).rep.Propose(&replog.Entry{Op: replog.OpReevaluate}); err != nil {
		t.Fatal(err)
	}

	closeWithin(t, "client", c.Close)
	closeWithin(t, "server", srv.Close)
	for _, n := range nodes {
		closeWithin(t, "member "+n.peerAddr, func() error { n.kill(); return nil })
	}

	var leaked []string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		leaked = leaked[:0]
		for _, g := range bytes.Split(allStacks(), []byte("\n\n")) {
			if id, ok := goroutineID(g); ok && !before[id] && bytes.Contains(g, []byte("harmony/internal/")) {
				leaked = append(leaked, string(g))
			}
		}
		if len(leaked) == 0 {
			return
		}
		if time.Now().After(deadline) {
			break
		}
	}
	t.Fatalf("%d goroutine(s) outlived Close:\n\n%s\n\nall goroutines:\n%s",
		len(leaked), strings.Join(leaked, "\n\n"), allStacks())
}

// closeWithin fails the test, printing every stack, when fn does not
// return within five seconds.
func closeWithin(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = fn()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: Close did not return within 5s\n%s", what, allStacks())
	}
}

// allStacks returns runtime.Stack of every goroutine, however long.
func allStacks() []byte {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}

// goroutineIDs lists the ids of the goroutines in a runtime.Stack dump.
func goroutineIDs(stacks []byte) map[uint64]bool {
	ids := map[uint64]bool{}
	for _, g := range bytes.Split(stacks, []byte("\n\n")) {
		if id, ok := goroutineID(g); ok {
			ids[id] = true
		}
	}
	return ids
}

// goroutineID parses the id from a stack's "goroutine N [state]:" header.
func goroutineID(stack []byte) (uint64, bool) {
	rest, ok := bytes.CutPrefix(stack, []byte("goroutine "))
	if !ok {
		return 0, false
	}
	num, _, ok := bytes.Cut(rest, []byte(" "))
	if !ok {
		return 0, false
	}
	id, err := strconv.ParseUint(string(num), 10, 64)
	return id, err == nil
}
