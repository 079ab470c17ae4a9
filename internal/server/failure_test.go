package server

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"harmony/internal/core"
	"harmony/internal/hclient"
	"harmony/internal/protocol"
	"harmony/internal/replog"
)

// rawDial opens a plain TCP connection for protocol-level fault injection.
func rawDial(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// readWireError expects a TypeError reply mentioning want, then EOF.
func readWireError(t *testing.T, conn net.Conn, want string) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	reply, err := protocol.NewReader(conn).Read()
	if err != nil {
		t.Fatalf("read error reply: %v", err)
	}
	if reply.Type != protocol.TypeError || !strings.Contains(reply.Error, want) {
		t.Fatalf("reply = %+v, want error mentioning %q", reply, want)
	}
}

func TestServerSurvivesGarbageBytes(t *testing.T) {
	srv, ctrl := startTestServer(t, Config{})
	conn := rawDial(t, srv)
	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	// The peer is told why before the connection drops, and the server
	// keeps serving others.
	readWireError(t, conn, "malformed message")

	good := dialTest(t, srv)
	if err := good.Startup("app", false); err != nil {
		t.Fatalf("healthy client broken after garbage: %v", err)
	}
	if got := len(ctrl.Apps()); got != 0 {
		t.Fatalf("garbage created %d apps", got)
	}
}

func TestServerRejectsTypelessMessage(t *testing.T) {
	srv, _ := startTestServer(t, Config{})
	conn := rawDial(t, srv)
	if _, err := conn.Write([]byte("{}\n")); err != nil {
		t.Fatal(err)
	}
	readWireError(t, conn, "without type")
	// The reply was a goodbye: the connection is closed afterwards.
	buf := make([]byte, 16)
	if n, err := conn.Read(buf); err == nil && n > 0 {
		t.Fatalf("connection still open after wire error: read %q", buf[:n])
	}
}

func TestServerRejectsUnknownType(t *testing.T) {
	srv, _ := startTestServer(t, Config{})
	conn := rawDial(t, srv)
	w := protocol.NewWriter(conn)
	if err := w.Write(&protocol.Message{Type: "frobnicate", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	r := protocol.NewReader(conn)
	reply, err := r.Read()
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	if reply.Type != protocol.TypeError || !strings.Contains(reply.Error, "frobnicate") {
		t.Fatalf("reply = %+v", reply)
	}
}

func TestServerRejectsOversizedLine(t *testing.T) {
	srv, _ := startTestServer(t, Config{})
	conn := rawDial(t, srv)
	// Exceed MaxMessageBytes on one line; the server names the limit in an
	// error reply before dropping the connection.
	huge := strings.Repeat("x", protocol.MaxMessageBytes+10)
	if _, err := conn.Write([]byte(huge)); err != nil {
		// A write error here just means the server closed early — fine.
		t.Logf("write: %v", err)
	} else {
		readWireError(t, conn, "byte limit")
	}
	_ = conn.Close()

	good := dialTest(t, srv)
	if err := good.Startup("app", false); err != nil {
		t.Fatalf("server unhealthy after oversized line: %v", err)
	}
}

func TestEndForForeignInstanceRejected(t *testing.T) {
	srv, _ := startTestServer(t, Config{})
	owner := dialTest(t, srv)
	if err := owner.Startup("DBclient", false); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.BundleSetup(dbRSL); err != nil {
		t.Fatal(err)
	}
	// Another connection tries to end the owner's instance.
	intruder := rawDial(t, srv)
	w := protocol.NewWriter(intruder)
	if err := w.Write(&protocol.Message{Type: protocol.TypeEnd, Seq: 1, Instance: 1}); err != nil {
		t.Fatal(err)
	}
	reply, err := protocol.NewReader(intruder).Read()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != protocol.TypeError {
		t.Fatalf("foreign end reply = %+v", reply)
	}
	// The owner's registration is intact.
	apps, _, err := owner.Status()
	if err != nil || len(apps) != 1 {
		t.Fatalf("apps = %v, %v", apps, err)
	}
}

func TestConcurrentClientChurn(t *testing.T) {
	srv, ctrl := startTestServer(t, Config{})
	const rounds = 20
	errs := make(chan error, rounds)
	// At most four in flight: the shared server machine has 128 MB and
	// each registration claims 20 MB, so unbounded concurrency would hit
	// legitimate capacity exhaustion rather than exercise churn.
	sem := make(chan struct{}, 4)
	for i := 0; i < rounds; i++ {
		go func() {
			sem <- struct{}{}
			defer func() { <-sem }()
			c, err := hclient.Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			if err := c.Startup("DBclient", false); err != nil {
				errs <- err
				return
			}
			if _, err := c.BundleSetup(dbRSL); err != nil {
				errs <- err
				return
			}
			errs <- c.End()
		}()
	}
	for i := 0; i < rounds; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("churn round: %v", err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(ctrl.Apps()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d apps leaked after churn", len(ctrl.Apps()))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// protoSession is a minimal raw-protocol client for lease/resume tests.
type protoSession struct {
	conn net.Conn
	w    *protocol.Writer
	r    *protocol.Reader
	seq  uint64
}

func newProtoSession(t *testing.T, srv *Server) *protoSession {
	t.Helper()
	return &protoSession{conn: rawDial(t, srv)}
}

// call sends a request and waits for its Seq-matched reply, skipping
// asynchronous updates.
func (p *protoSession) call(t *testing.T, msg *protocol.Message) *protocol.Message {
	t.Helper()
	if p.w == nil {
		p.w = protocol.NewWriter(p.conn)
		p.r = protocol.NewReader(p.conn)
	}
	p.seq++
	msg.Seq = p.seq
	if err := p.w.Write(msg); err != nil {
		t.Fatalf("write %s: %v", msg.Type, err)
	}
	_ = p.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		reply, err := p.r.Read()
		if err != nil {
			t.Fatalf("read reply to %s: %v", msg.Type, err)
		}
		if reply.Seq != msg.Seq {
			continue // unsolicited update
		}
		if reply.Type == protocol.TypeError {
			t.Fatalf("%s: server error: %s", msg.Type, reply.Error)
		}
		return reply
	}
}

func waitForApps(t *testing.T, ctrl *core.Controller, want int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		if got := len(ctrl.Apps()); got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("apps = %d, want %d after %v", len(ctrl.Apps()), want, within)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestLeaseExpiryReclaimsResources(t *testing.T) {
	srv, ctrl := startTestServer(t, Config{LeaseTTL: 100 * time.Millisecond})
	p := newProtoSession(t, srv)
	p.call(t, &protocol.Message{Type: protocol.TypeStartup, AppID: "DBclient"})
	p.call(t, &protocol.Message{Type: protocol.TypeBundleSetup, RSL: dbRSL})
	waitForApps(t, ctrl, 1, time.Second)
	before, err := ctrl.Ledger().Node("sp2-01")
	if err != nil {
		t.Fatal(err)
	}
	if before.FreeMemoryMB == before.Node.MemoryMB {
		t.Fatal("registration reserved nothing")
	}
	// Go silent: no heartbeat, no traffic. The lease lapses, the server
	// closes the connection and — with no grace configured — unregisters.
	waitForApps(t, ctrl, 0, 2*time.Second)
	after, err := ctrl.Ledger().Node("sp2-01")
	if err != nil {
		t.Fatal(err)
	}
	if after.FreeMemoryMB != after.Node.MemoryMB {
		t.Fatalf("memory not reclaimed: %g/%g MB free", after.FreeMemoryMB, after.Node.MemoryMB)
	}
	if err := ctrl.Ledger().CheckConservation(); err != nil {
		t.Fatalf("conservation: %v", err)
	}
}

func TestHeartbeatRenewsLease(t *testing.T) {
	srv, ctrl := startTestServer(t, Config{LeaseTTL: 150 * time.Millisecond})
	p := newProtoSession(t, srv)
	p.call(t, &protocol.Message{Type: protocol.TypeStartup, AppID: "DBclient"})
	p.call(t, &protocol.Message{Type: protocol.TypeBundleSetup, RSL: dbRSL})
	// Heartbeats alone keep the session alive well past several TTLs.
	for i := 0; i < 8; i++ {
		time.Sleep(60 * time.Millisecond)
		p.call(t, &protocol.Message{Type: protocol.TypeHeartbeat})
	}
	if got := len(ctrl.Apps()); got != 1 {
		t.Fatalf("apps = %d after heartbeats, want 1", got)
	}
}

func TestMidMessageDisconnectUnregisters(t *testing.T) {
	srv, ctrl := startTestServer(t, Config{})
	p := newProtoSession(t, srv)
	p.call(t, &protocol.Message{Type: protocol.TypeStartup, AppID: "DBclient"})
	p.call(t, &protocol.Message{Type: protocol.TypeBundleSetup, RSL: dbRSL})
	waitForApps(t, ctrl, 1, time.Second)
	// Die mid-message: half a JSON object, no newline, then RST-ish close.
	if _, err := p.conn.Write([]byte(`{"type":"rep`)); err != nil {
		t.Fatal(err)
	}
	_ = p.conn.Close()
	waitForApps(t, ctrl, 0, 2*time.Second)
	if err := ctrl.Ledger().CheckConservation(); err != nil {
		t.Fatalf("conservation: %v", err)
	}
}

func TestSlowLorisLeaseExpires(t *testing.T) {
	srv, ctrl := startTestServer(t, Config{LeaseTTL: 120 * time.Millisecond})
	conn := rawDial(t, srv)
	// Dribble bytes that never complete a line: partial frames do not renew
	// the lease, so the server eventually hangs up on the loris.
	closed := false
	for i := 0; i < 100; i++ {
		if _, err := conn.Write([]byte("x")); err != nil {
			closed = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !closed {
		// The write side may not observe the close immediately; confirm via
		// a read.
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 16)
		if _, err := conn.Read(buf); err == nil {
			t.Fatal("slow-loris connection still open after lease TTL")
		}
	}
	// And the server still serves real clients.
	good := dialTest(t, srv)
	if err := good.Startup("app", false); err != nil {
		t.Fatalf("server unhealthy after slow loris: %v", err)
	}
	_ = ctrl
}

// TestNewConnectionSurvivesSweep: the accept loop publishes a connection
// before its serve goroutine runs, and the lease sweeper may look at it in
// between. The lease must already run from the accept then, or the sweep
// sees a connection idle since the epoch and closes it.
func TestNewConnectionSurvivesSweep(t *testing.T) {
	srv, _ := startTestServer(t, Config{LeaseTTL: 200 * time.Millisecond})
	server, client := net.Pipe()
	defer client.Close()
	if _, ok := srv.addConn(server); !ok {
		t.Fatal("addConn refused a connection on an open server")
	}
	// No serve goroutine: the connection stays where the accept loop left
	// it while two sweeps (one every TTL/4) run inside its lease.
	_ = client.SetReadDeadline(time.Now().Add(120 * time.Millisecond))
	_, err := client.Read(make([]byte, 1))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("the lease sweep closed a connection accepted %v ago (read: %v)", 120*time.Millisecond, err)
	}
}

func TestResumeWithinGraceKeepsRegistration(t *testing.T) {
	srv, ctrl := startTestServer(t, Config{
		LeaseTTL:   100 * time.Millisecond,
		LeaseGrace: 2 * time.Second,
	})
	p := newProtoSession(t, srv)
	ack := p.call(t, &protocol.Message{Type: protocol.TypeStartup, AppID: "DBclient"})
	if ack.ResumeToken == "" {
		t.Fatal("startup ack carries no resume token")
	}
	setup := p.call(t, &protocol.Message{Type: protocol.TypeBundleSetup, RSL: dbRSL})
	inst := setup.Instance
	// Drop the connection abruptly; the registration is parked, not ended.
	_ = p.conn.Close()
	time.Sleep(250 * time.Millisecond) // well past the lease TTL
	if got := len(ctrl.Apps()); got != 1 {
		t.Fatalf("apps = %d during grace window, want 1 (parked)", got)
	}
	// Reconnect and resume.
	p2 := newProtoSession(t, srv)
	rack := p2.call(t, &protocol.Message{Type: protocol.TypeResume, ResumeToken: ack.ResumeToken})
	if len(rack.Instances) != 1 || rack.Instances[0] != inst {
		t.Fatalf("resume instances = %v, want [%d]", rack.Instances, inst)
	}
	// The resumed connection owns the instance again: end works.
	p2.call(t, &protocol.Message{Type: protocol.TypeEnd, Instance: inst})
	waitForApps(t, ctrl, 0, time.Second)
}

func TestGraceLapseUnregisters(t *testing.T) {
	srv, ctrl := startTestServer(t, Config{
		LeaseTTL:   50 * time.Millisecond,
		LeaseGrace: 150 * time.Millisecond,
	})
	p := newProtoSession(t, srv)
	p.call(t, &protocol.Message{Type: protocol.TypeStartup, AppID: "DBclient"})
	p.call(t, &protocol.Message{Type: protocol.TypeBundleSetup, RSL: dbRSL})
	_ = p.conn.Close()
	// Nobody resumes: after TTL + grace the registration is reclaimed.
	waitForApps(t, ctrl, 0, 2*time.Second)
	if err := ctrl.Ledger().CheckConservation(); err != nil {
		t.Fatalf("conservation: %v", err)
	}
	// The lapsed token is no longer resumable.
	p2 := newProtoSession(t, srv)
	if p2.w == nil {
		p2.w = protocol.NewWriter(p2.conn)
		p2.r = protocol.NewReader(p2.conn)
	}
	_ = p2.w.Write(&protocol.Message{Type: protocol.TypeResume, Seq: 1, ResumeToken: "deadbeefdeadbeefdeadbeefdeadbeef"})
	_ = p2.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	reply, err := p2.r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != protocol.TypeError || !strings.Contains(reply.Error, "unknown or expired") {
		t.Fatalf("resume of lapsed token: %+v", reply)
	}
}

func TestResumeStealsLiveSession(t *testing.T) {
	// No lease TTL: the server never notices the old connection die, so a
	// resume must take the session over from the nominally-live conn.
	srv, ctrl := startTestServer(t, Config{LeaseGrace: 2 * time.Second})
	p := newProtoSession(t, srv)
	ack := p.call(t, &protocol.Message{Type: protocol.TypeStartup, AppID: "DBclient"})
	setup := p.call(t, &protocol.Message{Type: protocol.TypeBundleSetup, RSL: dbRSL})

	p2 := newProtoSession(t, srv)
	rack := p2.call(t, &protocol.Message{Type: protocol.TypeResume, ResumeToken: ack.ResumeToken})
	if len(rack.Instances) != 1 || rack.Instances[0] != setup.Instance {
		t.Fatalf("resume instances = %v, want [%d]", rack.Instances, setup.Instance)
	}
	// The old connection's eventual death must not unregister anything.
	_ = p.conn.Close()
	time.Sleep(100 * time.Millisecond)
	if got := len(ctrl.Apps()); got != 1 {
		t.Fatalf("apps = %d after old conn died, want 1", got)
	}
}

// TestUnreadClientDoesNotStallConsensus: updates are written on the replica's
// loop, so a client that stops reading must not hold that loop. An instance is
// bound to a connection nobody reads after the ack; forcing the instance to
// another choice writes it an update, which may not block the mutation past
// the write deadline, and the connection is closed.
func TestUnreadClientDoesNotStallConsensus(t *testing.T) {
	srv, _ := startTestServer(t, Config{})
	res, _, err := srv.rep.Propose(&replog.Entry{Op: replog.OpRegister, RSL: dbRSL})
	if err != nil {
		t.Fatal(err)
	}
	inst := res.Instance
	server, client := net.Pipe()
	defer client.Close()
	c, ok := srv.addConn(server)
	if !ok {
		t.Fatal("addConn refused a connection on an open server")
	}
	acked := make(chan error, 1)
	go func() { acked <- c.ackBundleSetup(inst, 1) }()
	_ = client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := protocol.NewReader(client).Read(); err != nil {
		t.Fatalf("reading the ack: %v", err)
	}
	if err := <-acked; err != nil {
		t.Fatalf("writing the ack: %v", err)
	}

	other := "DS"
	if res.Events[0].Choice.Option == other {
		other = "QS"
	}
	forced := make(chan error, 1)
	go func() {
		_, err := srv.ForceChoice(inst, core.Choice{Option: other})
		forced <- err
	}()
	select {
	case err := <-forced:
		if err != nil {
			t.Fatalf("ForceChoice: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("ForceChoice still waits on a client that does not read after 1 s")
	}
	_ = client.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := client.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("the unread connection is still open: read %v, want EOF", err)
	}
}
