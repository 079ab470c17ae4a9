package hclient

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/protocol"
	"harmony/internal/server"
	"harmony/internal/simclock"
)

const resilienceRSL = `
harmonyBundle DBclient:1 where {
	{QS
		{node server sp2-01 {seconds 5} {memory 20}}
		{node client * {os linux} {seconds 1} {memory 2}}
		{link client server 2}
	}
}`

func startRealServer(t *testing.T, cfg server.Config) (*server.Server, *core.Controller) {
	t.Helper()
	cl, err := cluster.NewSP2(4)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.New(core.Config{Cluster: cl, Clock: simclock.New()})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Controller = ctrl
	srv, err := server.Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = srv.Close()
	})
	return srv, ctrl
}

// flakyProxy forwards TCP to a target and can sever every live pipe, so
// tests can break the client's connection without the server's listener
// going away.
type flakyProxy struct {
	ln     net.Listener
	target string

	mu     sync.Mutex
	pipes  []net.Conn
	paused bool
	done   bool
}

func newFlakyProxy(t *testing.T, target string) *flakyProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flakyProxy{ln: ln, target: target}
	go p.acceptLoop()
	t.Cleanup(p.close)
	return p
}

func (p *flakyProxy) Addr() string { return p.ln.Addr().String() }

func (p *flakyProxy) acceptLoop() {
	for {
		in, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		paused := p.paused
		p.mu.Unlock()
		if paused {
			_ = in.Close()
			continue
		}
		out, err := net.Dial("tcp", p.target)
		if err != nil {
			_ = in.Close()
			continue
		}
		p.mu.Lock()
		p.pipes = append(p.pipes, in, out)
		p.mu.Unlock()
		go func() { _, _ = io.Copy(out, in); _ = out.Close(); _ = in.Close() }()
		go func() { _, _ = io.Copy(in, out); _ = in.Close(); _ = out.Close() }()
	}
}

// sever kills every live pipe; new connections still go through.
func (p *flakyProxy) sever() {
	p.mu.Lock()
	pipes := p.pipes
	p.pipes = nil
	p.mu.Unlock()
	for _, c := range pipes {
		_ = c.Close()
	}
}

func (p *flakyProxy) setPaused(v bool) {
	p.mu.Lock()
	p.paused = v
	p.mu.Unlock()
}

func (p *flakyProxy) close() {
	p.mu.Lock()
	if p.done {
		p.mu.Unlock()
		return
	}
	p.done = true
	p.mu.Unlock()
	_ = p.ln.Close()
	p.sever()
}

func waitFor(t *testing.T, what string, within time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestReconnectResumesSession(t *testing.T) {
	srv, ctrl := startRealServer(t, server.Config{
		LeaseTTL:   200 * time.Millisecond,
		LeaseGrace: 5 * time.Second,
	})
	proxy := newFlakyProxy(t, srv.Addr())
	c, err := DialWith(proxy.Addr(), DialConfig{
		Reconnect:         true,
		HeartbeatInterval: 50 * time.Millisecond,
		BackoffBase:       10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Startup("DBclient", true); err != nil {
		t.Fatal(err)
	}
	inst, err := c.BundleSetup(resilienceRSL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddVariable("where", protocol.StrVar("QS")); err != nil {
		t.Fatal(err)
	}

	proxy.sever()
	waitFor(t, "session resume", 5*time.Second, func() bool {
		return c.Stats().Resumes >= 1
	})
	// The registration survived the drop: same instance, no re-setup.
	if got := c.Instance(); got != inst {
		t.Fatalf("instance after resume = %d, want %d", got, inst)
	}
	if st := c.Stats(); st.Replays != 0 {
		t.Fatalf("session was replayed, want pure resume: %+v", st)
	}
	if got := len(ctrl.Apps()); got != 1 {
		t.Fatalf("apps = %d after resume, want 1", got)
	}
	// The resumed connection still owns the instance.
	if err := c.End(); err != nil {
		t.Fatalf("End after resume: %v", err)
	}
	waitFor(t, "unregister", 2*time.Second, func() bool { return len(ctrl.Apps()) == 0 })
	if err := ctrl.Ledger().CheckConservation(); err != nil {
		t.Fatalf("conservation: %v", err)
	}
}

// TestReconnectPassSkipsSilentMember: a member that accepts connections and
// never answers holds a reconnect pass for one dial timeout, its handshake
// included, and the pass then resumes the session on the live member.
func TestReconnectPassSkipsSilentMember(t *testing.T) {
	srv, _ := startRealServer(t, server.Config{
		LeaseTTL:   200 * time.Millisecond,
		LeaseGrace: 5 * time.Second,
	})
	proxy := newFlakyProxy(t, srv.Addr())
	// Nothing accepts: the kernel completes the connection and the
	// handshake's request goes unanswered.
	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	c, err := DialWith(proxy.Addr()+","+silent.Addr().String(), DialConfig{
		Reconnect:   true,
		Timeout:     300 * time.Millisecond,
		BackoffBase: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Startup("DBclient", true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BundleSetup(resilienceRSL); err != nil {
		t.Fatal(err)
	}
	// The pass after the drop starts at the member after the one that
	// answered: the silent one.
	proxy.sever()
	waitFor(t, "session resume past the silent member", time.Second, func() bool {
		return c.Stats().Resumes >= 1
	})
}

// TestReconnectWithoutInstanceReplays drops a client that started up but
// registered nothing. Such a session is not in the server's log, so however
// fast the client comes back and whatever the grace window, its resume token
// is unknown: the reconnect replays the startup, and the client then
// registers as usual.
func TestReconnectWithoutInstanceReplays(t *testing.T) {
	srv, ctrl := startRealServer(t, server.Config{
		LeaseTTL:   200 * time.Millisecond,
		LeaseGrace: 5 * time.Second,
	})
	proxy := newFlakyProxy(t, srv.Addr())
	c, err := DialWith(proxy.Addr(), DialConfig{
		Reconnect:         true,
		HeartbeatInterval: 50 * time.Millisecond,
		BackoffBase:       10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Startup("DBclient", true); err != nil {
		t.Fatal(err)
	}

	proxy.sever()
	waitFor(t, "reconnect", 5*time.Second, func() bool { return c.Stats().Reconnects >= 1 })
	if st := c.Stats(); st.Reconnects != 1 || st.Replays != 1 || st.Resumes != 0 {
		t.Fatalf("stats after the drop = %+v, want one reconnect, one replay, no resume", st)
	}
	if _, err := c.BundleSetup(resilienceRSL); err != nil {
		t.Fatalf("BundleSetup after the replay: %v", err)
	}
	if got := len(ctrl.Apps()); got != 1 {
		t.Fatalf("apps = %d after the registration, want 1", got)
	}
	if err := c.End(); err != nil {
		t.Fatalf("End: %v", err)
	}
}

func TestReconnectReplaysWhenGraceLapsed(t *testing.T) {
	// No grace: a disconnect unregisters immediately, so the reconnecting
	// client must fall back to a full handshake replay.
	srv, ctrl := startRealServer(t, server.Config{})
	proxy := newFlakyProxy(t, srv.Addr())
	c, err := DialWith(proxy.Addr(), DialConfig{
		Reconnect:   true,
		BackoffBase: 10 * time.Millisecond,
		MaxAttempts: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Startup("DBclient", true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BundleSetup(resilienceRSL); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddVariable("where", protocol.StrVar("QS")); err != nil {
		t.Fatal(err)
	}

	// Hold the proxy shut until the server has processed the disconnect,
	// so the client cannot steal the still-live session.
	proxy.setPaused(true)
	proxy.sever()
	waitFor(t, "server-side unregister", 2*time.Second, func() bool { return len(ctrl.Apps()) == 0 })
	proxy.setPaused(false)

	waitFor(t, "handshake replay", 5*time.Second, func() bool {
		return c.Stats().Replays >= 1
	})
	waitFor(t, "re-registration", 2*time.Second, func() bool { return len(ctrl.Apps()) == 1 })
	// The replayed registration got a fresh instance and restored config.
	if got := c.Instance(); got == 0 {
		t.Fatal("no instance after replay")
	}
	if v, ok := c.Value("where"); !ok || v.Str != "QS" {
		t.Fatalf("where = %+v, %v after replay", v, ok)
	}
	if err := c.End(); err != nil {
		t.Fatalf("End after replay: %v", err)
	}
}

func TestReconnectGivesUpAfterMaxAttempts(t *testing.T) {
	srv, _ := startRealServer(t, server.Config{})
	proxy := newFlakyProxy(t, srv.Addr())
	c, err := DialWith(proxy.Addr(), DialConfig{
		Reconnect:   true,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
		MaxAttempts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Startup("DBclient", true); err != nil {
		t.Fatal(err)
	}
	// Take the proxy down for good: every redial is refused or severed.
	proxy.close()
	waitFor(t, "give-up", 5*time.Second, func() bool {
		_, _, err := c.Status()
		return err == ErrClosed
	})
}

func TestDialWithoutReconnectDiesOnDrop(t *testing.T) {
	// Zero-config Dial keeps the seed semantics: a broken connection
	// closes the client instead of resurrecting it.
	srv, _ := startRealServer(t, server.Config{})
	proxy := newFlakyProxy(t, srv.Addr())
	c, err := Dial(proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Startup("DBclient", false); err != nil {
		t.Fatal(err)
	}
	proxy.sever()
	waitFor(t, "client close", 2*time.Second, func() bool {
		_, _, err := c.Status()
		return err == ErrClosed
	})
	if st := c.Stats(); st.Reconnects != 0 {
		t.Fatalf("unconfigured client reconnected: %+v", st)
	}
}
