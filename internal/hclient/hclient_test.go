package hclient

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"harmony/internal/protocol"
)

// fakeServer implements just enough of the wire protocol to exercise the
// client library in isolation (the full stack is covered in internal/server
// tests).
type fakeServer struct {
	ln    net.Listener
	conns chan net.Conn
}

func newFakeServer(t *testing.T) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{ln: ln, conns: make(chan net.Conn, 1)}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			fs.conns <- c
		}
	}()
	t.Cleanup(func() { _ = ln.Close() })
	return fs
}

// echoAck answers every request with an ack carrying the same seq.
func (fs *fakeServer) echoAck(t *testing.T) net.Conn {
	t.Helper()
	conn := <-fs.conns
	go func() {
		r := protocol.NewReader(conn)
		w := protocol.NewWriter(conn)
		for {
			msg, err := r.Read()
			if err != nil {
				return
			}
			reply := &protocol.Message{Type: protocol.TypeAck, Seq: msg.Seq, Instance: 42}
			if msg.Type == protocol.TypeBundleSetup {
				reply.Vars = map[string]protocol.VarValue{"where": protocol.StrVar("QS")}
			}
			if err := w.Write(reply); err != nil {
				return
			}
		}
	}()
	return conn
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestStartupBundleAndVariables(t *testing.T) {
	fs := newFakeServer(t)
	c, err := Dial(fs.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs.echoAck(t)

	if err := c.Startup("app", false); err != nil {
		t.Fatalf("Startup: %v", err)
	}
	inst, err := c.BundleSetup("harmonyBundle app:1 b {{O {node n *}}}")
	if err != nil {
		t.Fatalf("BundleSetup: %v", err)
	}
	if inst != 42 || c.Instance() != 42 {
		t.Fatalf("instance = %d", inst)
	}
	if v, ok := c.Value("where"); !ok || v.Str != "QS" {
		t.Fatalf("initial var = %+v, %v", v, ok)
	}
	// Declaring a variable with a default does not clobber a received value.
	wv, err := c.AddVariable("where", protocol.StrVar("default"))
	if err != nil {
		t.Fatalf("AddVariable: %v", err)
	}
	if wv.Str() != "QS" {
		t.Fatalf("declared var = %q, want QS", wv.Str())
	}
	// A fresh variable takes its default.
	bv, err := c.AddVariable("bufferSize", protocol.NumVar(16))
	if err != nil {
		t.Fatal(err)
	}
	if bv.Num() != 16 {
		t.Fatalf("default = %g", bv.Num())
	}
	if c.Var("bufferSize") != bv {
		t.Fatal("Var lookup mismatch")
	}
	if c.Var("missing") != nil {
		t.Fatal("missing Var should be nil")
	}
	if _, err := c.AddVariable("", protocol.NumVar(0)); err == nil {
		t.Fatal("empty variable name accepted")
	}
	// Re-declaring returns the same handle.
	bv2, err := c.AddVariable("bufferSize", protocol.NumVar(99))
	if err != nil || bv2 != bv {
		t.Fatalf("re-declare = %v, %v", bv2, err)
	}
}

func TestUpdatePushAndWait(t *testing.T) {
	fs := newFakeServer(t)
	c, err := Dial(fs.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := fs.echoAck(t)

	gen := c.Generation()
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- c.WaitForUpdate(ctx)
	}()
	time.Sleep(20 * time.Millisecond)
	// Push an unsolicited update from the "server" side.
	w := protocol.NewWriter(conn)
	if err := w.Write(&protocol.Message{
		Type: protocol.TypeUpdate,
		Vars: map[string]protocol.VarValue{"bufferSize": protocol.NumVar(24)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("WaitForUpdate: %v", err)
	}
	if c.Generation() != gen+1 {
		t.Fatalf("generation = %d, want %d", c.Generation(), gen+1)
	}
	if v, _ := c.Value("bufferSize"); v.Num != 24 {
		t.Fatalf("bufferSize = %+v", v)
	}
}

func TestWaitForUpdateContextCancel(t *testing.T) {
	fs := newFakeServer(t)
	c, err := Dial(fs.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs.echoAck(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := c.WaitForUpdate(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestEndBeforeBundle(t *testing.T) {
	fs := newFakeServer(t)
	c, err := Dial(fs.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs.echoAck(t)
	if err := c.End(); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("End err = %v", err)
	}
}

func TestServerErrorSurfaces(t *testing.T) {
	fs := newFakeServer(t)
	c, err := Dial(fs.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := <-fs.conns
	go func() {
		r := protocol.NewReader(conn)
		w := protocol.NewWriter(conn)
		msg, err := r.Read()
		if err != nil {
			return
		}
		_ = w.Write(&protocol.Message{Type: protocol.TypeError, Seq: msg.Seq, Error: "boom"})
	}()
	err = c.Startup("app", false)
	var se *ServerError
	if !errors.As(err, &se) || se.Reason != "boom" {
		t.Fatalf("err = %v, want ServerError(boom)", err)
	}
}

func TestCloseUnblocksCalls(t *testing.T) {
	fs := newFakeServer(t)
	c, err := Dial(fs.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Server accepts but never replies.
	<-fs.conns
	done := make(chan error, 1)
	go func() { done <- c.Startup("app", false) }()
	time.Sleep(20 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("call succeeded after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("call did not unblock after Close")
	}
	// Further calls fail fast; double Close is fine.
	if err := c.Startup("x", false); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close call err = %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	// WaitForUpdate after close fails.
	if err := c.WaitForUpdate(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("WaitForUpdate after close err = %v", err)
	}
}

// TestCloseEndsStuckReconnectHandshake drops a started client's connection;
// the server accepts the redial and never answers the handshake. Close must
// end that handshake at once, not wait out its timeout.
func TestCloseEndsStuckReconnectHandshake(t *testing.T) {
	fs := newFakeServer(t)
	c, err := DialWith(fs.ln.Addr().String(), DialConfig{Reconnect: true, BackoffBase: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	conn := fs.echoAck(t)
	if err := c.Startup("app", false); err != nil {
		t.Fatalf("Startup: %v", err)
	}
	_ = conn.Close()
	var stuck net.Conn
	select {
	case stuck = <-fs.conns:
	case <-time.After(5 * time.Second):
		t.Fatal("the client never redialed")
	}
	defer stuck.Close()
	// The replayed startup arrives, and the client waits for its answer.
	if msg, err := protocol.NewReader(stuck).Read(); err != nil || msg.Type != protocol.TypeStartup {
		t.Fatalf("handshake read = %+v, %v; want the replayed startup", msg, err)
	}
	start := time.Now()
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close took %v during a stuck handshake, want under 1s", took)
	}
}
