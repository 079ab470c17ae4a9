// Package hclient is the Harmony client runtime library linked into
// applications (Section 5, Figure 5 of the paper). It provides the paper's
// API surface in Go form:
//
//	harmony_startup(id, useInterrupts)  -> Client.Startup
//	harmony_bundle_setup("<bundle>")    -> Client.BundleSetup
//	harmony_add_variable(name, default) -> Client.AddVariable
//	harmony_wait_for_update()           -> Client.WaitForUpdate
//	harmony_end()                       -> Client.End
//
// One background reader applies pushed variable updates (the paper's I/O
// event handler); the application polls Harmony variables at natural phase
// boundaries and adapts.
//
// Dial accepts a comma-separated list of controller addresses for
// replicated deployments. A connection comes up one way, whatever the
// reason — the first dial, a broken connection, or a follower's not_leader
// redirect: one pass over the members, a leader a follower named first and
// then the others in rotation, each new connection restoring the session
// before it is used. A follower that answers with not_leader sends the
// client to the leader it names at once, and the request is reissued there:
// applications never see the failover.
//
// With DialConfig.Reconnect set, the client survives connection loss: the
// reader brings up the next connection itself, with jittered exponential
// backoff between passes, first trying to resume its server-side session by
// resume token (keeping its instance ids without re-running bundle setup),
// and falling back to a full replay of the startup/bundle_setup handshake
// when the server's lease grace window has lapsed. Variable declarations are
// not replayed: the server keeps nothing for add_variable, and the client
// holds the defaults itself. Without Reconnect, the client ends with its
// connection.
package hclient

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"time"

	"harmony/internal/protocol"
)

// Errors reported by the client.
var (
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("hclient: connection closed")
	// ErrNotRegistered is returned by End before BundleSetup.
	ErrNotRegistered = errors.New("hclient: no registered bundle")
	// ErrReconnecting is returned for a call whose connection broke
	// mid-flight: the request may or may not have reached the server, so
	// the client will not blindly retry it. Callers decide whether the
	// operation is safe to reissue once the connection is back.
	ErrReconnecting = errors.New("hclient: connection lost mid-call, reconnecting")
)

// ServerError carries a server-side rejection.
type ServerError struct {
	Reason string
	// Leader is the leader's advertised address on a not_leader rejection
	// from a replica follower ("" otherwise).
	Leader string
}

func (e *ServerError) Error() string { return "hclient: server: " + e.Reason }

// IsNotLeader reports whether the rejection is a replica follower's
// redirect.
func (e *ServerError) IsNotLeader() bool {
	return strings.HasPrefix(e.Reason, protocol.ErrNotLeader)
}

// maxRedirects bounds the leaders one call, or one pass over the members,
// chases, so a leaderless cluster (or a stale redirect loop) fails instead
// of spinning.
const maxRedirects = 4

// DialConfig tunes connection establishment and resilience. The zero value
// reproduces the historical behavior: 10 s dial timeout, 10 s write
// deadline, no heartbeats, no reconnection.
type DialConfig struct {
	// Timeout bounds each dial attempt, its handshake included: a member
	// that accepts and never answers holds a reconnect pass no longer than
	// this. Default 10 s.
	Timeout time.Duration
	// WriteDeadline bounds each message write so a wedged peer cannot
	// block the application forever; default 10 s, negative disables.
	WriteDeadline time.Duration
	// HeartbeatInterval, when positive, sends periodic heartbeats to renew
	// the server-side lease even when the application is quiet.
	HeartbeatInterval time.Duration
	// Reconnect enables automatic redial with backoff and session resume
	// after the connection breaks.
	Reconnect bool
	// BackoffBase is the first reconnect delay; default 50 ms.
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff; default 5 s.
	BackoffMax time.Duration
	// MaxAttempts bounds the passes over the members per outage before the
	// client gives up and reports ErrClosed. A pass dials a leader a
	// follower named first, then each address once; the backoff runs
	// between passes. Default 10, negative means unlimited.
	MaxAttempts int
}

func (cfg DialConfig) withDefaults() DialConfig {
	if cfg.Timeout == 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.WriteDeadline == 0 {
		cfg.WriteDeadline = 10 * time.Second
	}
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffMax == 0 {
		cfg.BackoffMax = 5 * time.Second
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 10
	}
	return cfg
}

// Stats counts resilience events since Dial.
type Stats struct {
	// Reconnects counts connections brought up after the first, for a
	// broken connection and a leader redirect alike.
	Reconnects uint64
	// Resumes counts reconnects that kept the session by resume token.
	Resumes uint64
	// Replays counts reconnects that re-ran the registration handshake.
	Replays uint64
}

// Variable is a Harmony variable: the application reads it periodically and
// adapts when Harmony changes it (Section 5). Reads are safe from any
// goroutine.
type Variable struct {
	name string
	c    *Client
}

// Name returns the variable name.
func (v *Variable) Name() string { return v.name }

// Value returns the current value.
func (v *Variable) Value() protocol.VarValue {
	v.c.mu.Lock()
	defer v.c.mu.Unlock()
	return v.c.vars[v.name]
}

// Num returns the numeric value (0 for string-valued variables).
func (v *Variable) Num() float64 { return v.Value().Num }

// Str returns the string value ("" for numeric variables).
func (v *Variable) Str() string { return v.Value().Str }

// Client is one application's connection to the Harmony server.
type Client struct {
	addrs   []string // candidate controller addresses, in dial order
	cfg     DialConfig
	writeMu sync.Mutex
	// addrIdx indexes the address last connected to. Only connect touches
	// it, on the reader (or in DialWith, before the reader starts).
	addrIdx int

	mu sync.Mutex
	// netConn and writer are the connection last brought up (nil before
	// the first). While waitCh is set that connection is dead, the reader
	// is bringing up the next one, and calls park on waitCh.
	netConn net.Conn
	writer  *protocol.Writer
	waitCh  chan struct{}
	// leaderHint, when set, is dialed first by the next connect: a
	// follower's not_leader named it.
	leaderHint string
	vars       map[string]protocol.VarValue
	declared   map[string]*Variable
	instance   int
	registered bool
	closed     bool
	generation uint64
	genCh      chan struct{}
	nextSeq    uint64
	replies    map[uint64]chan *protocol.Message
	stats      Stats

	// Session replay state.
	appID         string
	useInterrupts bool
	started       bool
	rslText       string
	resumeToken   string

	// ctx ends with Close, cancelling a dial, handshake or backoff under
	// way.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// splitAddrs parses a comma-separated controller address list.
func splitAddrs(addr string) []string {
	var out []string
	for _, a := range strings.Split(addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// Dial connects to a Harmony server with default configuration. addr may be
// a comma-separated list of controller addresses (a replicated deployment);
// the first reachable one is used and the rest are rotation candidates for
// reconnects and leader redirects.
func Dial(addr string) (*Client, error) {
	return DialWith(addr, DialConfig{})
}

// DialWith connects to a Harmony server with explicit configuration. See
// Dial for multi-address semantics.
func DialWith(addr string, cfg DialConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	addrs := splitAddrs(addr)
	if len(addrs) == 0 {
		return nil, errors.New("hclient: no controller address")
	}
	c := &Client{
		addrs:    addrs,
		addrIdx:  len(addrs) - 1, // the first pass starts at addrs[0]
		cfg:      cfg,
		vars:     make(map[string]protocol.VarValue),
		declared: make(map[string]*Variable),
		genCh:    make(chan struct{}),
		replies:  make(map[uint64]chan *protocol.Message),
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	r, err := c.connect()
	if err != nil {
		c.cancel()
		return nil, fmt.Errorf("hclient: dial %s: %w", addr, err)
	}
	c.wg.Add(1)
	go c.readLoop(r)
	if cfg.HeartbeatInterval > 0 {
		c.wg.Add(1)
		go c.heartbeatLoop()
	}
	return c, nil
}

// readLoop is the client's one reader, for its whole life. It dispatches
// replies to waiting requests and applies pushed updates — the paper's "I/O
// event handler function ... called when the Harmony process sends variable
// updates". When its connection dies it brings up the next one and reads
// on; it returns once the client has ended.
func (c *Client) readLoop(r *protocol.Reader) {
	defer c.wg.Done()
	for r != nil {
		msg, err := r.Read()
		switch {
		case err != nil:
			r = c.reconnect()
		case msg.Type == protocol.TypeUpdate:
			c.mu.Lock()
			c.applyVars(msg.Vars)
			c.mu.Unlock()
		default:
			c.mu.Lock()
			if ch, ok := c.replies[msg.Seq]; ok {
				delete(c.replies, msg.Seq)
				ch <- msg
			}
			c.mu.Unlock()
		}
	}
}

// reconnect retires the reader's dead connection and brings up the next:
// passes over the members (connect) with jittered exponential backoff
// between them, until one connects, Close is called, or MaxAttempts passes
// have failed. It returns the new connection's reader, or nil once the
// client has ended — at once without DialConfig.Reconnect.
func (c *Client) reconnect() *protocol.Reader {
	c.mu.Lock()
	c.retire(c.netConn)
	if c.closed || !c.cfg.Reconnect {
		c.end()
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()
	backoff := c.cfg.BackoffBase
	for pass := 1; ; pass++ {
		if r, err := c.connect(); err == nil {
			return r
		}
		if pass == c.cfg.MaxAttempts || c.ctx.Err() != nil {
			break
		}
		// Full jitter on [backoff/2, backoff]: enough spread that a herd of
		// clients dropped by one server restart does not redial in phase.
		d := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		backoff = min(2*backoff, c.cfg.BackoffMax)
		select {
		case <-c.ctx.Done():
		case <-time.After(d):
		}
	}
	c.mu.Lock()
	c.end()
	c.mu.Unlock()
	return nil
}

// connect brings up a connection, whatever the reason: DialWith, a broken
// connection, or a follower's not_leader. It makes one pass over the
// members — the leader a follower named first, then the addresses in
// rotation from the one after the last connected — and installs the first
// connection whose handshake succeeds. A not_leader answer to the handshake
// sends the pass to the leader it names at once, at most maxRedirects times,
// even when the member that answered was the pass's last.
func (c *Client) connect() (*protocol.Reader, error) {
	c.mu.Lock()
	next := c.leaderHint
	c.leaderHint = ""
	c.mu.Unlock()
	var err error
	for tried, redirects := 0, 0; tried < len(c.addrs) || next != ""; {
		if c.ctx.Err() != nil {
			return nil, ErrClosed
		}
		addr := next
		if addr == "" {
			c.addrIdx = (c.addrIdx + 1) % len(c.addrs)
			addr = c.addrs[c.addrIdx]
			tried++
		}
		next = ""
		var r *protocol.Reader
		if r, err = c.dial(addr); err == nil {
			// A later pass starts from the successor of the member that
			// answered, a leader a follower named included.
			if i := slices.Index(c.addrs, addr); i >= 0 {
				c.addrIdx = i
			}
			return r, nil
		}
		var se *ServerError
		if errors.As(err, &se) && se.IsNotLeader() && redirects < maxRedirects {
			redirects++
			next = se.Leader
		}
	}
	return nil, err
}

// dial is the client's one dial site: it connects to addr, restores the
// session on the connection and installs it (handshake), all within one
// DialConfig.Timeout. Close cancels it at any point, a handshake the server
// never answers included.
func (c *Client) dial(addr string) (*protocol.Reader, error) {
	ctx, cancel := context.WithTimeout(c.ctx, c.cfg.Timeout)
	defer cancel()
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	defer context.AfterFunc(c.ctx, func() { _ = nc.Close() })()
	deadline, _ := ctx.Deadline()
	_ = nc.SetDeadline(deadline)
	r, err := c.handshake(nc)
	if err != nil {
		_ = nc.Close()
	}
	return r, err
}

// handshake restores the session on a fresh connection, then installs it:
// resume by token when the server still holds the session, a replay of
// startup and bundle_setup otherwise; a client that never started has
// nothing to restore. A not_leader answer fails it with that ServerError,
// which names the leader to dial.
func (c *Client) handshake(nc net.Conn) (*protocol.Reader, error) {
	w, r := protocol.NewWriter(nc), protocol.NewReader(nc)
	restored := make(map[string]protocol.VarValue)
	var seq uint64
	roundTrip := func(msg *protocol.Message) (*protocol.Message, error) {
		seq++
		msg.Seq = seq
		if err := w.Write(msg); err != nil {
			return nil, err
		}
		for {
			reply, err := r.Read()
			switch {
			case err != nil:
				return nil, err
			case reply.Type == protocol.TypeUpdate:
				// An update racing the handshake (e.g. the resume flush):
				// fold it into the restored state.
				maps.Copy(restored, reply.Vars)
			case reply.Seq != msg.Seq:
			case reply.Type == protocol.TypeError:
				return nil, &ServerError{Reason: reply.Error, Leader: reply.Leader}
			default:
				return reply, nil
			}
		}
	}

	c.mu.Lock()
	token, started, registered := c.resumeToken, c.started, c.registered
	startup := &protocol.Message{Type: protocol.TypeStartup, AppID: c.appID, UseInterrupts: c.useInterrupts}
	setup := &protocol.Message{Type: protocol.TypeBundleSetup, RSL: c.rslText}
	c.mu.Unlock()

	resumed := false
	if token != "" {
		_, err := roundTrip(&protocol.Message{Type: protocol.TypeResume, ResumeToken: token})
		// Any other rejection means the grace window lapsed: replay on this
		// same connection.
		var se *ServerError
		if err != nil && (!errors.As(err, &se) || se.IsNotLeader()) {
			return nil, err
		}
		resumed = err == nil
	}
	replayed := started && !resumed
	instance := 0
	if replayed {
		ack, err := roundTrip(startup)
		if err != nil {
			return nil, err
		}
		token = ack.ResumeToken
		if registered {
			if ack, err = roundTrip(setup); err != nil {
				return nil, err
			}
			instance = ack.Instance
			maps.Copy(restored, ack.Vars)
		}
	}
	_ = nc.SetDeadline(time.Time{})

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if c.netConn != nil {
		c.stats.Reconnects++
	}
	c.netConn, c.writer = nc, w
	c.resumeToken = token
	if instance != 0 {
		c.instance = instance
	}
	if resumed || replayed {
		c.applyVars(restored)
	}
	if resumed {
		c.stats.Resumes++
	} else if replayed {
		c.stats.Replays++
	}
	if c.waitCh != nil {
		close(c.waitCh)
		c.waitCh = nil
	}
	return r, nil
}

// retire marks nc dead if it is still the live connection: it is closed,
// the calls in flight on it fail, and new calls wait for the reader to bring
// up the next one. It reports whether nc was live. c.mu must be held.
func (c *Client) retire(nc net.Conn) bool {
	if c.closed || c.waitCh != nil || nc != c.netConn {
		return false
	}
	_ = nc.Close()
	c.waitCh = make(chan struct{})
	c.failCalls()
	return true
}

// failCalls fails every call in flight: its reply channel closes. c.mu must
// be held.
func (c *Client) failCalls() {
	for seq, ch := range c.replies {
		close(ch)
		delete(c.replies, seq)
	}
}

// end ends the client for good: calls in flight fail, and every waiter — on
// a reconnect or in WaitForUpdate — is released to find it closed. c.mu must
// be held.
func (c *Client) end() {
	c.closed = true
	c.failCalls()
	if c.genCh != nil {
		close(c.genCh)
		c.genCh = nil
	}
	if c.waitCh != nil {
		close(c.waitCh)
		c.waitCh = nil
	}
}

// applyVars applies new variable values as one generation and wakes
// WaitForUpdate. c.mu must be held.
func (c *Client) applyVars(vars map[string]protocol.VarValue) {
	maps.Copy(c.vars, vars)
	c.generation++
	if c.genCh != nil {
		close(c.genCh)
		c.genCh = make(chan struct{})
	}
}

func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// heartbeatLoop renews the server-side lease during quiet periods.
func (c *Client) heartbeatLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
			c.mu.Lock()
			closed, reconnecting := c.closed, c.waitCh != nil
			c.mu.Unlock()
			if closed {
				return
			}
			if reconnecting {
				continue // the resume itself renews the lease
			}
			_, _ = c.call(&protocol.Message{Type: protocol.TypeHeartbeat})
		}
	}
}

// call performs one request/reply round trip. While the reader brings a
// connection up, calls wait for it. A call whose connection dies mid-flight
// fails with ErrReconnecting rather than being silently retried; one that
// cannot have changed anything — its write failed, or a follower redirected
// it — is reissued on the next connection.
func (c *Client) call(msg *protocol.Message) (*protocol.Message, error) {
	for redirects := 0; ; {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		if wait := c.waitCh; wait != nil {
			c.mu.Unlock()
			<-wait
			continue
		}
		nc, w := c.netConn, c.writer
		c.nextSeq++
		msg.Seq = c.nextSeq
		ch := make(chan *protocol.Message, 1)
		c.replies[msg.Seq] = ch
		c.mu.Unlock()

		if err := c.write(nc, w, msg); err != nil {
			// The write never completed a frame: the request can be
			// reissued once the reader has the next connection up.
			c.mu.Lock()
			delete(c.replies, msg.Seq)
			c.retire(nc)
			c.mu.Unlock()
			if !c.cfg.Reconnect {
				return nil, err
			}
			continue
		}
		reply, ok := <-ch
		if !ok {
			if c.isClosed() {
				return nil, ErrClosed
			}
			return nil, ErrReconnecting
		}
		if reply.Type != protocol.TypeError {
			return reply, nil
		}
		se := &ServerError{Reason: reply.Error, Leader: reply.Leader}
		if !c.cfg.Reconnect || !se.IsNotLeader() || redirects == maxRedirects {
			return nil, se
		}
		// A follower answered and changed nothing: break the connection, so
		// that the reader dials the leader it named, and reissue there.
		redirects++
		c.mu.Lock()
		if c.retire(nc) {
			c.leaderHint = se.Leader
		}
		c.mu.Unlock()
	}
}

// write sends one framed message under the configured write deadline.
func (c *Client) write(nc net.Conn, w *protocol.Writer, msg *protocol.Message) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.cfg.WriteDeadline > 0 {
		_ = nc.SetWriteDeadline(time.Now().Add(c.cfg.WriteDeadline))
		defer func() { _ = nc.SetWriteDeadline(time.Time{}) }()
	}
	return w.Write(msg)
}

// Startup registers the program with the Harmony server
// (harmony_startup).
func (c *Client) Startup(appID string, useInterrupts bool) error {
	reply, err := c.call(&protocol.Message{
		Type:          protocol.TypeStartup,
		AppID:         appID,
		UseInterrupts: useInterrupts,
	})
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.appID = appID
	c.useInterrupts = useInterrupts
	c.started = true
	if reply.ResumeToken != "" {
		c.resumeToken = reply.ResumeToken
	}
	c.mu.Unlock()
	return nil
}

// BundleSetup sends an RSL bundle definition (harmony_bundle_setup) and
// returns the controller-assigned instance id. The initial configuration is
// applied to the client's variables before returning.
func (c *Client) BundleSetup(rslText string) (int, error) {
	reply, err := c.call(&protocol.Message{Type: protocol.TypeBundleSetup, RSL: rslText})
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.instance = reply.Instance
	c.registered = true
	c.rslText = rslText
	c.applyVars(reply.Vars)
	c.mu.Unlock()
	return reply.Instance, nil
}

// Instance reports the assigned instance id (0 before BundleSetup).
func (c *Client) Instance() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.instance
}

// Stats reports resilience counters (reconnects, resumes, replays).
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// AddVariable declares a Harmony variable with a default value
// (harmony_add_variable) and returns a handle for polling it.
func (c *Client) AddVariable(name string, def protocol.VarValue) (*Variable, error) {
	if name == "" {
		return nil, errors.New("hclient: variable needs a name")
	}
	if _, err := c.call(&protocol.Message{
		Type:  protocol.TypeAddVariable,
		Name:  name,
		Value: def,
	}); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.declared[name]; ok {
		return v, nil
	}
	if _, ok := c.vars[name]; !ok {
		c.vars[name] = def
	}
	v := &Variable{name: name, c: c}
	c.declared[name] = v
	return v, nil
}

// Var returns a previously declared variable handle, or nil.
func (c *Client) Var(name string) *Variable {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.declared[name]
}

// Value reads any received variable by name (declared or not).
func (c *Client) Value(name string) (protocol.VarValue, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.vars[name]
	return v, ok
}

// WaitForUpdate blocks until the Harmony system updates the client's
// variables (harmony_wait_for_update) or the context is cancelled.
func (c *Client) WaitForUpdate(ctx context.Context) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	ch := c.genCh
	c.mu.Unlock()
	if ch == nil {
		return ErrClosed
	}
	select {
	case <-ch:
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return ErrClosed
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Generation counts applied updates; useful for polling without blocking.
func (c *Client) Generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.generation
}

// Report sends an application metric to the server's bus.
func (c *Client) Report(name string, value float64) error {
	_, err := c.call(&protocol.Message{
		Type:  protocol.TypeReport,
		Name:  name,
		Value: protocol.NumVar(value),
	})
	return err
}

// Heartbeat sends one explicit lease renewal (usually HeartbeatInterval
// does this automatically).
func (c *Client) Heartbeat() error {
	_, err := c.call(&protocol.Message{Type: protocol.TypeHeartbeat})
	return err
}

// End announces the application is about to terminate (harmony_end):
// Harmony releases and re-evaluates its resources.
func (c *Client) End() error {
	c.mu.Lock()
	registered := c.registered
	inst := c.instance
	c.mu.Unlock()
	if !registered {
		return ErrNotRegistered
	}
	if _, err := c.call(&protocol.Message{Type: protocol.TypeEnd, Instance: inst}); err != nil {
		return err
	}
	c.mu.Lock()
	c.registered = false
	c.mu.Unlock()
	return nil
}

// Status fetches the controller snapshot (used by harmonyctl).
func (c *Client) Status() ([]protocol.AppStatus, float64, error) {
	reply, err := c.call(&protocol.Message{Type: protocol.TypeStatus})
	if err != nil {
		return nil, 0, err
	}
	return reply.Apps, reply.Objective, nil
}

// ClusterStatus fetches the replication state (role, term, commit index,
// snapshot age) of the replica this client is connected to. Any role
// answers; non-replicated servers reject the request.
func (c *Client) ClusterStatus() (*protocol.ReplicaStatus, error) {
	reply, err := c.call(&protocol.Message{Type: protocol.TypeClusterStatus})
	if err != nil {
		return nil, err
	}
	if reply.Replica == nil {
		return nil, &ServerError{Reason: "cluster_status reply carries no replica state"}
	}
	return reply.Replica, nil
}

// Reevaluate forces an optimizer pass on the server.
func (c *Client) Reevaluate() error {
	_, err := c.call(&protocol.Message{Type: protocol.TypeReevaluate})
	return err
}

// NodeState asks the server to transition a machine's lifecycle state:
// "down" evicts and re-harmonizes, "drain" stops new placements and moves
// movable apps off, "up" returns it to service (used by harmonyctl).
func (c *Client) NodeState(hostname, state string) error {
	_, err := c.call(&protocol.Message{Type: protocol.TypeNodeState, Hostname: hostname, State: state})
	return err
}

// Close tears down the connection, cancels a dial or handshake under way,
// and waits for the client's goroutines (the reader and heartbeats) to exit.
func (c *Client) Close() error {
	c.mu.Lock()
	var err error
	if !c.closed {
		if c.waitCh == nil {
			err = c.netConn.Close()
		}
		c.end()
	}
	c.mu.Unlock()
	c.cancel()
	c.wg.Wait()
	return err
}
