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
// A background reader applies pushed variable updates (the paper's I/O
// event handler); the application polls Harmony variables at natural phase
// boundaries and adapts.
//
// With DialConfig.Reconnect set, the client survives connection loss: it
// redials with jittered exponential backoff, first trying to resume its
// server-side session by resume token (keeping its instance ids without
// re-running bundle setup), and falling back to a full replay of the
// startup/bundle_setup handshake when the server's lease grace window has
// lapsed. Variable declarations are not replayed: the server keeps nothing
// for add_variable, and the client holds the defaults itself.
//
// Dial accepts a comma-separated list of controller addresses for
// replicated deployments. The client rotates through them on reconnect, and
// when a follower rejects a mutation with a not_leader redirect the client
// transparently re-dials the advertised leader and reissues the request —
// applications never see the failover.
package hclient

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
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

// errRedirected marks a connection break forced to chase a leader redirect.
var errRedirected = errors.New("hclient: redirected to leader")

// maxRedirects bounds leader-chasing per call so a leaderless cluster (or a
// stale redirect loop) fails instead of spinning.
const maxRedirects = 4

// DialConfig tunes connection establishment and resilience. The zero value
// reproduces the historical behavior: 10 s dial timeout, 10 s write
// deadline, no heartbeats, no reconnection.
type DialConfig struct {
	// Timeout bounds each dial attempt; default 10 s.
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
	// MaxAttempts bounds dial attempts per outage before the client gives
	// up and reports ErrClosed; default 10, negative means unlimited.
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
	// Reconnects counts successfully re-established connections.
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

	mu         sync.Mutex
	netConn    net.Conn
	writer     *protocol.Writer
	connGen    uint64
	vars       map[string]protocol.VarValue
	declared   map[string]*Variable
	instance   int
	registered bool
	closed     bool
	generation uint64
	genCh      chan struct{}
	nextSeq    uint64
	replies    map[uint64]chan *protocol.Message
	readErr    error

	// Session replay state.
	appID         string
	useInterrupts bool
	started       bool
	rslText       string
	resumeToken   string

	// Reconnection state: while reconnecting, calls park on waitCh.
	reconnecting bool
	waitCh       chan struct{}
	stats        Stats
	// addrIdx is the index of the address currently (or last) in use;
	// leaderHint, when set, is dialed next regardless of rotation (a
	// follower's not_leader redirect named it).
	addrIdx    int
	leaderHint string
	// redirecting marks a connection deliberately broken to chase a
	// not_leader redirect, so connBroken reconnects even for a client that
	// never completed startup.
	redirecting bool

	stop chan struct{}
	wg   sync.WaitGroup
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
	var (
		nc  net.Conn
		idx int
		err error
	)
	for i, a := range addrs {
		nc, err = net.DialTimeout("tcp", a, cfg.Timeout)
		if err == nil {
			idx = i
			break
		}
	}
	if nc == nil {
		return nil, fmt.Errorf("hclient: dial %s: %w", addr, err)
	}
	c := &Client{
		addrs:    addrs,
		addrIdx:  idx,
		cfg:      cfg,
		netConn:  nc,
		writer:   protocol.NewWriter(nc),
		connGen:  1,
		vars:     make(map[string]protocol.VarValue),
		declared: make(map[string]*Variable),
		genCh:    make(chan struct{}),
		replies:  make(map[uint64]chan *protocol.Message),
		stop:     make(chan struct{}),
	}
	c.wg.Add(1)
	go c.readLoop(protocol.NewReader(nc), 1)
	if cfg.HeartbeatInterval > 0 {
		c.wg.Add(1)
		go c.heartbeatLoop()
	}
	return c, nil
}

// readLoop dispatches replies to waiting requests and applies pushed
// updates; it is the paper's "I/O event handler function ... called when
// the Harmony process sends variable updates". One loop runs per
// connection generation; a stale loop exits without touching shared state.
func (c *Client) readLoop(r *protocol.Reader, gen uint64) {
	defer c.wg.Done()
	for {
		msg, err := r.Read()
		if err != nil {
			c.connBroken(gen, err)
			return
		}
		if msg.Type == protocol.TypeUpdate {
			c.applyUpdate(msg)
			continue
		}
		c.mu.Lock()
		if gen == c.connGen {
			if ch, ok := c.replies[msg.Seq]; ok {
				delete(c.replies, msg.Seq)
				ch <- msg
			}
		}
		c.mu.Unlock()
	}
}

// connBroken reacts to a dead connection: every in-flight call fails, and
// the client either shuts down (no Reconnect, explicit Close, or never
// started) or kicks off the reconnect loop.
func (c *Client) connBroken(gen uint64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.connGen || c.reconnecting {
		return // a newer connection exists or recovery is underway
	}
	for _, ch := range c.replies {
		close(ch)
	}
	c.replies = make(map[uint64]chan *protocol.Message)
	if c.readErr == nil {
		c.readErr = err
	}
	// A never-started client normally dies with its connection (nothing to
	// restore) — unless a leader redirect broke it on purpose, in which
	// case the reconnect installs a fresh connection to the leader and the
	// original call is reissued there.
	if c.closed || !c.cfg.Reconnect || (!c.started && !c.redirecting) {
		c.closed = true
		if c.genCh != nil {
			close(c.genCh)
			c.genCh = nil
		}
		return
	}
	c.reconnecting = true
	c.waitCh = make(chan struct{})
	c.wg.Add(1)
	go c.reconnectLoop()
}

// reconnectLoop redials with jittered exponential backoff until the session
// is restored, Close is called, or the attempt budget runs out.
func (c *Client) reconnectLoop() {
	defer c.wg.Done()
	backoff := c.cfg.BackoffBase
	for attempt := 1; ; attempt++ {
		if c.isClosed() {
			return // Close already released the waiters
		}
		nc, err := c.dialOnce()
		if err == nil {
			err = c.restoreSession(nc)
			if err == nil {
				return
			}
			_ = nc.Close()
			if errors.Is(err, ErrClosed) {
				return
			}
		}
		if c.cfg.MaxAttempts > 0 && attempt >= c.cfg.MaxAttempts {
			c.giveUp(fmt.Errorf("hclient: reconnect gave up after %d attempts: %w", attempt, err))
			return
		}
		// Full jitter on [backoff/2, backoff]: enough spread that a herd of
		// clients dropped by one server restart does not redial in phase.
		d := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		backoff *= 2
		if backoff > c.cfg.BackoffMax {
			backoff = c.cfg.BackoffMax
		}
		select {
		case <-c.stop:
			c.giveUp(ErrClosed)
			return
		case <-time.After(d):
		}
	}
}

// nextAddr picks the next address to dial: a pending leader redirect wins,
// otherwise the candidate list is rotated so an unreachable member does not
// pin the client forever.
func (c *Client) nextAddr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if hint := c.leaderHint; hint != "" {
		c.leaderHint = ""
		// Re-anchor the rotation when the hint is a known member, so the
		// next plain reconnect starts from the leader's successor.
		for i, a := range c.addrs {
			if a == hint {
				c.addrIdx = i
			}
		}
		return hint
	}
	c.addrIdx = (c.addrIdx + 1) % len(c.addrs)
	return c.addrs[c.addrIdx]
}

// dialOnce makes one cancellable dial attempt.
func (c *Client) dialOnce() (net.Conn, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.Timeout)
	defer cancel()
	go func() {
		select {
		case <-c.stop:
			cancel()
		case <-ctx.Done():
		}
	}()
	var d net.Dialer
	return d.DialContext(ctx, "tcp", c.nextAddr())
}

// handshakeTimeout bounds each restore round trip.
const handshakeTimeout = 10 * time.Second

// restoreSession rebuilds the session on a fresh connection: resume by
// token when the server still holds the session, full handshake replay
// otherwise. On success the connection is installed and waiters released.
func (c *Client) restoreSession(nc net.Conn) error {
	w := protocol.NewWriter(nc)
	r := protocol.NewReader(nc)
	var seq uint64
	restored := make(map[string]protocol.VarValue)
	roundTrip := func(msg *protocol.Message) (*protocol.Message, error) {
		seq++
		msg.Seq = seq
		_ = nc.SetDeadline(time.Now().Add(handshakeTimeout))
		if err := w.Write(msg); err != nil {
			return nil, err
		}
		for {
			reply, err := r.Read()
			if err != nil {
				return nil, err
			}
			if reply.Type == protocol.TypeUpdate {
				// An update racing the handshake (e.g. the resume flush):
				// fold it into the restored state.
				for k, v := range reply.Vars {
					restored[k] = v
				}
				continue
			}
			if reply.Seq != msg.Seq {
				continue
			}
			return reply, nil
		}
	}

	c.mu.Lock()
	token := c.resumeToken
	appID, useInterrupts := c.appID, c.useInterrupts
	rslText, registered := c.rslText, c.registered
	started := c.started
	c.mu.Unlock()

	// rejected classifies a non-ack reply: a follower's not_leader redirect
	// records the advertised leader and fails this attempt so the reconnect
	// loop re-dials against the hint.
	rejected := func(reply *protocol.Message) error {
		if reply.Type == protocol.TypeAck {
			return nil
		}
		if strings.HasPrefix(reply.Error, protocol.ErrNotLeader) {
			c.mu.Lock()
			c.leaderHint = reply.Leader
			c.mu.Unlock()
			return errRedirected
		}
		return &ServerError{Reason: reply.Error, Leader: reply.Leader}
	}

	resumed := false
	if token != "" {
		reply, err := roundTrip(&protocol.Message{Type: protocol.TypeResume, ResumeToken: token})
		if err != nil {
			return err
		}
		if err := rejected(reply); errors.Is(err, errRedirected) {
			return err
		}
		resumed = reply.Type == protocol.TypeAck
		// Any other TypeError means the grace window lapsed: fall through to
		// a full replay on this same connection.
	}
	newInstance := 0
	if !resumed && started {
		ack, err := roundTrip(&protocol.Message{Type: protocol.TypeStartup, AppID: appID, UseInterrupts: useInterrupts})
		if err != nil {
			return err
		}
		if err := rejected(ack); err != nil {
			return err
		}
		token = ack.ResumeToken
		if registered {
			setup, err := roundTrip(&protocol.Message{Type: protocol.TypeBundleSetup, RSL: rslText})
			if err != nil {
				return err
			}
			if err := rejected(setup); err != nil {
				return err
			}
			newInstance = setup.Instance
			for k, v := range setup.Vars {
				restored[k] = v
			}
		}
	}
	_ = nc.SetDeadline(time.Time{})

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.netConn = nc
	c.writer = w
	c.connGen++
	gen := c.connGen
	c.resumeToken = token
	if newInstance != 0 {
		c.instance = newInstance
	}
	for k, v := range restored {
		c.vars[k] = v
	}
	c.generation++
	if c.genCh != nil {
		close(c.genCh)
		c.genCh = make(chan struct{})
	}
	c.stats.Reconnects++
	if resumed {
		c.stats.Resumes++
	} else {
		c.stats.Replays++
	}
	c.reconnecting = false
	c.redirecting = false
	if c.waitCh != nil {
		close(c.waitCh)
		c.waitCh = nil
	}
	c.wg.Add(1)
	c.mu.Unlock()
	go c.readLoop(r, gen)
	return nil
}

// giveUp ends the client after reconnection failed for good.
func (c *Client) giveUp(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr == nil || errors.Is(c.readErr, ErrClosed) {
		c.readErr = err
	}
	c.closed = true
	c.reconnecting = false
	for _, ch := range c.replies {
		close(ch)
	}
	c.replies = make(map[uint64]chan *protocol.Message)
	if c.genCh != nil {
		close(c.genCh)
		c.genCh = nil
	}
	if c.waitCh != nil {
		close(c.waitCh)
		c.waitCh = nil
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
		case <-c.stop:
			return
		case <-t.C:
			c.mu.Lock()
			closed, reconnecting := c.closed, c.reconnecting
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

func (c *Client) applyUpdate(msg *protocol.Message) {
	c.mu.Lock()
	for k, v := range msg.Vars {
		c.vars[k] = v
	}
	c.generation++
	if c.genCh != nil {
		close(c.genCh)
		c.genCh = make(chan struct{})
	}
	c.mu.Unlock()
}

// call performs one request/reply round trip. While a reconnect is in
// progress new calls wait for it; a call whose connection dies mid-flight
// fails with ErrReconnecting rather than being silently retried.
func (c *Client) call(msg *protocol.Message) (*protocol.Message, error) {
	redirects := 0
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		if c.reconnecting {
			ch := c.waitCh
			c.mu.Unlock()
			<-ch
			continue
		}
		gen := c.connGen
		nc, w := c.netConn, c.writer
		c.nextSeq++
		msg.Seq = c.nextSeq
		ch := make(chan *protocol.Message, 1)
		c.replies[msg.Seq] = ch
		c.mu.Unlock()

		err := c.write(nc, w, msg)
		if err != nil {
			c.mu.Lock()
			delete(c.replies, msg.Seq)
			reconnect := c.cfg.Reconnect && c.started && !c.closed
			c.mu.Unlock()
			if !reconnect {
				return nil, err
			}
			// The write never completed a frame, so reissuing is safe once a
			// fresh connection exists. Force the break so the read loop
			// notices immediately instead of waiting for a timeout.
			_ = nc.Close()
			c.connBroken(gen, err)
			continue
		}
		reply, ok := <-ch
		if !ok {
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed {
				return nil, ErrClosed
			}
			return nil, ErrReconnecting
		}
		if reply.Type == protocol.TypeError {
			if c.cfg.Reconnect && strings.HasPrefix(reply.Error, protocol.ErrNotLeader) && redirects < maxRedirects {
				// A follower answered: chase the advertised leader. The
				// rejected request changed nothing server-side, so reissuing
				// it on the new connection is safe.
				redirects++
				c.mu.Lock()
				c.leaderHint = reply.Leader
				c.redirecting = true
				c.mu.Unlock()
				_ = nc.Close()
				c.connBroken(gen, errRedirected)
				continue
			}
			return nil, &ServerError{Reason: reply.Error, Leader: reply.Leader}
		}
		return reply, nil
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
	for k, v := range reply.Vars {
		c.vars[k] = v
	}
	c.generation++
	if c.genCh != nil {
		close(c.genCh)
		c.genCh = make(chan struct{})
	}
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

// Close tears down the connection and waits for all client goroutines
// (reader, heartbeats, any reconnect attempt) to exit.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wg.Wait()
		return nil
	}
	c.closed = true
	nc := c.netConn
	if c.waitCh != nil {
		close(c.waitCh)
		c.waitCh = nil
	}
	c.mu.Unlock()
	close(c.stop)
	var err error
	if nc != nil {
		err = nc.Close()
	}
	c.wg.Wait()
	return err
}
