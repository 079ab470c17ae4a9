// Package server implements the Harmony server process (Section 5,
// Figure 6 of the paper): a daemon that listens on a well-known port,
// accepts connections from Harmony-aware applications, registers their
// option bundles with the adaptation controller, and pushes buffered
// variable updates back when the controller reconfigures them. An event's
// new values for Harmony variables are buffered and flushed once the event
// is fully built (the paper's flushPendingVars).
package server

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/core"
	"harmony/internal/metric"
	"harmony/internal/namespace"
	"harmony/internal/protocol"
	"harmony/internal/replog"
	"harmony/internal/vet"
)

// VetMode selects how the server treats static-analysis findings on
// incoming bundles (see package vet).
type VetMode int

const (
	// VetWarn, the default, logs every diagnostic but accepts the bundle.
	VetWarn VetMode = iota
	// VetOff skips analysis entirely.
	VetOff
	// VetReject logs every diagnostic and refuses bundles carrying
	// error-severity findings.
	VetReject
)

// String implements fmt.Stringer.
func (m VetMode) String() string {
	switch m {
	case VetWarn:
		return "warn"
	case VetOff:
		return "off"
	case VetReject:
		return "reject"
	}
	return fmt.Sprintf("VetMode(%d)", int(m))
}

// ParseVetMode parses a -vet flag value.
func ParseVetMode(s string) (VetMode, error) {
	switch s {
	case "warn":
		return VetWarn, nil
	case "off":
		return VetOff, nil
	case "reject":
		return VetReject, nil
	}
	return 0, fmt.Errorf("server: unknown vet mode %q (want warn, reject or off)", s)
}

// Config parameterizes the server.
type Config struct {
	// Controller is the adaptation controller to front. Required.
	Controller *core.Controller
	// Bus optionally receives application-reported metrics.
	Bus *metric.Bus
	// Vet selects how bundle_setup specs are statically analyzed: the
	// default logs findings (against the cluster's declared capacities)
	// without changing accept/reject behavior.
	Vet VetMode
	// LeaseTTL, when positive, bounds how long a connection may stay silent
	// before the server declares it dead and closes it. Any message —
	// including a bare heartbeat — renews the lease. Zero disables lease
	// enforcement (connections live until they close).
	LeaseTTL time.Duration
	// LeaseGrace, when positive, parks a dying connection's registrations
	// for this long instead of unregistering them immediately: a client
	// that reconnects and presents its resume token within the grace window
	// gets its instances back without re-running bundle setup. A session
	// holding no instance is never parked. After a leader failover the new
	// leader has no connection to judge by and gives every inherited session
	// this long, or five seconds when it is zero.
	LeaseGrace time.Duration
	// Replica is the replicated log every ledger- and session-mutating
	// request goes through: mutations are proposed, committed on a majority
	// and applied deterministically, so a follower can take over with an
	// identical ledger. Followers answer mutations with a not_leader
	// redirect. Reads (status, report, heartbeat) stay local. When nil the
	// server builds a private member of its own — no peers, no listener, no
	// store — and closes it on Close, so a standalone server takes the same
	// path as a cluster. The replica's loop is then the controller's only
	// writer: code beside the server must not call a Controller mutator
	// (ForceChoice, MarkNodeDown, ...), and goes through the server
	// (Server.ForceChoice) or the protocol (node_state) instead.
	Replica *Replica
	// Logf logs server events; nil discards.
	Logf func(format string, args ...any)
}

// Server accepts application connections and bridges them to the
// controller.
type Server struct {
	cfg      Config
	listener net.Listener
	rep      *Replica
	ownsRep  bool // rep was built by Serve, not supplied in cfg
	// admission vets bundle_setup scripts; nil when vetting is off.
	admission *vet.Admission

	mu     sync.Mutex
	conns  map[*conn]struct{}
	byInst map[int]*conn
	// dirty holds, per instance, the latest reconfiguration its application
	// has not been sent: the update is built when it is sent.
	dirty  map[int]core.Event
	closed bool

	stopSweep chan struct{}
	wg        sync.WaitGroup
}

type conn struct {
	srv     *Server
	netConn net.Conn
	writeMu sync.Mutex
	writer  *protocol.Writer
	// lastSeen is the UnixNano of the last message read (lease renewal).
	lastSeen atomic.Int64

	mu          sync.Mutex
	resumeToken string
	instances   map[int]bool
	// undecided is set once a bundle_setup proposal failed without an
	// answer: its entry may yet bind an instance to the session.
	undecided bool
}

func (c *conn) touch() { c.lastSeen.Store(time.Now().UnixNano()) }

// newResumeToken mints an unguessable session identifier.
func newResumeToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return ""
	}
	return hex.EncodeToString(b[:])
}

// Listen starts a server on addr (":0" picks an ephemeral port for tests;
// the well-known port is protocol.DefaultPort).
func Listen(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen: %w", err)
	}
	srv, err := Serve(ln, cfg)
	if err != nil {
		_ = ln.Close()
		return nil, err
	}
	return srv, nil
}

// Serve starts a server on an existing listener (e.g. one wrapped with
// fault injection by package chaos). The server owns ln and closes it on
// Close.
func Serve(ln net.Listener, cfg Config) (*Server, error) {
	if cfg.Controller == nil {
		return nil, errors.New("server: config needs a controller")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{
		cfg:       cfg,
		listener:  ln,
		rep:       cfg.Replica,
		conns:     make(map[*conn]struct{}),
		byInst:    make(map[int]*conn),
		dirty:     make(map[int]core.Event),
		stopSweep: make(chan struct{}),
	}
	if cfg.Vet != VetOff {
		s.admission = vet.NewAdmission(cfg.Controller)
	}
	if err := cfg.Controller.Subscribe(s.onEvent); err != nil {
		_ = ln.Close()
		return nil, err
	}
	if s.rep == nil {
		rep, err := NewReplicaFromListener(nil, ReplicaConfig{
			ClientAddr: ln.Addr().String(),
			Controller: cfg.Controller,
			Logf:       cfg.Logf,
		})
		if err != nil {
			_ = ln.Close()
			return nil, err
		}
		s.rep, s.ownsRep = rep, true
	}
	s.rep.attach(s)
	s.wg.Add(1)
	go s.acceptLoop()
	if cfg.LeaseTTL > 0 {
		s.wg.Add(1)
		go s.sweepLeases(cfg.LeaseTTL)
	}
	return s, nil
}

// sweepLeases closes connections whose lease has lapsed. The serve loop's
// cleanup then parks or ends their sessions as configured.
func (s *Server) sweepLeases(ttl time.Duration) {
	defer s.wg.Done()
	interval := ttl / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stopSweep:
			return
		case now := <-t.C:
			var idle []*conn
			s.mu.Lock()
			for c := range s.conns {
				if now.Sub(time.Unix(0, c.lastSeen.Load())) > ttl {
					idle = append(idle, c)
				}
			}
			s.mu.Unlock()
			for _, c := range idle {
				s.cfg.Logf("harmony: %s: lease expired, closing", c.netConn.RemoteAddr())
				_ = c.netConn.Close()
			}
		}
	}
}

// ForceChoice imposes a configuration on an application through the
// replicated log (replog.OpForceChoice), as an operator rule does: once a
// majority holds the entry, every member applies Controller.ForceChoice at the
// entry's time. The event is nil when the choice was already active. A server
// whose replica does not lead answers with *ErrNotLeader.
func (s *Server) ForceChoice(instance int, ch core.Choice) (*core.Event, error) {
	res, _, err := s.rep.Propose(&replog.Entry{Op: replog.OpForceChoice, Instance: instance, Choice: core.ChoiceToLog(ch)})
	if err != nil || len(res.Events) == 0 {
		return nil, err
	}
	return &res.Events[0], nil
}

// Addr reports the listening address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Close stops accepting, closes all connections and waits for handler
// goroutines to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stopSweep)
	err := s.listener.Close()
	s.closeClientConns() // closed is set: the accept loop adds no more
	s.wg.Wait()
	if s.ownsRep {
		_ = s.rep.Close()
	}
	return err
}

// hasLiveSession reports whether some open connection currently holds the
// session token (the replica's failover grace logic must not expire a
// session a client already resumed).
func (s *Server) hasLiveSession(token string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		c.mu.Lock()
		match := c.resumeToken == token
		c.mu.Unlock()
		if match {
			return true
		}
	}
	return false
}

// closeClientConns drops every client connection without shutting the
// server down. The replica calls it on leader step-down: clients notice the
// break and their reconnect logic rotates them onto the new leader.
func (s *Server) closeClientConns() {
	s.mu.Lock()
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		_ = c.netConn.Close()
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.listener.Accept()
		if err != nil {
			return // closed
		}
		c, ok := s.addConn(nc)
		if !ok {
			_ = nc.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			c.serve()
		}()
	}
}

// addConn wraps an accepted connection and publishes it to the lease
// sweeper and Close; it reports false once the server is closed. The lease
// starts here, not when serve first reads: a sweep that runs before the
// serve goroutine does must not find the connection idle since the epoch.
func (s *Server) addConn(nc net.Conn) (*conn, bool) {
	c := &conn{
		srv:       s,
		netConn:   nc,
		writer:    protocol.NewWriter(nc),
		instances: make(map[int]bool),
	}
	c.touch()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false
	}
	s.conns[c] = struct{}{}
	return c, true
}

// onEvent reacts to controller reconfigurations: it marks the instance
// dirty and flushes it to the owning application. The update's variables are
// built only where a connection holds the instance, so a follower, which
// holds none, builds none.
func (s *Server) onEvent(ev core.Event) {
	s.mu.Lock()
	s.dirty[ev.Instance] = ev
	s.mu.Unlock()
	s.FlushPendingVars(ev.Instance)
}

// eventVars derives the update set for an event: every namespace leaf under
// the instance is exported under its dotted suffix so applications can read
// assigned resources (nodes, memory), then the bundle variable takes the
// chosen option name and option variables take their values, so an
// application's own names win over a leaf of the same name.
func (s *Server) eventVars(ev core.Event) map[string]protocol.VarValue {
	vars := make(map[string]protocol.VarValue)
	prefix := namespace.InstancePath(ev.App, ev.Instance)
	_ = s.cfg.Controller.Namespace().Walk(prefix, func(path string, v namespace.Value) {
		vars[strings.TrimPrefix(path, prefix+".")] = v
	})
	vars[ev.Bundle] = protocol.StrVar(ev.Choice.Option)
	for k, v := range ev.Choice.Vars {
		vars[k] = protocol.NumVar(v)
	}
	return vars
}

// FlushPendingVars sends a dirty instance its configuration (the paper's
// flushPendingVars call). An instance no connection is bound to stays dirty:
// the registration ack takes it, a resume that binds the instance again
// flushes it, and unregistering the instance drops it.
func (s *Server) FlushPendingVars(instance int) {
	s.mu.Lock()
	c := s.byInst[instance]
	s.mu.Unlock()
	if c == nil {
		return
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	vars := s.takeVars(c, instance)
	if vars == nil {
		return
	}
	if err := c.write(&protocol.Message{Type: protocol.TypeUpdate, Instance: instance, Vars: vars}); err != nil {
		s.cfg.Logf("harmony: flush to instance %d: %v", instance, err)
	}
}

// takeVars clears the instance's dirty mark and returns the variables of
// the view current now, if it was dirty and c holds it. The caller holds
// c.writeMu: variables are built and written under one lock, so a later
// write never carries an older state.
func (s *Server) takeVars(c *conn, instance int) map[string]protocol.VarValue {
	s.mu.Lock()
	ev, dirty := s.dirty[instance]
	dirty = dirty && s.byInst[instance] == c
	if dirty {
		delete(s.dirty, instance)
	}
	s.mu.Unlock()
	if !dirty {
		return nil
	}
	return s.eventVars(ev)
}

func (c *conn) send(m *protocol.Message) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return c.write(m)
}

// write sends one message under the peer link's deadline rule. Updates are
// written on the replica's loop, so a client that stops reading must not hold
// that loop: a write that does not finish in time fails, and the connection is
// closed, after which its session parks or ends under the lease rules like any
// other dropped connection. The caller holds writeMu.
func (c *conn) write(m *protocol.Message) error {
	_ = c.netConn.SetWriteDeadline(time.Now().Add(c.srv.rep.ioDeadline()))
	err := c.writer.Write(m)
	if err != nil {
		_ = c.netConn.Close()
	}
	return err
}

func (c *conn) serve() {
	defer c.cleanup()
	r := protocol.NewReader(c.netConn)
	for {
		msg, err := r.Read()
		if err != nil {
			// Tell the peer why it is being dropped when the input itself is
			// at fault (oversized line, garbage bytes, typeless message);
			// I/O failures get no goodbye — there is nobody left to read it.
			var we *protocol.WireError
			if errors.As(err, &we) {
				c.srv.cfg.Logf("harmony: %s: dropping connection: %s", c.netConn.RemoteAddr(), we.Reason)
				_ = c.send(errReply("%s", we.Reason))
			}
			return
		}
		c.touch()
		reply := c.handle(msg)
		if reply != nil {
			reply.Seq = msg.Seq
			if err := c.send(reply); err != nil {
				return
			}
		}
	}
}

// cleanup handles a dying connection. Instances are never unregistered
// directly — that would mutate the ledger off-log. The leader either parks
// the session and arms a grace timer whose expiry proposes its end, or,
// without a grace window, proposes the end at once; a follower (or a deposed
// leader) does nothing, because the real leader's grace timers own every
// session. A session that holds no instance is not in the log, and its end
// is proposed only when a registration of it may yet commit.
func (c *conn) cleanup() {
	s, r := c.srv, c.srv.rep
	c.mu.Lock()
	instances := make([]int, 0, len(c.instances))
	for id := range c.instances {
		instances = append(instances, id)
	}
	sort.Ints(instances)
	token, undecided := c.resumeToken, c.undecided
	c.mu.Unlock()
	s.mu.Lock()
	delete(s.conns, c)
	for _, id := range instances {
		if s.byInst[id] == c {
			delete(s.byInst, id)
		}
	}
	closed := s.closed
	s.mu.Unlock()
	_ = c.netConn.Close()
	if closed || !r.IsLeader() || (len(instances) == 0 && !undecided) {
		return
	}
	if token == "" {
		// No session (the client never sent startup): end any registrations
		// outright.
		for _, id := range instances {
			if _, _, err := r.Propose(&replog.Entry{Op: replog.OpUnregister, Instance: id}); err != nil {
				s.cfg.Logf("harmony: unregister %d on disconnect: %v", id, err)
			}
		}
		return
	}
	// Within the grace window a reconnecting client can reclaim its
	// registrations by resume token; only after it lapses does the dropped
	// connection become an implicit harmony_end. Propose is bounded, and
	// this runs on the dying connection's serve goroutine.
	park := s.cfg.LeaseGrace > 0 && len(instances) > 0
	op := replog.OpSessionExpire
	if park {
		op = replog.OpSessionPark
	}
	if _, _, err := r.Propose(&replog.Entry{Op: op, Token: token}); err != nil {
		s.cfg.Logf("harmony: %s session %.8s: %v", op, token, err)
		return
	}
	if park {
		r.armGraceTimer(token)
		s.cfg.Logf("harmony: %s: parked session %.8s for %v", c.netConn.RemoteAddr(), token, s.cfg.LeaseGrace)
	}
}
