// Replication: the controller as a replicated state machine. Every
// ledger-mutating client request is proposed as a replog.Entry, committed
// once a majority of replicas hold it, and applied deterministically via
// core.Controller.Apply — so any replica can take over as leader with a
// bit-identical ledger, live leases and valid resume tokens. The protocol is
// internal/consensus, a pure step function; a Replica is the shell around
// one: a single goroutine (run) owns the core, the store, the session table
// and the proposers' waiters, and carries out what the core asks for, always
// in the same order (step). Members talk over the clients' newline-delimited
// JSON protocol, on a dedicated peer listener.

package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/consensus"
	"harmony/internal/core"
	"harmony/internal/protocol"
	"harmony/internal/replog"
)

// Replica roles.
const roleFollower, roleLeader = consensus.Follower, consensus.Leader

// ErrNotLeader is returned by Propose on a non-leader replica; LeaderClient
// carries the last known leader's client address for redirects.
type ErrNotLeader = consensus.ErrNotLeader

// ErrNoQuorum is returned when a proposal cannot reach a majority.
var ErrNoQuorum = consensus.ErrNoQuorum

// undecided wraps why a proposer stopped waiting before its entry was applied
// (no quorum in time, a failed write, a step-down, a close): the entry is in
// the log and may still commit. A refusal before the append, and an apply's
// own error, are answers and come unwrapped.
type undecided struct{ error }

func (u undecided) Unwrap() error { return u.error }

// ReplicaConfig parameterizes one replica.
type ReplicaConfig struct {
	// ID names the replica; defaults to the peer listener's address, or
	// without one to ClientAddr.
	ID string
	// Peers are the other replicas' peer addresses. A member without peers
	// is a cluster of one: it leads from construction and commits alone.
	Peers []string
	// ClientAddr is this replica's advertised client address, shipped to
	// followers so they can redirect clients to the leader.
	ClientAddr string
	// Controller is the replicated state machine. Required.
	Controller *core.Controller
	// DataDir, when set, persists the log, snapshots and election state so
	// the replica recovers after a crash. Empty keeps everything in memory;
	// a member with neither peers nor DataDir then has nobody to ship state
	// to and nothing to recover, so it compacts by dropping applied entries
	// instead of serializing the controller.
	DataDir string
	// ElectionTimeout is the base follower timeout before standing for
	// election (randomized per round); default 300ms. The leader's idle
	// append cadence is a quarter of it.
	ElectionTimeout time.Duration
	// SnapshotEvery compacts the log after this many applied entries;
	// default 64, negative disables.
	SnapshotEvery int
	// Logf logs replication events; nil discards.
	Logf func(format string, args ...any)
}

// applyOutcome is what applying one entry gave, for its proposer.
type applyOutcome struct {
	res *core.ApplyResult
	sn  *sessionRecord
	err error
}

// event is one item of the loop's inbox: an input for the core and where its
// answer goes, or (run) work that only needs the loop's ownership.
type event struct {
	in    consensus.Input
	reply chan<- *protocol.Message // PeerMsg: the inbound connection waiting
	done  func(applyOutcome)       // Propose: hears the outcome, on the loop
	run   func()
}

// published is what Status, IsLeader and LeaderClient read without entering
// the loop, which replaces it before it releases a step's proposers.
type published struct {
	role, leaderClient string
	term               uint64
	snapTakenAt        time.Time
}

// Replica is one member of a replicated controller cluster.
type Replica struct {
	cfg      ReplicaConfig
	log      *replog.Log
	store    *replog.Store
	listener net.Listener
	srv      atomic.Pointer[Server] // attached client-facing server, if any
	status   atomic.Pointer[published]
	// lastApplied (the loop writes it) is the commit index Status reports: the
	// log's commit point runs ahead of a follower's apply.
	lastApplied atomic.Uint64
	// links hands requests to the peers' sender goroutines. The core keeps
	// one request in flight per peer, so a one-slot channel never blocks.
	links map[string]chan *protocol.Message
	inbox chan event
	// Owned by the loop goroutine (by the constructor until it starts).
	core         *consensus.Core
	sessions     *sessionTable
	appliedSince int
	snapTakenAt  time.Time
	waiters      map[uint64]func(applyOutcome) // by log index
	backlog      []event                       // the loop's own inputs, in order

	connMu sync.Mutex // guards conns (both directions) and closed
	conns  map[net.Conn]struct{}
	closed bool
	stop   chan struct{}
	wg     sync.WaitGroup
}

// failoverGraceFloor is the least a new leader waits for the clients of the
// sessions it inherited, having no connection to judge them by.
const failoverGraceFloor = 5 * time.Second

// NewReplica starts a replica listening for peer traffic on peerAddr (":0"
// picks an ephemeral port; "" opens no listener, for a member without peers).
// It recovers log, snapshot and election state from cfg.DataDir, if any.
func NewReplica(peerAddr string, cfg ReplicaConfig) (*Replica, error) {
	if peerAddr == "" {
		return NewReplicaFromListener(nil, cfg)
	}
	ln, err := net.Listen("tcp", peerAddr)
	if err != nil {
		return nil, fmt.Errorf("server: replica listen: %w", err)
	}
	return NewReplicaFromListener(ln, cfg)
}

// NewReplicaFromListener starts a replica on an existing peer listener (tests
// pre-bind them, so every replica knows its peers' addresses before any
// starts). The replica owns ln, which may be nil for a member without peers.
func NewReplicaFromListener(ln net.Listener, cfg ReplicaConfig) (_ *Replica, err error) {
	r := &Replica{
		log:      replog.NewLog(),
		listener: ln,
		links:    make(map[string]chan *protocol.Message),
		inbox:    make(chan event),
		sessions: newSessionTable(),
		waiters:  make(map[uint64]func(applyOutcome)),
		conns:    make(map[net.Conn]struct{}),
		stop:     make(chan struct{}),
	}
	defer func() {
		if err != nil && ln != nil {
			_ = ln.Close()
		}
		if err != nil && r.store != nil {
			_ = r.store.Close()
		}
	}()
	if cfg.Controller == nil {
		return nil, errors.New("server: replica config needs a controller")
	}
	if ln == nil && len(cfg.Peers) > 0 {
		return nil, errors.New("server: a replica with peers needs a peer address")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.ElectionTimeout <= 0 {
		cfg.ElectionTimeout = 300 * time.Millisecond
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = 64
	}
	if cfg.ID == "" && ln != nil {
		cfg.ID = ln.Addr().String()
	}
	if cfg.ID == "" {
		cfg.ID = cfg.ClientAddr // no peer listener: go by the client address
	}
	r.cfg = cfg
	var hard replog.HardState
	if cfg.DataDir != "" {
		var persisted *replog.Persisted
		if r.store, persisted, err = replog.OpenStore(cfg.DataDir); err != nil {
			return nil, err
		}
		hard = persisted.State
		if err := r.log.Restore(persisted.Snapshot, persisted.Entries); err != nil {
			return nil, err
		}
		if persisted.Snapshot.Index > 0 {
			if err := r.installState(persisted.Snapshot); err != nil {
				return nil, fmt.Errorf("server: replica recover: %w", err)
			}
			cfg.Logf("harmony: replica %s: recovered snapshot@%d + %d log entries",
				cfg.ID, persisted.Snapshot.Index, len(persisted.Entries))
		}
	}
	r.core = consensus.New(consensus.Config{
		ID: cfg.ID, ClientAddr: cfg.ClientAddr, Peers: cfg.Peers, ElectionTimeout: cfg.ElectionTimeout,
		Rand: rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(len(cfg.ID)))),
	}, r.log, hard, time.Now())
	// A cluster of one is its own majority: its first tick, taken here, wins
	// the next term and commits its first entry (and with it whatever the
	// recovered log held), with no election timeout to wait out.
	r.handle(event{})
	if len(cfg.Peers) == 0 && (!r.IsLeader() || r.log.Commit() < r.log.LastIndex()) {
		return nil, errors.New("server: replica start: could not commit the term's first entry")
	}
	for _, addr := range cfg.Peers {
		r.links[addr] = make(chan *protocol.Message, 1)
		r.wg.Add(1)
		go r.sender(addr, r.links[addr])
	}
	if ln != nil {
		r.wg.Add(1)
		go r.acceptPeers()
	}
	r.wg.Add(1)
	go r.run()
	return r, nil
}

// attach links the client-facing server, whose connections the replica closes
// on step-down and whose dirty marks it clears on unregister. It brings
// the grace window, so a member already leading (a cluster of one restarted
// on its data directory) opens the inherited sessions' windows here.
func (r *Replica) attach(s *Server) {
	r.srv.Store(s)
	r.post(event{run: r.armGraceTimersAfterFailover})
}

// Close stops the replica; the controller and any attached server are not its.
func (r *Replica) Close() error {
	r.connMu.Lock()
	if r.closed {
		r.connMu.Unlock()
		return nil
	}
	r.closed = true
	close(r.stop) // releases every proposer, poster and waiting connection
	for nc := range r.conns {
		_ = nc.Close()
	}
	r.connMu.Unlock()
	var err error
	if r.listener != nil {
		err = r.listener.Close()
	}
	r.wg.Wait()
	if r.store != nil {
		_ = r.store.Close()
	}
	return err
}

// IsLeader reports whether this replica currently leads.
func (r *Replica) IsLeader() bool { return r.status.Load().role == roleLeader }

// LeaderClient reports the last known leader's client address.
func (r *Replica) LeaderClient() string { return r.status.Load().leaderClient }

// Status reports the replica's replication state.
func (r *Replica) Status() protocol.ReplicaStatus {
	st := r.status.Load()
	age := -1.0
	if !st.snapTakenAt.IsZero() {
		age = time.Since(st.snapTakenAt).Seconds()
	}
	return protocol.ReplicaStatus{
		ID: r.cfg.ID, Role: st.role, Term: st.term, Leader: st.leaderClient, Peers: len(r.cfg.Peers),
		CommitIndex: r.lastApplied.Load(), LastIndex: r.log.LastIndex(),
		SnapshotIndex: r.log.Snapshot().Index, SnapshotAgeSeconds: age,
	}
}

// post hands an event to the loop; false means the replica closed instead.
func (r *Replica) post(ev event) bool {
	select {
	case r.inbox <- ev:
		return true
	case <-r.stop:
		return false
	}
}

// run is the single owner of the replica's state.
func (r *Replica) run() {
	defer r.wg.Done()
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case ev := <-r.inbox:
			r.handle(ev)
		case <-t.C:
			// Applying runs on this goroutine, so a tick can come up with a
			// leader's heartbeat queued behind it: what is waiting is heard
			// before the clock is, or a long apply becomes a spurious election.
			for waiting := true; waiting; {
				select {
				case ev := <-r.inbox:
					r.handle(ev)
				default:
					waiting = false
				}
			}
			r.handle(event{}) // the zero input is a tick
		}
	}
}

// handle steps one event and then whatever the step queued for itself:
// nothing on the loop may call Propose, which would wait for the loop.
func (r *Replica) handle(ev event) {
	r.step(ev)
	for len(r.backlog) > 0 {
		ev, r.backlog = r.backlog[0], r.backlog[1:]
		r.step(ev)
	}
}

// submit queues a proposal of the loop's own; done, if set, hears the outcome.
func (r *Replica) submit(e *replog.Entry, done func(applyOutcome)) {
	r.backlog = append(r.backlog, event{in: consensus.Input{Kind: consensus.Propose, Entry: e}, done: done})
}

// step feeds one event to the core and does what the core asks, in a fixed
// order: hand the requests to the peers' senders, which promise nothing, so
// that a leader's write overlaps the followers'; save; only then send the
// reply, which vouches for the save; apply; publish; release the proposers;
// fold a snapshot; and tell the core how the save went.
func (r *Replica) step(ev event) {
	if ev.run != nil {
		ev.run()
		return
	}
	if e := ev.in.Entry; e != nil {
		// Entry times are the leader's virtual clock; a caller-stamped later
		// time wins (Advance drives the cluster clock through exactly this).
		e.Time = max(e.Time, r.cfg.Controller.Clock().Now())
	}
	rd := r.core.Step(time.Now(), ev.in)
	if rd.MustSave() {
		r.ship(&rd)
		err := r.save(&rd)
		if err != nil {
			r.cfg.Logf("harmony: replica %s: persist: %v", r.cfg.ID, err)
			rd.DropPromises()
		}
		r.finish(ev, &rd)
		ev, rd = event{}, r.core.Step(time.Now(), consensus.Input{Kind: consensus.Saved, Err: err})
	}
	r.ship(&rd)
	r.finish(ev, &rd)
}

// ship hands rd's requests to the peers' senders.
func (r *Replica) ship(rd *consensus.Ready) {
	for _, m := range rd.Msgs {
		r.links[m.To] <- m.Msg
	}
}

// save writes what rd names: a snapshot first replaces state machine and log;
// then the hard state; then the entries, appended or, when the file's tail
// cannot be trusted, as a rewrite of snapshot and tail.
func (r *Replica) save(rd *consensus.Ready) error {
	if rd.Snapshot != nil {
		if err := r.installState(*rd.Snapshot); err != nil {
			return fmt.Errorf("install snapshot@%d: %w", rd.Snapshot.Index, err)
		}
		r.log.CompactTo(*rd.Snapshot)
		r.cfg.Logf("harmony: replica %s: installed snapshot@%d", r.cfg.ID, rd.Snapshot.Index)
	}
	if r.store == nil {
		return nil
	}
	if rd.HardState != nil {
		if err := r.store.SaveHardState(*rd.HardState); err != nil {
			return err
		}
	}
	if !rd.Rewrite {
		return r.store.AppendEntries(rd.Entries)
	}
	snap := r.log.Snapshot()
	tail, err := r.log.EntriesFrom(snap.Index + 1)
	if err != nil {
		return err
	}
	return r.store.SaveSnapshot(snap, tail)
}

// finish carries out the part of a Ready that follows the save.
func (r *Replica) finish(ev event, rd *consensus.Ready) {
	if ev.done != nil && rd.Index > 0 {
		r.waiters[rd.Index] = ev.done
	}
	if ev.reply != nil {
		ev.reply <- rd.Reply
	}
	released := r.applyCommitted(rd.Commit)
	r.publish()
	if rd.Err != nil && ev.done != nil {
		ev.done(applyOutcome{err: rd.Err})
	} else if rd.Err != nil { // refused one of the loop's own: nobody else hears of it
		r.cfg.Logf("harmony: replica %s: %s %.8s: %v", r.cfg.ID, ev.in.Entry.Op, ev.in.Entry.Token, rd.Err)
	}
	for _, release := range released {
		release()
	}
	for _, f := range rd.Failed {
		if done := r.waiters[f.Index]; done != nil {
			delete(r.waiters, f.Index)
			done(applyOutcome{err: undecided{f.Err}})
		}
	}
	// The proposers are answered first: a snapshot is the members' own
	// bookkeeping, and none of them waits for it.
	if r.cfg.SnapshotEvery > 0 && r.appliedSince >= r.cfg.SnapshotEvery {
		r.takeSnapshot()
		r.publish()
	}
	_, term, _ := r.core.State()
	if rd.SteppedDown {
		r.cfg.Logf("harmony: replica %s: stepping down (term %d)", r.cfg.ID, term)
		if srv := r.srv.Load(); srv != nil {
			srv.closeClientConns() // their reconnect logic finds the new leader
		}
	}
	if rd.BecameLeader {
		r.cfg.Logf("harmony: replica %s: elected leader, term %d", r.cfg.ID, term)
		// Commit an entry in the new term at once: the no-op doubles as a
		// re-harmonization pass and commits every prior-term entry. With it
		// applied the session table is whole: the grace windows open.
		r.submit(&replog.Entry{Op: replog.OpReevaluate}, func(out applyOutcome) {
			if out.err == nil {
				r.armGraceTimersAfterFailover()
			}
		})
	}
	for _, token := range rd.Due {
		r.expireSession(token)
	}
}

// Propose appends e to the replicated log, ships it to a majority and
// applies it, returning the apply result (and, for session ops, the session
// record). Callers on a follower get *ErrNotLeader.
func (r *Replica) Propose(e *replog.Entry) (*core.ApplyResult, *sessionRecord, error) {
	done := make(chan applyOutcome, 1)
	ev := event{in: consensus.Input{Kind: consensus.Propose, Entry: e}, done: func(out applyOutcome) { done <- out }}
	if r.post(ev) {
		select {
		case out := <-done:
			return out.res, out.sn, out.err
		case <-r.stop:
		}
	}
	return nil, nil, undecided{&ErrNotLeader{}} // closed: whoever leads, it is not this member
}

// Advance replicates a re-harmonization entry stamped at virtual time now
// (clamped monotone against the log): every replica, the leader included,
// moves its clock by applying it. This is how a daemon maps wall time in.
func (r *Replica) Advance(now time.Duration) error {
	_, _, err := r.Propose(&replog.Entry{Op: replog.OpReevaluate, Time: now})
	return err
}

// applyCommitted applies the committed-but-unapplied entries in order and
// returns the proposers to release, each bound to its entry's outcome.
func (r *Replica) applyCommitted(commit uint64) (released []func()) {
	for idx := r.lastApplied.Load() + 1; idx <= commit; idx++ {
		e, err := r.log.Entry(idx)
		if err != nil {
			r.cfg.Logf("harmony: replica %s: apply: entry %d: %v", r.cfg.ID, idx, err)
			return released
		}
		out := r.applyEntry(&e)
		if e.Decoded != nil {
			r.log.DropDecoded(idx)
		}
		r.lastApplied.Store(idx)
		r.appliedSince++
		if done := r.waiters[idx]; done != nil {
			delete(r.waiters, idx)
			released = append(released, func() { done(out) })
		} else if out.err != nil {
			// No proposer hears this refusal (a follower, or a restart
			// replaying its log): the log is the only place it shows.
			r.cfg.Logf("harmony: replica %s: apply: entry %d (%s): %v", r.cfg.ID, idx, e.Op, out.err)
		}
	}
	return released
}

// publish replaces what Status, IsLeader and LeaderClient read, if it changed.
func (r *Replica) publish() {
	role, term, leaderClient := r.core.State()
	st := published{role: role, term: term, leaderClient: leaderClient, snapTakenAt: r.snapTakenAt}
	if old := r.status.Load(); old == nil || *old != st {
		r.status.Store(&st)
	}
}

// applyEntry executes one entry against the controller and session table,
// deterministically: no clock, no randomness and no map-order-dependent write
// on this path. TestReplicaReplayIsDeterministic applies one log on two
// replicas and compares their state after every entry.
func (r *Replica) applyEntry(e *replog.Entry) applyOutcome {
	ctrl := r.cfg.Controller
	switch e.Op {
	case replog.OpSessionStart:
		return applyOutcome{err: r.sessions.start(e.Token)}
	case "session_var":
		// Logs written before add_variable stopped being replicated hold
		// these; nothing ever read what they recorded.
		return applyOutcome{}
	case replog.OpSessionPark:
		return applyOutcome{err: r.sessions.park(e.Token)}
	case replog.OpSessionResume:
		sn, err := r.sessions.resume(e.Token)
		return applyOutcome{sn: sn, err: err}
	case replog.OpSessionExpire:
		instances, ok := r.sessions.expire(e.Token)
		if !ok {
			return applyOutcome{}
		}
		// Unregister every bound instance at the entry's time; instances are
		// sorted, so every replica releases in the same order.
		for _, inst := range instances {
			sub := replog.Entry{Time: e.Time, Op: replog.OpUnregister, Instance: inst}
			if _, err := ctrl.Apply(&sub); err != nil {
				r.cfg.Logf("harmony: replica %s: expire %s: unregister %d: %v", r.cfg.ID, e.Token, inst, err)
			}
			r.clearDirty(inst)
		}
		return applyOutcome{}
	case replog.OpRegister:
		res, err := ctrl.Apply(e)
		if err == nil && e.Token != "" {
			r.sessions.bind(e.Token, res.Instance)
		}
		return applyOutcome{res: res, err: err}
	case replog.OpUnregister:
		res, err := ctrl.Apply(e)
		if err == nil {
			r.sessions.unbindInstance(e.Instance)
			r.clearDirty(e.Instance)
		}
		return applyOutcome{res: res, err: err}
	default:
		res, err := ctrl.Apply(e)
		return applyOutcome{res: res, err: err}
	}
}

// clearDirty drops the attached server's dirty mark for a gone instance
// (followers have no connection to consume it).
func (r *Replica) clearDirty(instance int) {
	if srv := r.srv.Load(); srv != nil {
		srv.mu.Lock()
		delete(srv.dirty, instance)
		srv.mu.Unlock()
	}
}

// snapshotPayload is the serialized state machine: controller + sessions.
type snapshotPayload struct {
	Controller *core.PersistedState `json:"controller"`
	Sessions   []sessionRecord      `json:"sessions,omitempty"`
}

// takeSnapshot folds the applied prefix into a snapshot.
func (r *Replica) takeSnapshot() {
	last, err := r.log.Entry(r.lastApplied.Load())
	if err != nil {
		return
	}
	snap := replog.Snapshot{Index: last.Index, Term: last.Term, Time: last.Time}
	if r.store == nil && len(r.cfg.Peers) == 0 {
		// Nobody to ship state to and nothing to recover: the applied entries
		// are simply dropped, and the controller is never serialized.
		r.log.CompactTo(snap)
		r.appliedSince = 0
		return
	}
	if snap.Time, snap.Data, err = r.encodeState(); err != nil {
		r.cfg.Logf("harmony: replica %s: snapshot: %v", r.cfg.ID, err)
		return
	}
	r.log.CompactTo(snap)
	r.appliedSince, r.snapTakenAt = 0, time.Now()
	if err := r.save(&consensus.Ready{Rewrite: true}); err != nil {
		r.cfg.Logf("harmony: replica %s: persist snapshot: %v", r.cfg.ID, err)
	}
	r.cfg.Logf("harmony: replica %s: snapshot@%d (%d bytes)", r.cfg.ID, snap.Index, len(snap.Data))
}

// encodeState serializes the state machine — controller and session table —
// as a snapshot carries it, with the controller's virtual time. Only the loop
// may call it.
func (r *Replica) encodeState() (time.Duration, []byte, error) {
	st, err := r.cfg.Controller.State()
	if err != nil {
		return 0, nil, err
	}
	data, err := json.Marshal(&snapshotPayload{Controller: st, Sessions: r.sessions.snapshot()})
	return st.Now, data, err
}

// EncodeState returns the payload a snapshot taken now would carry: the
// controller and the session table, read on the loop between two steps, so
// two members that applied the same entries return the same bytes.
func (r *Replica) EncodeState() ([]byte, error) {
	var data []byte
	var err error
	done := make(chan struct{})
	if !r.post(event{run: func() {
		_, data, err = r.encodeState()
		close(done)
	}}) {
		return nil, errors.New("server: replica closed")
	}
	<-done // the loop runs what it took before it looks at stop again
	return data, err
}

// installState replaces the controller and session table from a snapshot.
func (r *Replica) installState(snap replog.Snapshot) error {
	var payload snapshotPayload
	if err := json.Unmarshal(snap.Data, &payload); err != nil {
		return fmt.Errorf("server: decode snapshot: %w", err)
	}
	if err := r.cfg.Controller.Restore(payload.Controller); err != nil {
		return err
	}
	r.sessions.restore(payload.Sessions)
	r.lastApplied.Store(snap.Index)
	r.appliedSince, r.snapTakenAt = 0, time.Now()
	return nil
}

// armGraceTimersAfterFailover gives every replicated session a fresh grace
// window on the new leader: clients that resume cancel theirs, the rest
// expire. The old leader died with the client connections, so a session not
// already resumed here is parked (through the log) as its window opens. The
// windows are deadlines in the core: they end with the leadership.
func (r *Replica) armGraceTimersAfterFailover() {
	srv := r.srv.Load()
	if srv == nil || !r.IsLeader() {
		return // no clients to wait for yet (attach arms), or not ours to arm
	}
	for _, token := range r.sessions.tokens() {
		if srv.hasLiveSession(token) {
			continue // resumed before we got here
		}
		if rec, ok := r.sessions.get(token); ok && !rec.Parked {
			r.submit(&replog.Entry{Op: replog.OpSessionPark, Token: token}, nil)
		}
		r.backlog = append(r.backlog, r.graceEvent(token, r.graceDuration()))
	}
}

// graceDuration is the attached server's lease grace; a deployment without
// one still gives failed-over sessions failoverGraceFloor.
func (r *Replica) graceDuration() time.Duration {
	if srv := r.srv.Load(); srv != nil && srv.cfg.LeaseGrace > 0 {
		return srv.cfg.LeaseGrace
	}
	return failoverGraceFloor
}

func (r *Replica) graceEvent(token string, after time.Duration) event {
	return event{in: consensus.Input{Kind: consensus.Grace, Token: token, After: after}}
}

// armGraceTimer schedules a session's expiry unless it resumes first.
func (r *Replica) armGraceTimer(token string) { r.post(r.graceEvent(token, r.graceDuration())) }

// cancelGraceTimer stops a session's pending expiry (it resumed).
func (r *Replica) cancelGraceTimer(token string) { r.post(r.graceEvent(token, 0)) }

// expireSession proposes the replicated end of a session whose window closed.
func (r *Replica) expireSession(token string) {
	rec, ok := r.sessions.get(token)
	if !ok || !rec.Parked {
		return
	}
	if srv := r.srv.Load(); srv != nil && srv.hasLiveSession(token) {
		return // resumed while the park raced the window
	}
	r.cfg.Logf("harmony: replica %s: session %.8s grace expired", r.cfg.ID, token)
	r.submit(&replog.Entry{Op: replog.OpSessionExpire, Token: token}, nil)
}
