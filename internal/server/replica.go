// Replication: the controller as a replicated state machine. A Replica
// wraps one controller with a minimal term-based election and log-shipping
// protocol (the Raft recipe reduced to this system's needs): every
// ledger-mutating client request is proposed as a replog.Entry, committed
// once a majority of replicas hold it, and applied deterministically via
// core.Controller.Apply — so any replica can take over as leader with a
// bit-identical ledger, live leases and valid resume tokens. Replicas talk
// to each other over the same newline-delimited JSON protocol clients use,
// on a dedicated peer listener.

package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"harmony/internal/core"
	"harmony/internal/protocol"
	"harmony/internal/replog"
)

// Replica roles.
const (
	roleFollower  = "follower"
	roleCandidate = "candidate"
	roleLeader    = "leader"
)

// ErrNotLeader is returned by Propose on a non-leader replica; LeaderClient
// carries the last known leader's client address for redirects.
type ErrNotLeader struct {
	// LeaderClient is the advertised client address ("" when unknown).
	LeaderClient string
}

// Error implements error; the string starts with protocol.ErrNotLeader so
// clients can classify it.
func (e *ErrNotLeader) Error() string {
	if e.LeaderClient == "" {
		return protocol.ErrNotLeader + ": this replica is not the leader"
	}
	return fmt.Sprintf("%s: leader is at %s", protocol.ErrNotLeader, e.LeaderClient)
}

// ErrNoQuorum is returned when a proposal cannot reach a majority.
var ErrNoQuorum = errors.New("server: proposal did not reach a quorum")

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
	// election (randomized per round); default 300ms.
	ElectionTimeout time.Duration
	// HeartbeatInterval is the leader's idle append cadence; default
	// ElectionTimeout/4.
	HeartbeatInterval time.Duration
	// SnapshotEvery compacts the log after this many applied entries;
	// default 64, negative disables.
	SnapshotEvery int
	// Logf logs replication events; nil discards.
	Logf func(format string, args ...any)
}

// applyOutcome is one applied entry's result, delivered to the proposer.
type applyOutcome struct {
	res *core.ApplyResult
	sn  *sessionRecord
	err error
}

// peerState tracks replication progress to one peer.
type peerState struct {
	addr string
	// transport
	connMu sync.Mutex
	conn   net.Conn
	writer *protocol.Writer
	reader *protocol.Reader
	seq    uint64
	// progress (guarded by Replica.mu)
	nextIndex  uint64
	matchIndex uint64
}

// Replica is one member of a replicated controller cluster.
type Replica struct {
	cfg      ReplicaConfig
	ctrl     *core.Controller
	log      *replog.Log
	store    *replog.Store
	sessions *sessionTable
	listener net.Listener
	peers    []*peerState

	mu            sync.Mutex
	role          string
	term          uint64
	votedFor      string
	leaderID      string
	leaderClient  string
	electionReset time.Time
	closed        bool
	srv           *Server // attached client-facing server, if any
	// durable is the highest log index the store holds (with a store), and
	// storeTorn that its last write failed, perhaps part-way through.
	durable   uint64
	storeTorn bool

	proposeMu sync.Mutex // serializes Propose
	applyMu   sync.Mutex // serializes state-machine application
	// lastApplied / appliedSince / snapTakenAt are guarded by applyMu.
	lastApplied  uint64
	appliedSince int
	snapTakenAt  time.Time

	outMu      sync.Mutex
	interested map[uint64]bool
	outcomes   map[uint64]applyOutcome

	graceMu     sync.Mutex
	graceTimers map[string]*time.Timer

	inMu    sync.Mutex
	inConns map[net.Conn]struct{}

	rng   *rand.Rand
	rngMu sync.Mutex

	stop chan struct{}
	wg   sync.WaitGroup
}

// failoverGraceFloor is the least time a new leader waits for the clients of
// the sessions it inherited: it has no connection to judge them by, so even
// a deployment that ends dropped connections at once gives them this long
// to find it.
const failoverGraceFloor = 5 * time.Second

// NewReplica starts a replica listening for peer traffic on peerAddr
// (":0" picks an ephemeral port; "" opens no listener, for a member without
// peers). When cfg.DataDir holds prior state the replica recovers its log,
// snapshot and election state from it.
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

// NewReplicaFromListener starts a replica on an existing peer listener
// (tests and the chaos harness pre-bind listeners so every replica knows
// its peers' addresses before any of them starts). The replica owns ln,
// which may be nil for a member without peers.
func NewReplicaFromListener(ln net.Listener, cfg ReplicaConfig) (_ *Replica, err error) {
	defer func() {
		if err != nil && ln != nil {
			_ = ln.Close()
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
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = cfg.ElectionTimeout / 4
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
	r := &Replica{
		cfg:           cfg,
		ctrl:          cfg.Controller,
		log:           replog.NewLog(),
		sessions:      newSessionTable(),
		listener:      ln,
		role:          roleFollower,
		electionReset: time.Now(),
		interested:    make(map[uint64]bool),
		outcomes:      make(map[uint64]applyOutcome),
		graceTimers:   make(map[string]*time.Timer),
		inConns:       make(map[net.Conn]struct{}),
		rng:           rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(len(cfg.ID)))),
		stop:          make(chan struct{}),
	}
	for _, addr := range cfg.Peers {
		r.peers = append(r.peers, &peerState{addr: addr})
	}
	if cfg.DataDir != "" {
		store, persisted, err := replog.OpenStore(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		r.store = store
		r.term = persisted.State.Term
		r.votedFor = persisted.State.VotedFor
		if err := r.log.Restore(persisted.Snapshot, persisted.Entries); err != nil {
			_ = store.Close()
			return nil, err
		}
		r.durable = r.log.LastIndex()
		// A crash can leave half an entry at the end of the file; the first
		// write rewrites the tail rather than append behind it.
		r.storeTorn = true
		if persisted.Snapshot.Index > 0 {
			if err := r.installState(persisted.Snapshot); err != nil {
				_ = store.Close()
				return nil, fmt.Errorf("server: replica recover: %w", err)
			}
			cfg.Logf("harmony: replica %s: recovered snapshot@%d + %d log entries",
				cfg.ID, persisted.Snapshot.Index, len(persisted.Entries))
		}
	}
	if len(r.peers) == 0 {
		// A cluster of one is its own majority: it takes the next term now
		// instead of waiting out an election nobody can contest.
		r.mu.Lock()
		r.term++
		r.votedFor = cfg.ID
		r.persistHardStateLocked()
		r.becomeLeaderLocked()
		r.mu.Unlock()
	}
	if ln != nil {
		r.wg.Add(1)
		go r.acceptPeers()
	}
	r.wg.Add(1)
	go r.tick()
	if len(r.peers) == 0 {
		// The new term's first entry, as after any election: it commits (and
		// so applies) whatever the recovered log held.
		if _, _, err := r.Propose(&replog.Entry{Op: replog.OpReevaluate}); err != nil {
			_ = r.Close()
			return nil, fmt.Errorf("server: replica start: %w", err)
		}
	}
	return r, nil
}

// Addr reports the peer listener's address ("" without one).
func (r *Replica) Addr() string {
	if r.listener == nil {
		return ""
	}
	return r.listener.Addr().String()
}

// attach links the client-facing server so the replica can close client
// connections on step-down and clear pending buffers on unregister. The
// server also brings the grace window, so a member already leading (a
// cluster of one restarted on its data directory) starts the inherited
// sessions' windows here.
func (r *Replica) attach(s *Server) {
	r.mu.Lock()
	r.srv = s
	leader := r.role == roleLeader
	r.mu.Unlock()
	if leader {
		r.armGraceTimersAfterFailover()
	}
}

// Close stops the replica. The controller and any attached server are left
// to their own Close.
func (r *Replica) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	close(r.stop)
	var err error
	if r.listener != nil {
		err = r.listener.Close()
	}
	for _, p := range r.peers {
		p.connMu.Lock()
		if p.conn != nil {
			_ = p.conn.Close()
			p.conn = nil
		}
		p.connMu.Unlock()
	}
	r.inMu.Lock()
	for nc := range r.inConns {
		_ = nc.Close()
	}
	r.inMu.Unlock()
	r.cancelGraceTimers()
	r.wg.Wait()
	if r.store != nil {
		_ = r.store.Close()
	}
	return err
}

// IsLeader reports whether this replica currently leads.
func (r *Replica) IsLeader() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.role == roleLeader
}

// LeaderClient reports the last known leader's client address.
func (r *Replica) LeaderClient() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.leaderClient
}

// Status reports the replica's replication state.
func (r *Replica) Status() protocol.ReplicaStatus {
	r.mu.Lock()
	role, term, leader := r.role, r.term, r.leaderClient
	peers := len(r.peers)
	r.mu.Unlock()
	r.applyMu.Lock()
	snapAt := r.snapTakenAt
	r.applyMu.Unlock()
	age := -1.0
	if !snapAt.IsZero() {
		age = time.Since(snapAt).Seconds()
	}
	return protocol.ReplicaStatus{
		ID:                 r.cfg.ID,
		Role:               role,
		Term:               term,
		CommitIndex:        r.log.Commit(),
		LastIndex:          r.log.LastIndex(),
		SnapshotIndex:      r.log.Snapshot().Index,
		SnapshotAgeSeconds: age,
		Leader:             leader,
		Peers:              peers,
	}
}

// majority is the quorum size for this cluster.
func (r *Replica) majority() int { return (len(r.peers)+1)/2 + 1 }

// persistHardState durably records term and vote.
func (r *Replica) persistHardStateLocked() {
	if r.store == nil {
		return
	}
	if err := r.store.SaveHardState(replog.HardState{Term: r.term, VotedFor: r.votedFor}); err != nil {
		r.cfg.Logf("harmony: replica %s: persist state: %v", r.cfg.ID, err)
	}
}

// ---------------------------------------------------------------------------
// Election and heartbeat driver

func (r *Replica) tick() {
	defer r.wg.Done()
	// Randomize each round's election timeout in [T, 2T).
	timeout := r.randomTimeout()
	lastBeat := time.Time{}
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
		r.mu.Lock()
		role := r.role
		reset := r.electionReset
		r.mu.Unlock()
		switch role {
		case roleLeader:
			if time.Since(lastBeat) >= r.cfg.HeartbeatInterval {
				lastBeat = time.Now()
				r.broadcastAppend()
			}
		default:
			if time.Since(reset) >= timeout {
				timeout = r.randomTimeout()
				r.runElection()
			}
		}
	}
}

func (r *Replica) randomTimeout() time.Duration {
	r.rngMu.Lock()
	defer r.rngMu.Unlock()
	return r.cfg.ElectionTimeout + time.Duration(r.rng.Int63n(int64(r.cfg.ElectionTimeout)))
}

// runElection stands for leader: term++, vote for self, solicit the peers.
func (r *Replica) runElection() {
	r.mu.Lock()
	r.term++
	term := r.term
	r.role = roleCandidate
	r.votedFor = r.cfg.ID
	r.electionReset = time.Now()
	r.persistHardStateLocked()
	r.mu.Unlock()
	lastIndex, lastTerm := r.log.LastIndex(), r.log.LastTerm()
	r.cfg.Logf("harmony: replica %s: standing for election, term %d", r.cfg.ID, term)

	votes := 1 // self
	var voteMu sync.Mutex
	var wg sync.WaitGroup
	for _, p := range r.peers {
		wg.Add(1)
		go func(p *peerState) {
			defer wg.Done()
			reply, err := r.rpc(p, &protocol.Message{
				Type:      protocol.TypeVoteRequest,
				Term:      term,
				From:      r.cfg.ID,
				LastIndex: lastIndex,
				LastTerm:  lastTerm,
			})
			if err != nil {
				return
			}
			r.observeTerm(reply.Term, "")
			if reply.Granted {
				voteMu.Lock()
				votes++
				voteMu.Unlock()
			}
		}(p)
	}
	wg.Wait()
	r.mu.Lock()
	if r.role != roleCandidate || r.term != term || votes < r.majority() {
		r.mu.Unlock()
		return
	}
	r.becomeLeaderLocked()
	r.mu.Unlock()
	r.cfg.Logf("harmony: replica %s: elected leader, term %d", r.cfg.ID, term)
	// Commit an entry in the new term immediately: the no-op doubles as a
	// re-harmonization pass, and committing it commits every prior-term
	// entry (the commit rule only counts current-term entries). It also
	// arms failover grace timers for every replicated session.
	go func() {
		if _, _, err := r.Propose(&replog.Entry{Op: replog.OpReevaluate}); err == nil {
			r.armGraceTimersAfterFailover()
		}
	}()
}

// becomeLeaderLocked takes the leader role for the current term (r.mu held).
func (r *Replica) becomeLeaderLocked() {
	r.role = roleLeader
	r.leaderID = r.cfg.ID
	r.leaderClient = r.cfg.ClientAddr
	last := r.log.LastIndex()
	for _, p := range r.peers {
		p.nextIndex = last + 1
		p.matchIndex = 0
	}
}

// observeTerm steps down when a higher term is seen anywhere.
func (r *Replica) observeTerm(term uint64, leaderID string) {
	r.mu.Lock()
	if term <= r.term {
		if leaderID != "" && term == r.term {
			r.leaderID = leaderID
		}
		r.mu.Unlock()
		return
	}
	wasLeader := r.role == roleLeader
	r.term = term
	r.role = roleFollower
	r.votedFor = ""
	if leaderID != "" {
		r.leaderID = leaderID
	}
	r.electionReset = time.Now()
	r.persistHardStateLocked()
	srv := r.srv
	r.mu.Unlock()
	if wasLeader {
		r.cfg.Logf("harmony: replica %s: stepping down (term %d)", r.cfg.ID, term)
		r.cancelGraceTimers()
		if srv != nil {
			// Force clients onto the new leader: their reconnect logic
			// rotates through the address list and follows redirects.
			srv.closeClientConns()
		}
	}
}

// ---------------------------------------------------------------------------
// Proposals (leader side)

// Propose appends e to the replicated log, ships it to a majority and
// applies it, returning the apply result (and, for session ops, the session
// record). Callers on a follower get *ErrNotLeader.
func (r *Replica) Propose(e *replog.Entry) (*core.ApplyResult, *sessionRecord, error) {
	r.proposeMu.Lock()
	defer r.proposeMu.Unlock()
	r.mu.Lock()
	if r.role != roleLeader {
		leader := r.leaderClient
		r.mu.Unlock()
		return nil, nil, &ErrNotLeader{LeaderClient: leader}
	}
	term := r.term
	r.mu.Unlock()
	e.Term = term
	// Entry times are the leader's virtual clock, clamped monotone across
	// elections so replay never moves time backwards. A caller-stamped later
	// time wins: Advance drives the cluster clock through exactly this path.
	now := r.ctrl.Clock().Now()
	if last := r.log.LastTime(); last > now {
		now = last
	}
	if e.Time < now {
		e.Time = now
	}
	// Register interest in the outcome in the same critical section that
	// makes the entry visible: once it is in the log the heartbeat may ship,
	// commit and apply it at any moment, well inside the fsync below, and
	// applyCommitted keeps an outcome only for an index already marked. It
	// takes outMu to look, so it cannot look between the append and the mark.
	r.outMu.Lock()
	idx := r.log.Append(e)
	r.interested[idx] = true
	r.outMu.Unlock()
	defer func() {
		r.outMu.Lock()
		delete(r.interested, idx)
		delete(r.outcomes, idx)
		r.outMu.Unlock()
	}()
	// An entry this member could not write is not acknowledged on its word:
	// the proposer hears the error, and the entry commits only if a majority
	// of the others holds it (or a later write succeeds and carries it).
	if err := r.persist([]replog.Entry{*e}); err != nil {
		return nil, nil, fmt.Errorf("server: persist entry %d: %w", idx, err)
	}

	// Ship to the peers until a majority holds the entry. A freshly elected
	// leader may need several rounds per laggard (nextIndex backs off one
	// step per rejection), so this loops with a deadline rather than trying
	// each peer once.
	deadline := time.Now().Add(4 * r.cfg.ElectionTimeout)
	for {
		for _, p := range r.peers {
			r.mu.Lock()
			behind := p.matchIndex < idx
			r.mu.Unlock()
			if behind {
				r.replicateTo(p)
			}
		}
		r.advanceCommit()
		if r.log.Commit() >= idx {
			break
		}
		r.mu.Lock()
		stillLeader := r.role == roleLeader
		r.mu.Unlock()
		if !stillLeader {
			return nil, nil, &ErrNotLeader{LeaderClient: r.LeaderClient()}
		}
		if time.Now().After(deadline) {
			return nil, nil, ErrNoQuorum
		}
		time.Sleep(2 * time.Millisecond)
	}
	r.applyCommitted()
	r.outMu.Lock()
	out, ok := r.outcomes[idx]
	r.outMu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("server: entry %d applied without outcome", idx)
	}
	return out.res, out.sn, out.err
}

// persist writes entries the in-memory log just took to the store (no store:
// nothing to do). It appends when the file holds exactly what precedes them
// and rewrites the whole tail otherwise — a follower that truncated a
// conflicting suffix, or any member whose last write failed — so a failed
// write never leaves a gap or a torn line behind a later success.
func (r *Replica) persist(fresh []replog.Entry) error {
	if r.store == nil || len(fresh) == 0 {
		return nil
	}
	r.mu.Lock()
	inOrder := !r.storeTorn && fresh[0].Index == r.durable+1
	r.mu.Unlock()
	var err error
	if inOrder {
		err = r.store.AppendEntries(fresh)
	} else {
		var tail []replog.Entry
		if tail, err = r.log.EntriesFrom(r.log.Snapshot().Index + 1); err == nil {
			err = r.store.RewriteLog(tail)
		}
	}
	r.mu.Lock()
	r.storeTorn = err != nil
	if err == nil {
		r.durable = fresh[len(fresh)-1].Index
	}
	r.mu.Unlock()
	return err
}

// Advance replicates a re-harmonization entry stamped at virtual time now
// (clamped monotone against the log), driving the cluster's clock: every
// replica — leader included — advances by applying the entry, so time moves
// identically everywhere and due scheduled work fires on-log. This is how a
// replicated daemon maps wall time onto the cluster's virtual time; callers
// on a follower get *ErrNotLeader.
func (r *Replica) Advance(now time.Duration) error {
	_, _, err := r.Propose(&replog.Entry{Op: replog.OpReevaluate, Time: now})
	return err
}

// broadcastAppend ships pending entries (or empty heartbeats) to all peers.
func (r *Replica) broadcastAppend() {
	var wg sync.WaitGroup
	for _, p := range r.peers {
		wg.Add(1)
		go func(p *peerState) {
			defer wg.Done()
			r.replicateTo(p)
		}(p)
	}
	wg.Wait()
	r.advanceCommit()
	r.applyCommitted()
}

// replicateTo brings one peer up to date: an append from its nextIndex, or
// a snapshot install when the log has been compacted past it.
func (r *Replica) replicateTo(p *peerState) {
	r.mu.Lock()
	if r.role != roleLeader {
		r.mu.Unlock()
		return
	}
	term := r.term
	next := p.nextIndex
	if next == 0 {
		next = 1
	}
	r.mu.Unlock()

	entries, err := r.log.EntriesFrom(next)
	if errors.Is(err, replog.ErrCompacted) {
		r.installSnapshotOn(p, term)
		return
	}
	prevIndex := next - 1
	prevTerm, err := r.log.Term(prevIndex)
	if err != nil {
		r.installSnapshotOn(p, term)
		return
	}
	reply, err := r.rpc(p, &protocol.Message{
		Type:        protocol.TypeAppendEntries,
		Term:        term,
		From:        r.cfg.ID,
		Leader:      r.cfg.ClientAddr,
		PrevIndex:   prevIndex,
		PrevTerm:    prevTerm,
		Entries:     entries,
		CommitIndex: r.log.Commit(),
	})
	if err != nil {
		return
	}
	r.observeTerm(reply.Term, "")
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.role != roleLeader || r.term != term {
		return
	}
	if reply.Success {
		match := prevIndex + uint64(len(entries))
		if match > p.matchIndex {
			p.matchIndex = match
		}
		p.nextIndex = match + 1
	} else if p.nextIndex > 1 {
		// Consistency miss: back off (one step at a time is plenty at this
		// scale) and let the next round retry.
		p.nextIndex--
	}
}

// installSnapshotOn replaces a lagging peer's state wholesale.
func (r *Replica) installSnapshotOn(p *peerState, term uint64) {
	snap := r.log.Snapshot()
	if snap.Index == 0 {
		return
	}
	reply, err := r.rpc(p, &protocol.Message{
		Type:      protocol.TypeInstallSnapshot,
		Term:      term,
		From:      r.cfg.ID,
		Leader:    r.cfg.ClientAddr,
		LastIndex: snap.Index,
		LastTerm:  snap.Term,
		Snapshot:  &snap,
	})
	if err != nil {
		return
	}
	r.observeTerm(reply.Term, "")
	if !reply.Success {
		return
	}
	r.mu.Lock()
	if r.role == roleLeader && r.term == term {
		if snap.Index > p.matchIndex {
			p.matchIndex = snap.Index
		}
		p.nextIndex = snap.Index + 1
	}
	r.mu.Unlock()
}

// advanceCommit raises the commit point to the highest index replicated on
// a majority, restricted to current-term entries (the Raft commit rule).
func (r *Replica) advanceCommit() {
	r.mu.Lock()
	if r.role != roleLeader {
		r.mu.Unlock()
		return
	}
	term := r.term
	last := r.log.LastIndex()
	commit := r.log.Commit()
	candidate := commit
	for idx := last; idx > commit; idx-- {
		count := 0
		if r.store == nil || r.durable >= idx {
			count = 1 // self
		}
		for _, p := range r.peers {
			if p.matchIndex >= idx {
				count++
			}
		}
		if count >= r.majority() {
			if t, err := r.log.Term(idx); err == nil && t == term {
				candidate = idx
			}
			break
		}
	}
	r.mu.Unlock()
	if candidate > commit {
		r.log.SetCommit(candidate)
	}
}

// ---------------------------------------------------------------------------
// State-machine application (both roles)

// applyCommitted applies every committed-but-unapplied entry in order.
func (r *Replica) applyCommitted() {
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	commit := r.log.Commit()
	for idx := r.lastApplied + 1; idx <= commit; idx++ {
		e, err := r.log.Entry(idx)
		if err != nil {
			r.cfg.Logf("harmony: replica %s: apply: entry %d: %v", r.cfg.ID, idx, err)
			return
		}
		out := r.applyEntry(&e)
		r.lastApplied = idx
		r.appliedSince++
		r.outMu.Lock()
		if r.interested[idx] {
			r.outcomes[idx] = out
		}
		r.outMu.Unlock()
	}
	if r.cfg.SnapshotEvery > 0 && r.appliedSince >= r.cfg.SnapshotEvery {
		r.takeSnapshotLocked()
	}
}

// applyEntry executes one entry against the controller and session table.
// Everything here must be deterministic — the replaydeterminism analyzer
// (internal/lint) enforces no clocks, no randomness and no map-iteration-
// order-dependent writes on this path.
func (r *Replica) applyEntry(e *replog.Entry) applyOutcome {
	switch e.Op {
	case replog.OpSessionStart:
		return applyOutcome{err: r.sessions.start(e.Token, e.AppID)}
	case replog.OpSessionVar:
		v := protocol.VarValue{Num: e.NumValue, Str: e.StrValue, IsString: e.IsString}
		return applyOutcome{err: r.sessions.setVar(e.Token, e.Name, v)}
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
			if _, err := r.ctrl.Apply(&sub); err != nil {
				r.cfg.Logf("harmony: replica %s: expire %s: unregister %d: %v", r.cfg.ID, e.Token, inst, err)
			}
			r.clearPending(inst)
		}
		return applyOutcome{}
	case replog.OpRegister:
		res, err := r.ctrl.Apply(e)
		if err == nil && e.Token != "" {
			r.sessions.bind(e.Token, res.Instance)
		}
		return applyOutcome{res: res, err: err}
	case replog.OpUnregister:
		res, err := r.ctrl.Apply(e)
		if err == nil {
			r.sessions.unbindInstance(e.Instance)
			r.clearPending(e.Instance)
		}
		return applyOutcome{res: res, err: err}
	default:
		res, err := r.ctrl.Apply(e)
		return applyOutcome{res: res, err: err}
	}
}

// clearPending drops the attached server's buffered updates for a gone
// instance (followers have no connection to consume them).
func (r *Replica) clearPending(instance int) {
	r.mu.Lock()
	srv := r.srv
	r.mu.Unlock()
	if srv == nil {
		return
	}
	srv.mu.Lock()
	delete(srv.pending, instance)
	srv.mu.Unlock()
}

// snapshotPayload is the serialized state machine: controller + sessions.
type snapshotPayload struct {
	Controller *core.PersistedState `json:"controller"`
	Sessions   []sessionRecord      `json:"sessions,omitempty"`
}

// takeSnapshotLocked folds the applied prefix into a snapshot (applyMu held).
func (r *Replica) takeSnapshotLocked() {
	last, err := r.log.Entry(r.lastApplied)
	if err != nil {
		return
	}
	snap := replog.Snapshot{Index: last.Index, Term: last.Term, Time: last.Time}
	if r.store == nil && len(r.peers) == 0 {
		// Nobody to ship state to and nothing to recover: the applied entries
		// are simply dropped, and the controller is never serialized.
		r.log.CompactTo(snap)
		r.appliedSince = 0
		return
	}
	st, err := r.ctrl.State()
	if err != nil {
		r.cfg.Logf("harmony: replica %s: snapshot: %v", r.cfg.ID, err)
		return
	}
	snap.Time = st.Now
	snap.Data, err = json.Marshal(&snapshotPayload{Controller: st, Sessions: r.sessions.snapshot()})
	if err != nil {
		r.cfg.Logf("harmony: replica %s: snapshot: %v", r.cfg.ID, err)
		return
	}
	r.log.CompactTo(snap)
	r.appliedSince = 0
	r.snapTakenAt = time.Now()
	if r.store != nil {
		tail, err := r.log.EntriesFrom(snap.Index + 1)
		if err != nil {
			tail = nil
		}
		if err := r.store.SaveSnapshot(snap, tail); err != nil {
			r.cfg.Logf("harmony: replica %s: persist snapshot: %v", r.cfg.ID, err)
		}
	}
	r.cfg.Logf("harmony: replica %s: snapshot@%d (%d bytes)", r.cfg.ID, snap.Index, len(snap.Data))
}

// installState replaces the controller and session table from a snapshot.
func (r *Replica) installState(snap replog.Snapshot) error {
	var payload snapshotPayload
	if err := json.Unmarshal(snap.Data, &payload); err != nil {
		return fmt.Errorf("server: decode snapshot: %w", err)
	}
	if err := r.ctrl.Restore(payload.Controller); err != nil {
		return err
	}
	r.sessions.restore(payload.Sessions)
	r.applyMu.Lock()
	r.lastApplied = snap.Index
	r.appliedSince = 0
	r.snapTakenAt = time.Now()
	r.applyMu.Unlock()
	return nil
}

// ---------------------------------------------------------------------------
// Failover lease grace

// armGraceTimersAfterFailover gives every replicated session a fresh grace
// window on the new leader: clients that reconnect and resume cancel their
// timer; the rest expire and release their resources. The old leader died
// with the client connections, so every session not already resumed here is
// orphaned — it is parked (through the log) before its timer is armed.
func (r *Replica) armGraceTimersAfterFailover() {
	r.mu.Lock()
	srv := r.srv
	r.mu.Unlock()
	if srv == nil {
		return // no clients to wait for yet: attach arms the timers
	}
	for _, token := range r.sessions.tokens() {
		if srv.hasLiveSession(token) {
			continue // resumed before we got here
		}
		if rec, ok := r.sessions.get(token); ok && !rec.Parked {
			if _, _, err := r.Propose(&replog.Entry{Op: replog.OpSessionPark, Token: token}); err != nil {
				continue // lost leadership; the next leader re-arms
			}
		}
		r.armGraceTimer(token)
	}
}

// armGraceTimer schedules a session's expiry unless it resumes first.
func (r *Replica) armGraceTimer(token string) {
	grace := r.graceDuration()
	r.graceMu.Lock()
	defer r.graceMu.Unlock()
	if t, ok := r.graceTimers[token]; ok {
		t.Stop()
	}
	r.graceTimers[token] = time.AfterFunc(grace, func() { r.expireSession(token) })
}

// cancelGraceTimer stops a session's pending expiry (it resumed).
func (r *Replica) cancelGraceTimer(token string) {
	r.graceMu.Lock()
	defer r.graceMu.Unlock()
	if t, ok := r.graceTimers[token]; ok {
		t.Stop()
		delete(r.graceTimers, token)
	}
}

// cancelGraceTimers drops every pending expiry (step-down: the new leader
// owns the grace windows now; or shutdown).
func (r *Replica) cancelGraceTimers() {
	r.graceMu.Lock()
	defer r.graceMu.Unlock()
	for tok, t := range r.graceTimers {
		t.Stop()
		delete(r.graceTimers, tok)
	}
}

// graceDuration is the attached server's lease grace; a deployment without
// one still gives failed-over sessions failoverGraceFloor.
func (r *Replica) graceDuration() time.Duration {
	r.mu.Lock()
	srv := r.srv
	r.mu.Unlock()
	if srv != nil && srv.cfg.LeaseGrace > 0 {
		return srv.cfg.LeaseGrace
	}
	return failoverGraceFloor
}

// expireSession proposes the replicated end of a lapsed session.
func (r *Replica) expireSession(token string) {
	r.graceMu.Lock()
	delete(r.graceTimers, token)
	r.graceMu.Unlock()
	rec, ok := r.sessions.get(token)
	if !ok || !rec.Parked {
		return
	}
	r.mu.Lock()
	srv := r.srv
	r.mu.Unlock()
	if srv != nil && srv.hasLiveSession(token) {
		return // resumed while the park raced the timer
	}
	r.cfg.Logf("harmony: replica %s: session %.8s grace expired", r.cfg.ID, token)
	if _, _, err := r.Propose(&replog.Entry{Op: replog.OpSessionExpire, Token: token}); err != nil {
		r.cfg.Logf("harmony: replica %s: expire %.8s: %v", r.cfg.ID, token, err)
	}
}

// ---------------------------------------------------------------------------
// Peer transport

// rpc performs one synchronous request/reply exchange with a peer.
func (r *Replica) rpc(p *peerState, msg *protocol.Message) (*protocol.Message, error) {
	p.connMu.Lock()
	defer p.connMu.Unlock()
	deadline := r.cfg.ElectionTimeout / 2
	if deadline < 50*time.Millisecond {
		deadline = 50 * time.Millisecond
	}
	if p.conn == nil {
		conn, err := net.DialTimeout("tcp", p.addr, deadline)
		if err != nil {
			return nil, err
		}
		p.conn = conn
		p.writer = protocol.NewWriter(conn)
		p.reader = protocol.NewReader(conn)
	}
	p.seq++
	msg.Seq = p.seq
	_ = p.conn.SetDeadline(time.Now().Add(deadline))
	if err := p.writer.Write(msg); err != nil {
		_ = p.conn.Close()
		p.conn = nil
		return nil, err
	}
	for {
		reply, err := p.reader.Read()
		if err != nil {
			_ = p.conn.Close()
			p.conn = nil
			return nil, err
		}
		if reply.Seq == msg.Seq {
			return reply, nil
		}
		// Stale reply from a timed-out earlier exchange: skip it.
	}
}

// acceptPeers serves inbound replication traffic.
func (r *Replica) acceptPeers() {
	defer r.wg.Done()
	for {
		nc, err := r.listener.Accept()
		if err != nil {
			return
		}
		r.inMu.Lock()
		r.inConns[nc] = struct{}{}
		r.inMu.Unlock()
		r.wg.Add(1)
		go func(nc net.Conn) {
			defer r.wg.Done()
			defer func() {
				r.inMu.Lock()
				delete(r.inConns, nc)
				r.inMu.Unlock()
				_ = nc.Close()
			}()
			reader := protocol.NewReader(nc)
			writer := protocol.NewWriter(nc)
			for {
				msg, err := reader.Read()
				if err != nil {
					return
				}
				reply := r.handlePeer(msg)
				reply.Seq = msg.Seq
				if err := writer.Write(reply); err != nil {
					return
				}
			}
		}(nc)
	}
}

// handlePeer dispatches one replication message.
func (r *Replica) handlePeer(msg *protocol.Message) *protocol.Message {
	switch msg.Type {
	case protocol.TypeVoteRequest:
		return r.handleVoteRequest(msg)
	case protocol.TypeAppendEntries:
		return r.handleAppendEntries(msg)
	case protocol.TypeInstallSnapshot:
		return r.handleInstallSnapshot(msg)
	case protocol.TypeClusterStatus:
		st := r.Status()
		return &protocol.Message{Type: protocol.TypeClusterStatusReply, Replica: &st}
	default:
		return errReply("unknown replication message type %q", msg.Type)
	}
}

func (r *Replica) handleVoteRequest(msg *protocol.Message) *protocol.Message {
	r.observeTerm(msg.Term, "")
	r.mu.Lock()
	defer r.mu.Unlock()
	reply := &protocol.Message{Type: protocol.TypeVoteReply, Term: r.term, From: r.cfg.ID}
	if msg.Term < r.term {
		return reply
	}
	upToDate := msg.LastTerm > r.log.LastTerm() ||
		(msg.LastTerm == r.log.LastTerm() && msg.LastIndex >= r.log.LastIndex())
	if (r.votedFor == "" || r.votedFor == msg.From) && upToDate {
		r.votedFor = msg.From
		r.electionReset = time.Now()
		r.persistHardStateLocked()
		reply.Granted = true
	}
	return reply
}

func (r *Replica) handleAppendEntries(msg *protocol.Message) *protocol.Message {
	r.observeTerm(msg.Term, msg.From)
	r.mu.Lock()
	if msg.Term < r.term {
		reply := &protocol.Message{Type: protocol.TypeAppendReply, Term: r.term, From: r.cfg.ID}
		r.mu.Unlock()
		return reply
	}
	// A current-term append is the leader speaking: follow it.
	if r.role != roleFollower {
		r.role = roleFollower
	}
	r.leaderID = msg.From
	if msg.Leader != "" {
		r.leaderClient = msg.Leader
	}
	r.electionReset = time.Now()
	term := r.term
	r.mu.Unlock()

	reply := &protocol.Message{Type: protocol.TypeAppendReply, Term: term, From: r.cfg.ID}
	if !r.log.TryAppend(msg.PrevIndex, msg.PrevTerm, msg.Entries) {
		return reply
	}
	// The leader counts a success as a copy on disk; after a failed write it
	// backs off and sends again, and persist then rewrites the tail.
	if err := r.persist(msg.Entries); err != nil {
		r.cfg.Logf("harmony: replica %s: persist append: %v", r.cfg.ID, err)
		return reply
	}
	reply.Success = true
	reply.MatchIndex = msg.PrevIndex + uint64(len(msg.Entries))
	r.log.SetCommit(msg.CommitIndex)
	r.applyCommitted()
	return reply
}

func (r *Replica) handleInstallSnapshot(msg *protocol.Message) *protocol.Message {
	r.observeTerm(msg.Term, msg.From)
	r.mu.Lock()
	if msg.Term < r.term || msg.Snapshot == nil {
		reply := &protocol.Message{Type: protocol.TypeAppendReply, Term: r.term, From: r.cfg.ID}
		r.mu.Unlock()
		return reply
	}
	r.leaderID = msg.From
	if msg.Leader != "" {
		r.leaderClient = msg.Leader
	}
	r.electionReset = time.Now()
	term := r.term
	r.mu.Unlock()

	snap := *msg.Snapshot
	if snap.Index <= r.log.Snapshot().Index {
		// Already have it.
		return &protocol.Message{Type: protocol.TypeAppendReply, Term: term, From: r.cfg.ID, Success: true, MatchIndex: r.log.Snapshot().Index}
	}
	if err := r.installState(snap); err != nil {
		r.cfg.Logf("harmony: replica %s: install snapshot@%d: %v", r.cfg.ID, snap.Index, err)
		return &protocol.Message{Type: protocol.TypeAppendReply, Term: term, From: r.cfg.ID}
	}
	r.log.CompactTo(snap)
	if r.store != nil {
		if err := r.store.SaveSnapshot(snap, nil); err != nil {
			r.cfg.Logf("harmony: replica %s: persist snapshot: %v", r.cfg.ID, err)
		} else {
			r.mu.Lock()
			r.durable = snap.Index
			r.mu.Unlock()
		}
	}
	r.cfg.Logf("harmony: replica %s: installed snapshot@%d from %s", r.cfg.ID, snap.Index, msg.From)
	return &protocol.Message{Type: protocol.TypeAppendReply, Term: term, From: r.cfg.ID, Success: true, MatchIndex: snap.Index}
}
