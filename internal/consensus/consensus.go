// Package consensus is the replication protocol as a pure step function: a
// minimal term-based election and log-shipping core (the Raft recipe reduced
// to this system's needs) with no goroutine, lock, socket, file or clock of
// its own. What happens to a member — a tick, a peer's message, a reply, a
// proposal, the outcome of a disk write — is an Input handed to Step with the
// current time; what the member must then do comes back as a Ready. The
// owner (internal/server.Replica) does the I/O; tests drive it with values.
package consensus

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"harmony/internal/protocol"
	"harmony/internal/replog"
)

// Roles, as they appear in protocol.ReplicaStatus.
const (
	Follower  = "follower"
	Candidate = "candidate"
	Leader    = "leader"
)

// ErrNotLeader fails a proposal made to, or pending on, a member that does
// not lead; LeaderClient is the last known leader's client address ("" when
// unknown), for redirects.
type ErrNotLeader struct{ LeaderClient string }

// Error implements error; the string starts with protocol.ErrNotLeader so
// clients can classify it.
func (e *ErrNotLeader) Error() string {
	if e.LeaderClient == "" {
		return protocol.ErrNotLeader + ": this replica is not the leader"
	}
	return fmt.Sprintf("%s: leader is at %s", protocol.ErrNotLeader, e.LeaderClient)
}

// ErrNoQuorum fails a proposal that no majority held within four election
// timeouts. The entry stays in the log and may still commit later.
var ErrNoQuorum = errors.New("server: proposal did not reach a quorum")

// Kind discriminates an Input.
type Kind int

// The inputs of Step.
const (
	Tick      Kind = iota // time passed: elections, heartbeats, proposal deadlines, grace windows
	PeerMsg               // Msg is another member's request; the Ready has the Reply
	PeerReply             // Msg is peer From's answer to the request in flight to it (nil: none came)
	Propose               // append Entry; the Ready has the Index it took, or the refusal in Err
	// Saved reports that what the previous Ready wanted saved is on disk, or
	// with Err that it may not be. It follows every Ready whose MustSave is
	// true, before any other input.
	Saved
	Grace // open Token's grace window of After on a leader; After 0 closes it
)

// Input is one thing that happened to the member.
type Input struct {
	Kind  Kind
	From  string
	Msg   *protocol.Message
	Entry *replog.Entry
	Err   error
	Token string
	After time.Duration
}

// Outbound is a request for the peer at address To.
type Outbound struct {
	To  string
	Msg *protocol.Message
}

// Failure ends the proposal waiting at Index with Err.
type Failure struct {
	Index uint64
	Err   error
}

// Ready is what one Step asks of the owner, in this order: send Msgs; install
// Snapshot; save HardState and Entries; send Reply; apply through Commit;
// release the proposers; answer Saved. Requests leave before the save and
// replies after it: a request vouches for no write of its sender's, so a
// leader's write runs while its entries cross to the followers and they write
// theirs, and the leader's own copy counts toward a quorum only once Saved
// has confirmed it. A candidate's vote requests come only in the Ready that
// answers the Saved of its term, which has nothing to save.
type Ready struct {
	HardState *replog.HardState // when set, saved before anything below is acted on
	// Entries were just taken into the log and belong at the end of the
	// file; with Rewrite the file's tail cannot be trusted to precede them,
	// and snapshot and tail are written anew instead.
	Entries  []replog.Entry
	Rewrite  bool
	Snapshot *replog.Snapshot  // a leader's install: replaces the state machine and the log
	Msgs     []Outbound        // for peers; they promise nothing, whatever becomes of the save, and leave first
	Reply    *protocol.Message // answers this Step's PeerMsg; what it grants vouches for the save
	Commit   uint64            // the log's commit point
	Index    uint64            // the index this Step's proposal took, or
	Err      error             // why it took none
	Failed   []Failure         // pending proposals that no apply will answer
	Due      []string          // grace tokens whose window closed, sorted

	BecameLeader, SteppedDown bool
}

// MustSave reports whether the owner has something to write, and so owes the
// core a Saved.
func (rd *Ready) MustSave() bool {
	return rd.HardState != nil || rd.Rewrite || len(rd.Entries) > 0
}

// DropPromises withdraws what the Ready vouched for on the strength of a save
// that failed: no vote is granted, no append or install acknowledged.
func (rd *Ready) DropPromises() {
	if rd.Reply != nil {
		rd.Reply.Granted, rd.Reply.Success, rd.Reply.MatchIndex = false, false, 0
	}
}

// Config parameterizes a Core: ID names the member in votes, ClientAddr is
// where it tells followers to redirect clients, Peers are the other members'
// addresses. The follower timeout is drawn per round from Rand in [T, 2T) for
// T = ElectionTimeout; the leader's idle append cadence is T/4.
type Config struct {
	ID, ClientAddr  string
	Peers           []string
	ElectionTimeout time.Duration
	Rand            *rand.Rand
}

type peer struct {
	addr        string
	next, match uint64
	told        uint64            // the commit point the last append carried
	inflight    *protocol.Message // the request awaiting its PeerReply: one at a time
	sent        time.Time
	granted     bool
}

type proposal struct {
	index    uint64
	deadline time.Time
}

// Core is one member's consensus state, owned by exactly one goroutine.
type Core struct {
	cfg   Config
	log   *replog.Log
	peers []*peer

	role, votedFor, leaderClient string
	term                         uint64
	// saved is the hard state the store last confirmed; asked that this
	// term's vote requests went out, which waits for the term to be saved.
	saved replog.HardState
	asked bool
	// durable is the highest index the store holds; torn that its last write
	// failed, perhaps part-way; staged that the Ready just returned carries a
	// log write, so that its Saved speaks of the log.
	durable      uint64
	torn, staged bool

	electionDeadline time.Time
	pending          []proposal // by index
	grace            map[string]time.Time
}

// New returns a follower over log (already restored from disk, as hs was). A
// crash can leave half an entry at the end of the file, so the first write
// rewrites the tail. A member without peers stands on its first tick.
func New(cfg Config, log *replog.Log, hs replog.HardState, now time.Time) *Core {
	c := &Core{
		cfg: cfg, log: log, role: Follower, term: hs.Term, votedFor: hs.VotedFor, saved: hs,
		durable: log.LastIndex(), torn: true, grace: make(map[string]time.Time),
	}
	for _, addr := range cfg.Peers {
		c.peers = append(c.peers, &peer{addr: addr})
	}
	c.resetElection(now)
	return c
}

// State reports the role, the term and the last known leader's client address.
func (c *Core) State() (role string, term uint64, leaderClient string) {
	return c.role, c.term, c.leaderClient
}

func (c *Core) majority() int { return (len(c.peers)+1)/2 + 1 }

func (c *Core) resetElection(now time.Time) {
	t := c.cfg.ElectionTimeout
	c.electionDeadline = now.Add(t + time.Duration(c.cfg.Rand.Int63n(int64(t))))
}

// Step feeds one input to the member and returns what to do about it.
func (c *Core) Step(now time.Time, in Input) Ready {
	var rd Ready
	switch in.Kind {
	case Tick:
		c.tick(now, &rd)
	case PeerMsg:
		c.handleRequest(now, in.Msg, &rd)
	case PeerReply:
		c.handleReply(now, in.From, in.Msg, &rd)
	case Propose:
		c.propose(now, in.Entry, &rd)
	case Saved:
		if in.Err != nil {
			c.torn = c.torn || c.staged
			// An entry this member could not write is not acknowledged on its
			// word: the proposer hears the error, and the entry commits only if
			// a majority of the others holds it (or a later write carries it).
			c.failPending(&rd, func(p proposal) error {
				if p.index <= c.durable {
					return nil
				}
				return fmt.Errorf("server: persist entry %d: %w", p.index, in.Err)
			})
			break
		}
		if c.staged {
			c.durable, c.torn = c.log.LastIndex(), false
		}
		c.saved = replog.HardState{Term: c.term, VotedFor: c.votedFor}
		c.solicit(now, &rd)
		c.advanceCommit()
	case Grace:
		delete(c.grace, in.Token)
		if in.After > 0 && c.role == Leader {
			c.grace[in.Token] = now.Add(in.After)
		}
	}
	// Hard state the store has not confirmed rides in every Ready until it
	// has; the answer to a failed save is not the place to try again.
	if hs := (replog.HardState{Term: c.term, VotedFor: c.votedFor}); hs != c.saved && in.Err == nil {
		rd.HardState = &hs
	}
	c.staged = len(rd.Entries) > 0 || rd.Rewrite
	rd.Commit = c.log.Commit()
	c.failPending(&rd, func(proposal) error { return nil }) // forgets the committed
	return rd
}

// failPending forgets the proposals the commit point has passed, and those
// why gives an error for, which it reports in rd.
func (c *Core) failPending(rd *Ready, why func(proposal) error) {
	commit, kept := c.log.Commit(), c.pending[:0]
	for _, p := range c.pending {
		if p.index <= commit {
			continue
		}
		if err := why(p); err != nil {
			rd.Failed = append(rd.Failed, Failure{p.index, err})
		} else {
			kept = append(kept, p)
		}
	}
	c.pending = kept
}

func (c *Core) tick(now time.Time, rd *Ready) {
	for tok, at := range c.grace {
		if !now.Before(at) {
			rd.Due = append(rd.Due, tok)
			delete(c.grace, tok)
		}
	}
	sort.Strings(rd.Due)
	if c.role != Leader {
		// Stand for leader: term++, vote for self. The vote requests and the
		// member's own vote wait for the store to confirm the term (solicit):
		// a candidate that forgot its term in a crash could otherwise be
		// elected to it twice, over different logs.
		if len(c.peers) == 0 || !now.Before(c.electionDeadline) {
			c.term++
			c.role, c.votedFor, c.asked = Candidate, c.cfg.ID, false
			for _, p := range c.peers {
				p.granted = false
			}
			c.resetElection(now)
		}
		return
	}
	c.failPending(rd, func(p proposal) error {
		if now.Before(p.deadline) {
			return nil
		}
		return ErrNoQuorum
	})
	// An idle peer hears of a commit point it was not told at this tick,
	// not with the next proposal or heartbeat: a follower answers reads
	// from what it has applied. A proposal made before the tick carries the
	// commit point itself, so a busy leader sends no notice.
	for _, p := range c.peers {
		if p.inflight == nil && (p.told < c.log.Commit() || now.Sub(p.sent) >= c.cfg.ElectionTimeout/4) {
			c.sendAppend(now, p, rd)
		}
	}
}

// solicit runs when a save succeeded. A candidate whose term and own vote are
// now durable asks the peers — one whose slot is busy is passed over until
// the next round — and takes office once a majority, itself included, agrees.
func (c *Core) solicit(now time.Time, rd *Ready) {
	if c.role != Candidate || c.saved != (replog.HardState{Term: c.term, VotedFor: c.cfg.ID}) {
		return
	}
	votes := 1
	for _, p := range c.peers {
		if !c.asked && p.inflight == nil {
			c.send(now, p, rd, &protocol.Message{
				Type: protocol.TypeVoteRequest, Term: c.term, From: c.cfg.ID,
				LastIndex: c.log.LastIndex(), LastTerm: c.log.LastTerm(),
			})
		}
		if p.granted {
			votes++
		}
	}
	c.asked = true
	if votes >= c.majority() {
		c.role, c.leaderClient = Leader, c.cfg.ClientAddr
		for _, p := range c.peers {
			p.next, p.match = c.log.LastIndex()+1, 0
		}
		rd.BecameLeader = true
	}
}

// observe steps down when a higher term is seen anywhere.
func (c *Core) observe(now time.Time, term uint64, rd *Ready) {
	if term <= c.term {
		return
	}
	wasLeader := c.role == Leader
	c.term, c.role, c.votedFor = term, Follower, ""
	c.resetElection(now)
	if wasLeader {
		rd.SteppedDown = true
		clear(c.grace) // the new leader owns the grace windows now
		c.failPending(rd, func(proposal) error { return &ErrNotLeader{c.leaderClient} })
	}
}

func (c *Core) propose(now time.Time, e *replog.Entry, rd *Ready) {
	if c.role != Leader {
		rd.Err = &ErrNotLeader{c.leaderClient}
		return
	}
	entry := *e // its time clamped monotone, so replay never moves time backwards
	entry.Term, entry.Time = c.term, max(e.Time, c.log.LastTime())
	rd.Index = c.log.Append(&entry)
	c.pending = append(c.pending, proposal{rd.Index, now.Add(4 * c.cfg.ElectionTimeout)})
	c.stage(rd, []replog.Entry{entry})
	for _, p := range c.peers {
		if p.inflight == nil {
			c.sendAppend(now, p, rd)
		}
	}
}

// stage asks for fresh — entries the log just took — to be written: appended
// when the file holds exactly what precedes them, else (a follower truncated
// a conflicting suffix, the last write failed) as a rewrite of the whole
// tail, so that no gap or torn line is left behind a later success.
func (c *Core) stage(rd *Ready, fresh []replog.Entry) {
	if len(fresh) > 0 || c.durable < c.log.LastIndex() {
		rd.Entries = fresh
		rd.Rewrite = c.torn || len(fresh) == 0 || fresh[0].Index != c.durable+1
	}
}

func (c *Core) send(now time.Time, p *peer, rd *Ready, msg *protocol.Message) {
	p.inflight, p.sent = msg, now
	rd.Msgs = append(rd.Msgs, Outbound{p.addr, msg})
}

// sendAppend builds one message from one reading of the log: the entries
// from the peer's next index and the commit point as of now, or the snapshot
// when the log has been compacted past it.
func (c *Core) sendAppend(now time.Time, p *peer, rd *Ready) {
	next := max(p.next, 1)
	msg := &protocol.Message{Type: protocol.TypeAppendEntries, Term: c.term, From: c.cfg.ID, Leader: c.cfg.ClientAddr}
	entries, err := c.log.EntriesFrom(next)
	prevTerm, terr := c.log.Term(next - 1)
	if err == nil && terr == nil {
		msg.PrevIndex, msg.PrevTerm, msg.Entries, msg.CommitIndex = next-1, prevTerm, entries, c.log.Commit()
		p.told = msg.CommitIndex
	} else if snap := c.log.Snapshot(); snap.Index > 0 {
		msg.Type, msg.LastIndex, msg.LastTerm, msg.Snapshot = protocol.TypeInstallSnapshot, snap.Index, snap.Term, &snap
	} else {
		return
	}
	c.send(now, p, rd, msg)
}

// handleReply takes the answer (nil: none came) to the request in flight to
// the peer at from, and sends the next at once while that makes progress: the
// peer is still behind, or missed and can back off. Else the tick will.
func (c *Core) handleReply(now time.Time, from string, reply *protocol.Message, rd *Ready) {
	var p *peer
	for _, q := range c.peers {
		if q.addr == from {
			p = q
		}
	}
	if p == nil || p.inflight == nil {
		return
	}
	req := p.inflight
	p.inflight = nil
	if reply == nil {
		return
	}
	c.observe(now, reply.Term, rd)
	switch {
	case req.Term != c.term:
		return
	case req.Type == protocol.TypeVoteRequest:
		p.granted = p.granted || reply.Granted
		c.solicit(now, rd)
	case c.role != Leader:
		return
	case reply.Success:
		match := req.PrevIndex + uint64(len(req.Entries))
		if req.Snapshot != nil {
			match = req.Snapshot.Index
		}
		p.match, p.next = max(p.match, match), match+1
		c.advanceCommit()
	case req.Type == protocol.TypeAppendEntries && p.next > 1:
		p.next-- // consistency miss: one step back at a time is plenty here
	default:
		return
	}
	if c.role == Leader && p.match < c.log.LastIndex() {
		c.sendAppend(now, p, rd)
	}
}

// advanceCommit raises the commit point to the highest index held by a
// majority — this member counting only what its store confirmed — if that is
// an entry of the current term (the Raft commit rule).
func (c *Core) advanceCommit() {
	held := []uint64{c.durable}
	for _, p := range c.peers {
		held = append(held, p.match)
	}
	sort.Slice(held, func(i, j int) bool { return held[i] > held[j] })
	idx := held[c.majority()-1]
	if t, err := c.log.Term(idx); c.role == Leader && err == nil && t == c.term {
		c.log.SetCommit(idx)
	}
}

// handleRequest answers a peer's request. A reply that grants or acknowledges
// rides in a Ready that also carries the save it depends on.
func (c *Core) handleRequest(now time.Time, msg *protocol.Message, rd *Ready) {
	c.observe(now, msg.Term, rd)
	rd.Reply = &protocol.Message{Type: protocol.TypeAppendReply, Term: c.term, From: c.cfg.ID}
	if msg.Type == protocol.TypeVoteRequest {
		rd.Reply.Type = protocol.TypeVoteReply
		upToDate := msg.LastTerm > c.log.LastTerm() ||
			(msg.LastTerm == c.log.LastTerm() && msg.LastIndex >= c.log.LastIndex())
		if msg.Term == c.term && (c.votedFor == "" || c.votedFor == msg.From) && upToDate {
			c.votedFor = msg.From
			c.resetElection(now)
			rd.Reply.Granted = true
		}
		return
	}
	if msg.Term < c.term || (msg.Type == protocol.TypeInstallSnapshot && msg.Snapshot == nil) {
		return
	}
	// A current-term append or install is the leader speaking: follow it.
	c.role = Follower
	if msg.Leader != "" {
		c.leaderClient = msg.Leader
	}
	c.resetElection(now)
	if msg.Type == protocol.TypeInstallSnapshot {
		rd.Reply.Success, rd.Reply.MatchIndex = true, msg.Snapshot.Index
		if have := c.log.Snapshot().Index; msg.Snapshot.Index <= have {
			rd.Reply.MatchIndex = have // already here; written again if the file lags
			c.stage(rd, nil)
		} else {
			rd.Snapshot, rd.Rewrite = msg.Snapshot, true
		}
		return
	}
	if !c.log.TryAppend(msg.PrevIndex, msg.PrevTerm, msg.Entries) {
		return
	}
	rd.Reply.Success, rd.Reply.MatchIndex = true, msg.PrevIndex+uint64(len(msg.Entries))
	c.stage(rd, msg.Entries)
	// Only what this message vouches for is known to match the leader's log:
	// a stale suffix beyond it must not commit on the leader's commit index.
	c.log.SetCommit(min(msg.CommitIndex, rd.Reply.MatchIndex))
}
