package consensus

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"harmony/internal/protocol"
	"harmony/internal/replog"
)

// A step-level schedule test: three cores wired through an in-memory message
// slice and a hand-advanced clock. A seeded rand delivers, drops, duplicates
// and reorders messages, times exchanges out, fails writes and compacts logs;
// the safety properties are asserted after every step. No sockets, no sleeps.

// packet is a request on its way to a member, or a reply on its way back;
// seq pairs a reply with the exchange it answers, as the transport does.
type packet struct {
	from, to string
	seq      uint64
	msg      *protocol.Message
	reply    bool
}

type simMember struct {
	id   string
	core *Core
	log  *replog.Log
	// out is the exchange in flight to each peer (0: none).
	out map[string]uint64
	// waiting mirrors the proposers: accepted proposals not yet answered.
	waiting map[uint64]bool
	commit  uint64
	// disk is what the member's store holds: a snapshot index and the
	// entries' terms by index, as of the last write that succeeded.
	diskSnap uint64
	disk     map[uint64]uint64
}

type sim struct {
	t       *testing.T
	rng     *rand.Rand
	now     time.Time
	members []*simMember
	net     []packet
	seq     uint64
	// failWrites is the chance, in percent, that a write fails.
	failWrites int
	leaderOf   map[uint64]string       // term -> the member that led it
	committed  map[uint64]replog.Entry // index -> the entry first committed there
	proposals  int
	installs   int
	// touched holds the members stepped since the last check: only their
	// state can have changed.
	touched map[*simMember]bool
}

func newSim(t *testing.T, seed int64) *sim {
	s := &sim{
		t: t, rng: rand.New(rand.NewSource(seed)), now: t0, failWrites: 5,
		leaderOf: make(map[uint64]string), committed: make(map[uint64]replog.Entry),
		touched: make(map[*simMember]bool),
	}
	ids := []string{"a", "b", "c"}
	for i, id := range ids {
		var peers []string
		for _, other := range ids {
			if other != id {
				peers = append(peers, other)
			}
		}
		log := replog.NewLog()
		cfg := Config{ID: id, ClientAddr: "client-" + id, Peers: peers, ElectionTimeout: electionT, Rand: rand.New(rand.NewSource(seed*7 + int64(i)))}
		s.members = append(s.members, &simMember{
			id: id, core: New(cfg, log, replog.HardState{}, s.now), log: log,
			out: make(map[string]uint64), waiting: make(map[uint64]bool), disk: make(map[uint64]uint64),
		})
	}
	return s
}

func (s *sim) member(id string) *simMember {
	for _, m := range s.members {
		if m.id == id {
			return m
		}
	}
	s.t.Fatalf("no member %q", id)
	return nil
}

// feed steps m and carries the Ready out the way the owner must: write, tell
// the core how the write went, and only then let a promise leave.
func (s *sim) feed(m *simMember, in Input, replyTo *packet) {
	s.touched[m] = true
	rd := m.core.Step(s.now, in)
	var after *Ready
	if rd.MustSave() {
		if rd.Snapshot != nil {
			m.log.CompactTo(*rd.Snapshot)
		}
		next := Input{Kind: Saved}
		if s.rng.Intn(100) < s.failWrites {
			rd.DropPromises()
			next = Input{Kind: Saved, Err: errDisk}
		} else {
			s.write(m, &rd)
		}
		second := m.core.Step(s.now, next)
		if second.MustSave() {
			s.t.Fatalf("%s: the answer to a save wants another save: %+v", m.id, second)
		}
		after = &second
	}
	for _, part := range []*Ready{&rd, after} {
		if part == nil {
			continue
		}
		if part.Index > 0 {
			m.waiting[part.Index] = true
		}
		for _, f := range part.Failed {
			if !m.waiting[f.Index] {
				s.t.Fatalf("%s: proposal %d failed (%v) but was not waiting: answered twice", m.id, f.Index, f.Err)
			}
			delete(m.waiting, f.Index)
		}
		for _, o := range part.Msgs {
			if m.out[o.To] != 0 {
				s.t.Fatalf("%s: a second request to %s while one is in flight", m.id, o.To)
			}
			s.seq++
			m.out[o.To] = s.seq
			s.net = append(s.net, packet{from: m.id, to: o.To, seq: s.seq, msg: o.Msg})
		}
	}
	if replyTo != nil {
		if rd.Reply == nil {
			s.t.Fatalf("%s: no reply to %+v", m.id, replyTo.msg)
		}
		s.net = append(s.net, packet{from: m.id, to: replyTo.from, seq: replyTo.seq, msg: rd.Reply, reply: true})
	}
}

var errDisk = errors.New("disk")

// write carries out a save the way the store does: entries are appended to
// what the disk holds, which must be exactly what precedes them, unless the
// Ready (nil: the member's own compaction) has the whole log written anew.
func (s *sim) write(m *simMember, rd *Ready) {
	if rd != nil && !rd.Rewrite {
		last := m.diskSnap
		for idx := range m.disk {
			last = max(last, idx)
		}
		for _, e := range rd.Entries {
			if e.Index != last+1 {
				s.t.Fatalf("%s: entry %d appended to a file ending at %d", m.id, e.Index, last)
			}
			m.disk[e.Index], last = e.Term, e.Index
		}
		return
	}
	if rd != nil && rd.Snapshot != nil {
		s.installs++
	}
	m.diskSnap = m.log.Snapshot().Index
	clear(m.disk)
	tail, err := m.log.EntriesFrom(m.diskSnap + 1)
	if err != nil {
		s.t.Fatal(err)
	}
	for _, e := range tail {
		m.disk[e.Index] = e.Term
	}
}

// deliver hands packet i to its addressee. A reply counts only while its
// exchange is still the one in flight (the transport skips stale replies).
func (s *sim) deliver(i int) {
	p := s.net[i]
	s.net = append(s.net[:i], s.net[i+1:]...)
	m := s.member(p.to)
	if !p.reply {
		s.feed(m, Input{Kind: PeerMsg, Msg: p.msg}, &p)
	} else if m.out[p.from] == p.seq {
		m.out[p.from] = 0
		s.feed(m, Input{Kind: PeerReply, From: p.from, Msg: p.msg}, nil)
	}
}

// timeout ends the exchange m has in flight to peer without an answer;
// whatever of it is still in the network stays there and arrives stale.
func (s *sim) timeout(m *simMember, peer string) {
	if m.out[peer] != 0 {
		m.out[peer] = 0
		s.feed(m, Input{Kind: PeerReply, From: peer}, nil)
	}
}

// step does one random thing to the cluster.
func (s *sim) step() {
	m := s.members[s.rng.Intn(len(s.members))]
	switch r := s.rng.Intn(100); {
	case r < 30:
		s.now = s.now.Add(time.Duration(s.rng.Intn(30)) * time.Millisecond)
		s.feed(m, Input{Kind: Tick}, nil)
	case r < 70 && len(s.net) > 0:
		s.deliver(s.rng.Intn(len(s.net))) // any packet: reordering
	case r < 75 && len(s.net) > 0:
		i := s.rng.Intn(len(s.net)) // a packet is lost; its exchange times out
		p := s.net[i]
		s.net = append(s.net[:i], s.net[i+1:]...)
		if p.reply {
			s.timeout(s.member(p.to), p.from)
		} else {
			s.timeout(s.member(p.from), p.to)
		}
	case r < 80 && len(s.net) > 0:
		if p := s.net[s.rng.Intn(len(s.net))]; !p.reply {
			s.net = append(s.net, p) // a request arrives twice
		}
	case r < 84:
		s.timeout(m, m.core.peers[s.rng.Intn(len(m.core.peers))].addr)
	case r < 87:
		// The member folds its applied prefix into a snapshot, so that a
		// laggard has to be sent one.
		if c := m.log.Commit(); c > m.log.Snapshot().Index {
			term, err := m.log.Term(c)
			if err != nil {
				s.t.Fatal(err)
			}
			m.log.CompactTo(replog.Snapshot{Index: c, Term: term})
			s.write(m, nil)
		}
	default:
		s.proposals++
		s.feed(m, Input{Kind: Propose, Entry: &replog.Entry{Op: replog.OpReevaluate, Token: fmt.Sprint("p", s.proposals)}}, nil)
	}
}

// holds reports whether m's disk holds the entry of term at index.
func (m *simMember) holds(index, term uint64) bool {
	return index <= m.diskSnap || m.disk[index] == term
}

// check asserts the safety properties.
func (s *sim) check() {
	defer clear(s.touched)
	for _, m := range s.members {
		if !s.touched[m] {
			continue
		}
		// At most one leader per term.
		if role, term, _ := m.core.State(); role == Leader {
			if other, ok := s.leaderOf[term]; ok && other != m.id {
				s.t.Fatalf("term %d has two leaders: %s and %s", term, other, m.id)
			}
			s.leaderOf[term] = m.id
		}
		// The commit index is monotone, never past what a majority's disks
		// hold, and what is committed at an index is committed for good.
		commit := m.log.Commit()
		if commit < m.commit {
			s.t.Fatalf("%s: commit went back %d -> %d", m.id, m.commit, commit)
		}
		for idx := max(m.commit, m.log.Snapshot().Index) + 1; idx <= commit; idx++ {
			e, err := m.log.Entry(idx)
			if err != nil {
				s.t.Fatalf("%s: committed entry %d: %v", m.id, idx, err)
			}
			if first, ok := s.committed[idx]; ok && first != e {
				s.t.Fatalf("%s committed %+v at %d where %+v was committed", m.id, e, idx, first)
			}
			s.committed[idx] = e
			held := 0
			for _, o := range s.members {
				if o.holds(idx, e.Term) {
					held++
				}
			}
			if held < 2 {
				s.t.Fatalf("%s committed entry %d (term %d) that %d disk(s) hold", m.id, idx, e.Term, held)
			}
		}
		// A proposal is answered once: by its failure (feed), or by the
		// commit point passing it here.
		for idx := range m.waiting {
			if idx <= commit {
				delete(m.waiting, idx)
			}
		}
		m.commit = commit
	}
	// Log matching: the same index and term mean the same entry. What lies at
	// or below every commit point was compared when it was committed.
	for i, a := range s.members {
		for _, b := range s.members[i+1:] {
			if !s.touched[a] && !s.touched[b] {
				continue
			}
			from := max(min(a.commit, b.commit), a.log.Snapshot().Index, b.log.Snapshot().Index) + 1
			ea, _ := a.log.EntriesFrom(from)
			eb, _ := b.log.EntriesFrom(from)
			for k := 0; k < min(len(ea), len(eb)); k++ {
				if ea[k].Term == eb[k].Term && ea[k] != eb[k] {
					s.t.Fatalf("term %d: %s holds %+v, %s holds %+v", ea[k].Term, a.id, ea[k], b.id, eb[k])
				}
			}
		}
	}
}

// heal ends the faults and runs the cluster until it settles: everything
// still waiting must be answered, within the proposal deadline, and the
// cluster must still be able to commit.
func (s *sim) heal(seed int64) {
	s.failWrites = 0
	committed, proposed := false, false
	for round := 0; round < 400 && !committed; round++ {
		s.now = s.now.Add(10 * time.Millisecond)
		for _, m := range s.members {
			s.feed(m, Input{Kind: Tick}, nil)
			if role, _, _ := m.core.State(); role == Leader && !proposed && round*10 >= int(4*electionT/time.Millisecond) {
				proposed = true
				s.feed(m, Input{Kind: Propose, Entry: &replog.Entry{Op: replog.OpReevaluate, Token: "final"}}, nil)
			}
		}
		for len(s.net) > 0 {
			s.deliver(0)
		}
		s.check()
		if proposed {
			committed = true
			for _, m := range s.members {
				committed = committed && len(m.waiting) == 0 && m.commit == s.members[0].commit && m.commit == m.log.LastIndex()
			}
		}
	}
	if !committed {
		for _, m := range s.members {
			role, term, _ := m.core.State()
			s.t.Logf("%s: %s term %d commit %d last %d waiting %v", m.id, role, term, m.commit, m.log.LastIndex(), m.waiting)
		}
		s.t.Fatalf("seed %d: the healed cluster did not settle", seed)
	}
}

func TestCoreSchedules(t *testing.T) {
	const seeds, steps = 200, 500
	installs := 0
	for seed := int64(1); seed <= seeds; seed++ {
		s := newSim(t, seed)
		for i := 0; i < steps; i++ {
			s.step()
			s.check()
		}
		s.heal(seed)
		installs += s.installs
	}
	if installs == 0 {
		t.Error("no schedule had a leader install a snapshot on a laggard")
	}
}
