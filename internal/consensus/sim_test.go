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
// and reorders messages, times exchanges out, fails writes, compacts logs and
// crashes members, at rest or after a Ready's requests left and before its
// write; the safety properties are asserted after every step. No sockets, no
// sleeps.

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
	cfg  Config
	core *Core
	log  *replog.Log
	// out is the exchange in flight to each peer (0: none).
	out map[string]uint64
	// waiting mirrors the proposers: accepted proposals not yet answered.
	waiting map[uint64]bool
	commit  uint64
	// disk is what the member's store holds as of the last write that
	// succeeded: a snapshot, the entries after it by index and the hard state.
	// A crash leaves only this.
	diskSnap replog.Snapshot
	disk     map[uint64]replog.Entry
	hard     replog.HardState
}

type sim struct {
	t       *testing.T
	seed    int64
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
	// crashes is the chance, in percent, that a member crashes between its
	// requests and its write; shipped counts the crashes that lost entries
	// whose requests had left.
	crashes, shipped int
}

func newSim(t *testing.T, seed int64) *sim {
	s := &sim{
		t: t, seed: seed, rng: rand.New(rand.NewSource(seed)), now: t0, failWrites: 5, crashes: 4,
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
			id: id, cfg: cfg, core: New(cfg, log, replog.HardState{}, s.now), log: log,
			out: make(map[string]uint64), waiting: make(map[uint64]bool), disk: make(map[uint64]replog.Entry),
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
	s.fatalf("no member %q", id)
	return nil
}

// feed steps m and carries the Ready out the way the owner must: let the
// requests leave, write, tell the core how the write went, and only then let
// the reply, a promise, leave. A member may crash between its requests and
// its write.
func (s *sim) feed(m *simMember, in Input, replyTo *packet) {
	s.touched[m] = true
	rd := m.core.Step(s.now, in)
	s.carry(m, &rd)
	if rd.MustSave() {
		if s.rng.Intn(100) < s.crashes {
			if len(rd.Msgs) > 0 && len(rd.Entries) > 0 {
				s.shipped++
			}
			s.crash(m)
			return
		}
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
			s.fatalf("%s: the answer to a save wants another save: %+v", m.id, second)
		}
		s.carry(m, &second)
	}
	if replyTo != nil {
		if rd.Reply == nil {
			s.fatalf("%s: no reply to %+v", m.id, replyTo.msg)
		}
		s.net = append(s.net, packet{from: m.id, to: replyTo.from, seq: replyTo.seq, msg: rd.Reply, reply: true})
	}
}

// carry puts part's requests on the net and takes note of the proposals it
// accepted and failed.
func (s *sim) carry(m *simMember, part *Ready) {
	for _, o := range part.Msgs {
		if m.out[o.To] != 0 {
			s.fatalf("%s: a second request to %s while one is in flight", m.id, o.To)
		}
		s.seq++
		m.out[o.To] = s.seq
		s.net = append(s.net, packet{from: m.id, to: o.To, seq: s.seq, msg: o.Msg})
	}
	if part.Index > 0 {
		m.waiting[part.Index] = true
	}
	for _, f := range part.Failed {
		if !m.waiting[f.Index] {
			s.fatalf("%s: proposal %d failed (%v) but was not waiting: answered twice", m.id, f.Index, f.Err)
		}
		delete(m.waiting, f.Index)
	}
}

// crash loses everything m holds but its disk — the log, the core, the
// exchanges in flight, whose replies then arrive stale, and the proposers,
// whose connections die with it — and restarts it through New from what the
// disk holds and the hard state it last saved.
func (s *sim) crash(m *simMember) {
	var tail []replog.Entry
	for idx := m.diskSnap.Index + 1; ; idx++ {
		e, ok := m.disk[idx]
		if !ok {
			break
		}
		tail = append(tail, e)
	}
	if len(tail) != len(m.disk) {
		s.fatalf("%s: the disk holds %d entries after snapshot@%d, %d of them in a row", m.id, len(m.disk), m.diskSnap.Index, len(tail))
	}
	m.log = replog.NewLog()
	if err := m.log.Restore(m.diskSnap, tail); err != nil {
		s.fatalf("%v", err)
	}
	m.core = New(m.cfg, m.log, m.hard, s.now)
	clear(m.out)
	clear(m.waiting)
	m.commit = m.log.Commit()
}

var errDisk = errors.New("disk")

// fatalf fails the schedule, naming its seed.
func (s *sim) fatalf(format string, args ...any) {
	s.t.Helper()
	s.t.Fatalf("seed %d: %s", s.seed, fmt.Sprintf(format, args...))
}

// write carries out a save the way the store does: entries are appended to
// what the disk holds, which must be exactly what precedes them, unless the
// Ready (nil: the member's own compaction) has the whole log written anew.
func (s *sim) write(m *simMember, rd *Ready) {
	if rd != nil && rd.HardState != nil {
		m.hard = *rd.HardState
	}
	if rd != nil && !rd.Rewrite {
		last := m.diskSnap.Index
		for idx := range m.disk {
			last = max(last, idx)
		}
		for _, e := range rd.Entries {
			if e.Index != last+1 {
				s.fatalf("%s: entry %d appended to a file ending at %d", m.id, e.Index, last)
			}
			m.disk[e.Index], last = e, e.Index
		}
		return
	}
	if rd != nil && rd.Snapshot != nil {
		s.installs++
	}
	m.diskSnap = m.log.Snapshot()
	clear(m.disk)
	tail, err := m.log.EntriesFrom(m.diskSnap.Index + 1)
	if err != nil {
		s.fatalf("%v", err)
	}
	for _, e := range tail {
		m.disk[e.Index] = e
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
	case r < 86:
		// The member folds its applied prefix into a snapshot, so that a
		// laggard has to be sent one.
		if c := m.log.Commit(); c > m.log.Snapshot().Index {
			term, err := m.log.Term(c)
			if err != nil {
				s.fatalf("%v", err)
			}
			m.log.CompactTo(replog.Snapshot{Index: c, Term: term})
			s.write(m, nil)
		}
	case r < 87:
		s.crash(m) // at rest: between two steps
	default:
		s.proposals++
		s.feed(m, Input{Kind: Propose, Entry: &replog.Entry{Op: replog.OpReevaluate, Token: fmt.Sprint("p", s.proposals)}}, nil)
	}
}

// holds reports whether m's disk holds e.
func (m *simMember) holds(e replog.Entry) bool {
	return e.Index <= m.diskSnap.Index || m.disk[e.Index] == e
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
				s.fatalf("term %d has two leaders: %s and %s", term, other, m.id)
			}
			s.leaderOf[term] = m.id
		}
		// The commit index is monotone, never past what a majority's disks
		// hold, and what is committed at an index is committed for good.
		commit := m.log.Commit()
		if commit < m.commit {
			s.fatalf("%s: commit went back %d -> %d", m.id, m.commit, commit)
		}
		for idx := max(m.commit, m.log.Snapshot().Index) + 1; idx <= commit; idx++ {
			e, err := m.log.Entry(idx)
			if err != nil {
				s.fatalf("%s: committed entry %d: %v", m.id, idx, err)
			}
			if first, ok := s.committed[idx]; ok && first != e {
				s.fatalf("%s committed %+v at %d where %+v was committed", m.id, e, idx, first)
			}
			s.committed[idx] = e
			held := 0
			for _, o := range s.members {
				if o.holds(e) {
					held++
				}
			}
			if held < 2 {
				s.fatalf("%s committed entry %d (term %d) that %d disk(s) hold", m.id, idx, e.Term, held)
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
					s.fatalf("term %d: %s holds %+v, %s holds %+v", ea[k].Term, a.id, ea[k], b.id, eb[k])
				}
			}
		}
	}
}

// heal ends the faults and runs the cluster until it settles: everything
// still waiting must be answered, within the proposal deadline, and the
// cluster must still be able to commit.
func (s *sim) heal() {
	s.failWrites, s.crashes = 0, 0
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
		s.fatalf("the healed cluster did not settle")
	}
}

func TestCoreSchedules(t *testing.T) {
	const seeds, steps = 200, 500
	installs, shipped := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		s := newSim(t, seed)
		for i := 0; i < steps; i++ {
			s.step()
			s.check()
		}
		s.heal()
		installs += s.installs
		shipped += s.shipped
	}
	if installs == 0 {
		t.Error("no schedule had a leader install a snapshot on a laggard")
	}
	if shipped == 0 {
		t.Error("no schedule crashed a leader between shipping entries and writing them")
	}
}
