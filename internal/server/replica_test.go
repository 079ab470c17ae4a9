package server

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"harmony/internal/cluster"
	"harmony/internal/consensus"
	"harmony/internal/core"
	"harmony/internal/protocol"
	"harmony/internal/replog"
	"harmony/internal/simclock"
)

// testNode is one replica plus its client-facing server for cluster tests.
type testNode struct {
	ctrl *core.Controller
	rep  *Replica
	srv  *Server
	dir  string
	// addresses survive a kill so the node can be restarted in place.
	peerAddr   string
	clientAddr string
	peers      []string
	grace      time.Duration
	snapEvery  int
}

// electionT is deliberately short so failover tests run in tens of
// milliseconds; the 10ms election ticker still resolves it cleanly.
const electionT = 80 * time.Millisecond

// startNode boots (or reboots) one cluster member on its pinned addresses.
func (n *testNode) start(t *testing.T) {
	t.Helper()
	cl, err := cluster.NewSP2(8)
	if err != nil {
		t.Fatal(err)
	}
	n.ctrl, err = core.New(core.Config{Cluster: cl, Clock: simclock.New()})
	if err != nil {
		t.Fatal(err)
	}
	n.rep, err = NewReplica(n.peerAddr, ReplicaConfig{
		ID:              n.peerAddr,
		Peers:           n.peers,
		ClientAddr:      n.clientAddr,
		Controller:      n.ctrl,
		DataDir:         n.dir,
		ElectionTimeout: electionT,
		SnapshotEvery:   n.snapEvery,
	})
	if err != nil {
		t.Fatalf("NewReplica(%s): %v", n.peerAddr, err)
	}
	ln, err := net.Listen("tcp", n.clientAddr)
	if err != nil {
		t.Fatalf("client listen %s: %v", n.clientAddr, err)
	}
	n.srv, err = Serve(ln, Config{Controller: n.ctrl, Replica: n.rep, LeaseGrace: n.grace})
	if err != nil {
		t.Fatalf("Serve(%s): %v", n.clientAddr, err)
	}
}

// kill stops the node abruptly (crash simulation: no graceful handover).
func (n *testNode) kill() {
	if n.srv != nil {
		_ = n.srv.Close()
		n.srv = nil
	}
	if n.rep != nil {
		_ = n.rep.Close()
		n.rep = nil
	}
}

// startTestCluster boots size replicas with pinned peer/client addresses
// (pre-bound ephemeral ports) so any member can be killed and restarted.
func startTestCluster(t *testing.T, size int, grace time.Duration, snapEvery int) []*testNode {
	t.Helper()
	nodes := make([]*testNode, size)
	peerAddrs := make([]string, size)
	for i := range nodes {
		nodes[i] = &testNode{
			dir:       t.TempDir(),
			grace:     grace,
			snapEvery: snapEvery,
		}
		// Reserve ephemeral ports by binding and releasing; the node rebinds
		// the same address when it starts.
		for _, addr := range []*string{&nodes[i].peerAddr, &nodes[i].clientAddr} {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			*addr = ln.Addr().String()
			_ = ln.Close()
		}
		peerAddrs[i] = nodes[i].peerAddr
	}
	for i, n := range nodes {
		for j, addr := range peerAddrs {
			if j != i {
				n.peers = append(n.peers, addr)
			}
		}
		n.start(t)
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.kill()
		}
	})
	return nodes
}

// waitLeader blocks until exactly one live node leads and returns it.
func waitLeader(t *testing.T, nodes []*testNode) *testNode {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var leader *testNode
		for _, n := range nodes {
			if n.rep != nil && n.rep.IsLeader() {
				leader = n
			}
		}
		if leader != nil {
			return leader
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("no leader elected")
	return nil
}

// settle has the loop take a tick and returns once it has.
func settle(rep *Replica) {
	done := make(chan struct{})
	rep.post(event{in: consensus.Input{Kind: consensus.Tick}})
	rep.post(event{run: func() { close(done) }})
	<-done
}

// waitTrue polls cond until it holds or the deadline lapses.
func waitTrue(t *testing.T, within time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stateJSON fingerprints a node's replicated state — controller and session
// table — read on its loop.
func stateJSON(t *testing.T, n *testNode) string {
	t.Helper()
	data, err := n.rep.EncodeState()
	if err != nil {
		t.Fatalf("EncodeState: %v", err)
	}
	return string(data)
}

// dialNode opens a raw protocol session to a node's client port.
func dialNode(t *testing.T, n *testNode) *protoSession {
	t.Helper()
	conn, err := net.Dial("tcp", n.clientAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return &protoSession{conn: conn}
}

func TestReplicatedRegisterPropagates(t *testing.T) {
	nodes := startTestCluster(t, 3, 2*time.Second, 0)
	leader := waitLeader(t, nodes)

	p := dialNode(t, leader)
	ack := p.call(t, &protocol.Message{Type: protocol.TypeStartup, AppID: "DBclient"})
	if ack.ResumeToken == "" {
		t.Fatal("replicated startup ack carries no resume token")
	}
	setup := p.call(t, &protocol.Message{Type: protocol.TypeBundleSetup, RSL: dbRSL})
	if setup.Instance == 0 {
		t.Fatalf("bundle_setup ack = %+v", setup)
	}
	if len(setup.Vars) == 0 {
		t.Fatal("bundle_setup ack carries no initial configuration")
	}

	// Every replica applies the committed registration and lands on the
	// same controller state, byte for byte.
	waitTrue(t, 3*time.Second, "followers to converge", func() bool {
		want := stateJSON(t, nodes[0])
		for _, n := range nodes[1:] {
			if len(n.ctrl.Apps()) != 1 || stateJSON(t, n) != want {
				return false
			}
		}
		return len(nodes[0].ctrl.Apps()) == 1
	})
	for _, n := range nodes {
		if err := n.ctrl.Ledger().CheckConservation(); err != nil {
			t.Fatalf("conservation on %s: %v", n.peerAddr, err)
		}
	}
}

func TestFollowerRedirectsMutations(t *testing.T) {
	nodes := startTestCluster(t, 3, 2*time.Second, 0)
	leader := waitLeader(t, nodes)
	var follower *testNode
	for _, n := range nodes {
		if n != leader {
			follower = n
			break
		}
	}
	waitTrue(t, 3*time.Second, "follower to learn the leader", func() bool {
		return follower.rep.LeaderClient() == leader.clientAddr
	})

	conn, err := net.Dial("tcp", follower.clientAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w, r := protocol.NewWriter(conn), protocol.NewReader(conn)
	if err := w.Write(&protocol.Message{Type: protocol.TypeStartup, Seq: 1, AppID: "app"}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != protocol.TypeError || !strings.Contains(reply.Error, protocol.ErrNotLeader) {
		t.Fatalf("follower mutation reply = %+v, want %s error", reply, protocol.ErrNotLeader)
	}
	if reply.Leader != leader.clientAddr {
		t.Fatalf("redirect leader = %q, want %q", reply.Leader, leader.clientAddr)
	}

	// Reads are still served locally.
	if err := w.Write(&protocol.Message{Type: protocol.TypeStatus, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	reply, err = r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != protocol.TypeStatusReply {
		t.Fatalf("follower status reply = %+v", reply)
	}

	// cluster_status works on any role.
	if err := w.Write(&protocol.Message{Type: protocol.TypeClusterStatus, Seq: 3}); err != nil {
		t.Fatal(err)
	}
	reply, err = r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != protocol.TypeClusterStatusReply || reply.Replica == nil {
		t.Fatalf("cluster_status reply = %+v", reply)
	}
	if reply.Replica.Role != roleFollower || reply.Replica.Leader != leader.clientAddr {
		t.Fatalf("follower cluster status = %+v", reply.Replica)
	}
}

func TestLeaderFailoverPreservesSession(t *testing.T) {
	nodes := startTestCluster(t, 3, 3*time.Second, 0)
	leader := waitLeader(t, nodes)

	p := dialNode(t, leader)
	ack := p.call(t, &protocol.Message{Type: protocol.TypeStartup, AppID: "DBclient"})
	setup := p.call(t, &protocol.Message{Type: protocol.TypeBundleSetup, RSL: dbRSL})
	p.call(t, &protocol.Message{Type: protocol.TypeAddVariable, Name: "tunable", Value: protocol.NumVar(7)})

	survivors := make([]*testNode, 0, 2)
	for _, n := range nodes {
		if n != leader {
			survivors = append(survivors, n)
		}
	}
	// Wait for the registration to replicate, then crash the leader.
	waitTrue(t, 3*time.Second, "registration to replicate", func() bool {
		for _, n := range survivors {
			if len(n.ctrl.Apps()) != 1 {
				return false
			}
		}
		return true
	})
	leader.kill()

	next := waitLeader(t, survivors)
	// The client reconnects to the new leader and resumes mid-session: its
	// instance and declared variables crossed the failover.
	p2 := dialNode(t, next)
	rack := p2.call(t, &protocol.Message{Type: protocol.TypeResume, ResumeToken: ack.ResumeToken})
	if len(rack.Instances) != 1 || rack.Instances[0] != setup.Instance {
		t.Fatalf("post-failover resume instances = %v, want [%d]", rack.Instances, setup.Instance)
	}
	for _, n := range survivors {
		if err := n.ctrl.Ledger().CheckConservation(); err != nil {
			t.Fatalf("conservation after failover: %v", err)
		}
	}
	// The resumed connection owns the instance: a replicated end works and
	// drains both survivors.
	p2.call(t, &protocol.Message{Type: protocol.TypeEnd, Instance: setup.Instance})
	waitTrue(t, 3*time.Second, "end to replicate", func() bool {
		for _, n := range survivors {
			if len(n.ctrl.Apps()) != 0 {
				return false
			}
		}
		return true
	})
}

func TestFailoverExpiresUnresumedSessions(t *testing.T) {
	nodes := startTestCluster(t, 3, 200*time.Millisecond, 0)
	leader := waitLeader(t, nodes)

	p := dialNode(t, leader)
	p.call(t, &protocol.Message{Type: protocol.TypeStartup, AppID: "DBclient"})
	p.call(t, &protocol.Message{Type: protocol.TypeBundleSetup, RSL: dbRSL})

	survivors := make([]*testNode, 0, 2)
	for _, n := range nodes {
		if n != leader {
			survivors = append(survivors, n)
		}
	}
	waitTrue(t, 3*time.Second, "registration to replicate", func() bool {
		for _, n := range survivors {
			if len(n.ctrl.Apps()) != 1 {
				return false
			}
		}
		return true
	})
	leader.kill()
	waitLeader(t, survivors)

	// Nobody resumes: the new leader's grace window lapses and the orphaned
	// session's resources are released cluster-wide.
	waitTrue(t, 5*time.Second, "orphaned session to expire", func() bool {
		for _, n := range survivors {
			if len(n.ctrl.Apps()) != 0 {
				return false
			}
		}
		return true
	})
	for _, n := range survivors {
		if err := n.ctrl.Ledger().CheckConservation(); err != nil {
			t.Fatalf("conservation after expiry: %v", err)
		}
	}
}

func TestFollowerCrashRecovery(t *testing.T) {
	// Small snapshot interval so the restart exercises snapshot + log tail.
	nodes := startTestCluster(t, 3, 2*time.Second, 8)
	leader := waitLeader(t, nodes)
	var follower *testNode
	for _, n := range nodes {
		if n != leader {
			follower = n
			break
		}
	}

	p := dialNode(t, leader)
	p.call(t, &protocol.Message{Type: protocol.TypeStartup, AppID: "DBclient"})
	churn := func(rounds int) {
		for i := 0; i < rounds; i++ {
			setup := p.call(t, &protocol.Message{Type: protocol.TypeBundleSetup, RSL: dbRSL})
			p.call(t, &protocol.Message{Type: protocol.TypeEnd, Instance: setup.Instance})
		}
	}
	churn(5)

	commitBefore := leader.rep.Status().CommitIndex
	waitTrue(t, 3*time.Second, "follower to catch up pre-crash", func() bool {
		return follower.rep.Status().CommitIndex >= commitBefore
	})
	follower.kill()

	// The cluster keeps committing through the remaining majority.
	churn(5)
	setup := p.call(t, &protocol.Message{Type: protocol.TypeBundleSetup, RSL: dbRSL})

	// Restart the follower in place from its data dir: it recovers the
	// snapshot + log tail, then the leader ships what it missed.
	follower.start(t)
	want := leader.rep.Status().CommitIndex
	waitTrue(t, 5*time.Second, "restarted follower to catch up", func() bool {
		return follower.rep.Status().CommitIndex >= want &&
			stateJSON(t, follower) == stateJSON(t, leader)
	})
	if err := follower.ctrl.Ledger().CheckConservation(); err != nil {
		t.Fatalf("conservation on recovered follower: %v", err)
	}
	if got := len(follower.ctrl.Apps()); got != 1 {
		t.Fatalf("recovered follower apps = %d, want 1", got)
	}
	_ = setup
}

func TestSingleNodeClusterCommitsAlone(t *testing.T) {
	nodes := startTestCluster(t, 1, time.Second, 0)
	leader := waitLeader(t, nodes)
	p := dialNode(t, leader)
	p.call(t, &protocol.Message{Type: protocol.TypeStartup, AppID: "DBclient"})
	setup := p.call(t, &protocol.Message{Type: protocol.TypeBundleSetup, RSL: dbRSL})
	if setup.Instance != 1 {
		t.Fatalf("instance = %d", setup.Instance)
	}
	st := leader.rep.Status()
	if st.Role != roleLeader || st.CommitIndex == 0 {
		t.Fatalf("single-node status = %+v", st)
	}
}

func TestProposeOnFollowerReturnsNotLeader(t *testing.T) {
	nodes := startTestCluster(t, 3, time.Second, 0)
	leader := waitLeader(t, nodes)
	for _, n := range nodes {
		if n == leader {
			continue
		}
		// Followers learn the leader's client address from its first
		// heartbeat; wait for it before expecting a redirect target.
		waitTrue(t, 3*time.Second, "follower to learn the leader", func() bool {
			return n.rep.LeaderClient() == leader.clientAddr
		})
		_, _, err := n.rep.Propose(&replog.Entry{Op: replog.OpReevaluate})
		var nl *ErrNotLeader
		if !errors.As(err, &nl) {
			t.Fatalf("follower Propose error = %v, want ErrNotLeader", err)
		}
		if nl.LeaderClient != leader.clientAddr {
			t.Fatalf("LeaderClient = %q, want %q", nl.LeaderClient, leader.clientAddr)
		}
	}
}

// TestReplicationDocInSync keeps docs/REPLICATION.md honest: the replica
// entry points, operating knobs and chaos-replay affordances it
// describes must be the ones that exist.
func TestReplicationDocInSync(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "REPLICATION.md"))
	if err != nil {
		t.Fatalf("docs/REPLICATION.md missing: %v", err)
	}
	for _, sym := range []string{
		"NewReplica", "Apply", "Advance", "replog.Entry", "Step", "internal/consensus",
		"append_entries", "install_snapshot", "not_leader",
		"SnapshotEvery", "DataDir", "LeaseGrace", "OpSessionExpire",
		"ClusterStatus", "cluster status", "CheckConservation",
		"peer-addr", "data-dir", "replaydeterminism",
		"TestSoakReplicatedLeaderKill", "TestFollowerCrashRecovery",
		"CHAOS_SEED", "make chaos",
	} {
		if !strings.Contains(string(doc), sym) {
			t.Errorf("docs/REPLICATION.md does not mention %s", sym)
		}
	}
}

// TestProposeOutcomeSurvivesEarlyApply guards the hand-over of outcomes from
// the loop to the proposers. The window it was written for — a heartbeat
// applying an entry before its proposer had registered interest — closed when
// one goroutine came to own both; what can still go wrong is a waiter bound
// to the wrong index, released twice or never. Eight proposers share a
// durable three-member leader while heartbeats run: every call must return,
// and return the outcome of its own entry.
func TestProposeOutcomeSurvivesEarlyApply(t *testing.T) {
	nodes := startTestCluster(t, 3, time.Second, 0)
	rep := waitLeader(t, nodes).rep
	const proposers, each = 8, 300
	var wg sync.WaitGroup
	for p := 0; p < proposers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			token := fmt.Sprintf("session-%d", p)
			if _, _, err := rep.Propose(&replog.Entry{Op: replog.OpSessionStart, Token: token, AppID: token}); err != nil {
				t.Errorf("proposer %d: start: %v", p, err)
				return
			}
			for i := 0; i < each; i++ {
				// A resume answers with the session it names: an outcome that
				// crossed over from another proposer's entry shows.
				_, rec, err := rep.Propose(&replog.Entry{Op: replog.OpSessionResume, Token: token})
				if err != nil {
					t.Errorf("proposer %d, proposal %d: %v", p, i, err)
					return
				}
				if rec == nil || rec.Token != token {
					t.Errorf("proposer %d, proposal %d: got the outcome of %+v", p, i, rec)
					return
				}
			}
		}(p)
	}
	wg.Wait()
}

// A member without peers is its own majority: it leads from construction
// and takes a proposal at once, with no election timeout to sleep through.
func TestPeerlessReplicaLeadsFromConstruction(t *testing.T) {
	cl, err := cluster.NewSP2(2)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.New(core.Config{Cluster: cl, Clock: simclock.New()})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplica("", ReplicaConfig{Controller: ctrl, ElectionTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if _, _, err := rep.Propose(&replog.Entry{Op: replog.OpReevaluate}); err != nil {
		t.Fatalf("first proposal: %v", err)
	}
	if st := rep.Status(); st.Role != roleLeader || st.Term != 1 || st.CommitIndex != 2 {
		t.Fatalf("status = %+v, want leader of term 1 with its no-op and the proposal committed", st)
	}
	if _, err := NewReplica("", ReplicaConfig{Controller: ctrl, Peers: []string{"127.0.0.1:1"}}); err == nil {
		t.Fatal("replica with peers but no peer address accepted")
	}
}

// The member a plain server builds for itself has no store and no peers, so
// it bounds its log by dropping applied entries: the controller, with an
// application registered, is never serialized.
func TestEmbeddedReplicaLogStaysBounded(t *testing.T) {
	var logged []string
	var logMu sync.Mutex
	srv, _ := startTestServer(t, Config{Logf: func(format string, args ...any) {
		logMu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}})
	rep := srv.rep
	if _, _, err := rep.Propose(&replog.Entry{Op: replog.OpRegister, RSL: dbRSL}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if _, _, err := rep.Propose(&replog.Entry{Op: replog.OpReevaluate}); err != nil {
			t.Fatalf("proposal %d: %v", i, err)
		}
		if held := rep.log.LastIndex() - rep.log.Snapshot().Index; held > uint64(rep.cfg.SnapshotEvery) {
			t.Fatalf("after proposal %d the log holds %d entries, want at most %d", i, held, rep.cfg.SnapshotEvery)
		}
	}
	if rep.log.Snapshot().Index == 0 || rep.log.Snapshot().Data != nil {
		t.Fatalf("compaction point = %+v, want a dataless one past index 0", rep.log.Snapshot())
	}
	logMu.Lock()
	defer logMu.Unlock()
	for _, line := range logged {
		if strings.Contains(line, "snapshot") {
			t.Fatalf("the embedded member serialized the controller: %q", line)
		}
	}
}

// A member that cannot write an entry to its store must not vouch for it:
// the proposer hears the error and the entry stays uncommitted. The next
// write that succeeds carries the entry along, so the file has no gap.
func TestFailedPersistIsNotAnAck(t *testing.T) {
	nodes := startTestCluster(t, 1, time.Second, 0)
	rep := waitLeader(t, nodes).rep
	if _, _, err := rep.Propose(&replog.Entry{Op: replog.OpReevaluate}); err != nil {
		t.Fatal(err)
	}
	commit := rep.log.Commit()
	if err := rep.store.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rep.Propose(&replog.Entry{Op: replog.OpReevaluate}); err == nil {
		t.Fatal("proposal acknowledged although the store refused the entry")
	}
	settle(rep)
	if got := rep.log.Commit(); got != commit {
		t.Fatalf("commit index moved %d -> %d on an entry no disk holds", commit, got)
	}
	// The store works again (a rewrite reopens the file): both entries land.
	if _, _, err := rep.Propose(&replog.Entry{Op: replog.OpReevaluate}); err != nil {
		t.Fatalf("proposal after the store recovered: %v", err)
	}
	last := rep.log.LastIndex()
	if rep.log.Commit() != last {
		t.Fatalf("commit = %d, want %d", rep.log.Commit(), last)
	}
	nodes[0].kill()
	_, persisted, err := replog.OpenStore(nodes[0].dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(persisted.Entries); n == 0 || persisted.Entries[n-1].Index != last {
		t.Fatalf("recovered %d entries, want a contiguous tail ending at %d", n, last)
	}
}

// A follower whose store refuses an append answers Success false — the leader
// must not count a copy no disk holds — and heals on the leader's resend.
func TestFollowerFailedPersistRejectsAppend(t *testing.T) {
	rep, _ := lonelyFollower(t, t.TempDir())
	appendEntry := func(index uint64) *protocol.Message {
		return rep.handlePeer(&protocol.Message{
			Type: protocol.TypeAppendEntries, Term: 1, From: "leader", PrevIndex: index - 1, PrevTerm: uint64(min(index-1, 1)),
			Entries: []replog.Entry{{Index: index, Term: 1, Op: replog.OpReevaluate}},
		})
	}
	if reply := appendEntry(1); !reply.Success {
		t.Fatalf("first append = %+v", reply)
	}
	if err := rep.store.Close(); err != nil {
		t.Fatal(err)
	}
	if reply := appendEntry(2); reply.Success {
		t.Fatalf("append acknowledged although the store refused it: %+v", reply)
	}
	if reply := appendEntry(2); !reply.Success || reply.MatchIndex != 2 {
		t.Fatalf("resent append = %+v, want success at index 2", reply)
	}
}

// lonelyFollower starts a durable member whose only peer is unreachable and
// whose election is far off: it stays a follower, and the test plays the
// rest of the cluster through handlePeer.
func lonelyFollower(t *testing.T, dir string) (*Replica, *core.Controller) {
	t.Helper()
	cl, err := cluster.NewSP2(2)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.New(core.Config{Cluster: cl, Clock: simclock.New()})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReplica("127.0.0.1:0", ReplicaConfig{
		Controller: ctrl, Peers: []string{"127.0.0.1:1"}, DataDir: dir, ElectionTimeout: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rep.Close() })
	return rep, ctrl
}

// A vote the member could not write down is a vote a crash forgets — it could
// then vote again in the same term — so it is not granted. (Closing the store
// does not reach the hard state, which is written by rename; losing the
// directory does.)
func TestFailedHardStateSaveGrantsNoVote(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	rep, _ := lonelyFollower(t, dir)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	ask := &protocol.Message{Type: protocol.TypeVoteRequest, Term: 5, From: "candidate"}
	if reply := rep.handlePeer(ask); reply.Granted {
		t.Fatalf("vote granted although the hard state could not be saved: %+v", reply)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if reply := rep.handlePeer(ask); !reply.Granted {
		t.Fatalf("vote refused once the store works again: %+v", reply)
	}
	_ = rep.Close()
	_, persisted, err := replog.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if persisted.State != (replog.HardState{Term: 5, VotedFor: "candidate"}) {
		t.Fatalf("recovered hard state %+v, want the granted vote", persisted.State)
	}
}

// A snapshot the member could not write down is not acknowledged: the leader
// would count a copy that a restart does not find. The leader's resend finds
// it installed in memory and must still see it written before it hears yes.
func TestFailedSnapshotSaveIsNotAnAck(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	rep, _ := lonelyFollower(t, dir)
	data, err := rep.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	install := &protocol.Message{
		Type: protocol.TypeInstallSnapshot, Term: 1, From: "leader",
		Snapshot: &replog.Snapshot{Index: 3, Term: 1, Data: data},
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if reply := rep.handlePeer(install); reply.Success {
		t.Fatalf("install acknowledged although the snapshot could not be saved: %+v", reply)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if reply := rep.handlePeer(install); !reply.Success || reply.MatchIndex != 3 {
		t.Fatalf("resent install = %+v, want success at index 3", reply)
	}
	_ = rep.Close()
	_, persisted, err := replog.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if persisted.Snapshot.Index != 3 {
		t.Fatalf("recovered snapshot@%d, want the acknowledged snapshot@3", persisted.Snapshot.Index)
	}
}
