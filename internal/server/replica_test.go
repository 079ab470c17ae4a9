package server

import (
	"encoding/json"
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
	"harmony/internal/hclient"
	"harmony/internal/protocol"
	"harmony/internal/replog"
	"harmony/internal/simclock"
	"harmony/internal/testport"
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

// startTestCluster boots size replicas with pinned peer/client addresses so
// any member can be killed and restarted.
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
		nodes[i].peerAddr, nodes[i].clientAddr = testport.Addr(t), testport.Addr(t)
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

	// A variable declaration changes no state on any member: a follower
	// acknowledges it instead of redirecting.
	if err := w.Write(&protocol.Message{Type: protocol.TypeAddVariable, Seq: 2, Name: "where", Value: protocol.StrVar("QS")}); err != nil {
		t.Fatal(err)
	}
	if reply, err = r.Read(); err != nil || reply.Type != protocol.TypeAck || reply.Name != "where" {
		t.Fatalf("follower add_variable reply = %+v, %v; want an ack", reply, err)
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
	// instance crossed the failover.
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

// TestRecoversOldSessionFormat restarts a member on a data directory in the
// format written while sessions still recorded their appId and declared
// variables: log records in plain JSON (no checksum) holding a session_start
// with an appId and two session_var entries, and a snapshot whose session
// carries appId and vars. Recovery ignores what nothing reads and keeps the
// rest: a session_var applies as a no-op, and the parked session resumes.
func TestRecoversOldSessionFormat(t *testing.T) {
	newCtrl := func() *core.Controller {
		cl, err := cluster.NewSP2(8)
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := core.New(core.Config{Cluster: cl, Clock: simclock.New()})
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	}
	old := newCtrl()
	if _, err := old.Apply(&replog.Entry{Op: replog.OpRegister, RSL: dbRSL}); err != nil {
		t.Fatal(err)
	}
	st, err := old.State()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(map[string]any{
		"controller": st,
		"sessions": []json.RawMessage{json.RawMessage(
			`{"token":"a11ce","appId":"DBclient","instances":[1],"vars":{"where":{"str":"QS","isString":true}},"parked":true}`)},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := json.Marshal(replog.Snapshot{Index: 5, Term: 1, Time: st.Now, Data: payload})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, content := range map[string]string{
		"state.json":    `{"term":1}`,
		"snapshot.json": string(snap),
		"log.jsonl": `{"index":6,"term":1,"time":0,"op":"session_start","appId":"DBclient","token":"b0b"}
{"index":7,"term":1,"time":0,"op":"session_var","token":"b0b","name":"tunable","numValue":7}
{"index":8,"term":1,"time":0,"op":"session_var","token":"a11ce","name":"where","strValue":"DS","isString":true}
`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	ctrl := newCtrl()
	rep, err := NewReplica("", ReplicaConfig{Controller: ctrl, DataDir: dir})
	if err != nil {
		t.Fatalf("restart on the old data directory: %v", err)
	}
	t.Cleanup(func() { _ = rep.Close() })
	if got := rep.Status().CommitIndex; got < 8 {
		t.Fatalf("commit index %d, want the recovered tail (8) applied", got)
	}
	var sessions []sessionRecord
	var varErr error
	done := make(chan struct{})
	rep.post(event{run: func() {
		sessions = rep.sessions.snapshot()
		varErr = rep.applyEntry(&replog.Entry{Op: "session_var", Token: "a11ce"}).err
		close(done)
	}})
	<-done
	want := []sessionRecord{{Token: "a11ce", Instances: []int{1}, Parked: true}, {Token: "b0b"}}
	if fmt.Sprint(sessions) != fmt.Sprint(want) {
		t.Fatalf("recovered sessions %+v, want %+v", sessions, want)
	}
	if varErr != nil {
		t.Fatalf("a session_var entry does not apply as a no-op: %v", varErr)
	}
	if apps := ctrl.Apps(); len(apps) != 1 || apps[0].Instance != 1 {
		t.Fatalf("recovered apps %+v, want instance 1", apps)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(ln, Config{Controller: ctrl, Replica: rep, LeaseGrace: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	rack := newProtoSession(t, srv).call(t, &protocol.Message{Type: protocol.TypeResume, ResumeToken: "a11ce"})
	if len(rack.Instances) != 1 || rack.Instances[0] != 1 {
		t.Fatalf("resume instances = %v, want [1]", rack.Instances)
	}
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
		"peer-addr", "data-dir", "TestReplayIsDeterministic", "TestReplicaReplayIsDeterministic",
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
			if _, _, err := rep.Propose(&replog.Entry{Op: replog.OpSessionStart, Token: token}); err != nil {
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

// sessionBagRSL is a variable-parallelism bag, small enough that a handful
// share an 8-node SP-2 while their choices still depend on each other.
func sessionBagRSL(i int) string {
	return fmt.Sprintf(`
harmonyBundle Bag%d:%d parallelism {
	{workers
		{variable workerNodes {1 2 3}}
		{node worker * {os linux} {seconds {12 / workerNodes}} {memory 24} {replicate workerNodes}}
	}
}`, i, i)
}

// sessionLog is a churn of client sessions as the replica's apply path sees
// it. Each of the first rounds is written as logs were while startup was
// replicated: it starts three sessions, registers instances under their
// tokens, parks two, resumes one, ends an instance, expires a parked session
// with its instance, and expires the previous round's two survivors, one
// active and one parked. The later rounds start no session: a session enters
// the table with its first registration and leaves it with its last
// unregister, or with its expiry, and a session that never registered is
// expired as a connection whose registration went unanswered expires it.
// Every entry succeeds, so instances are numbered in registration order, and
// the table always holds sessions in both states.
func sessionLog() []replog.Entry {
	var log []replog.Entry
	add := func(e replog.Entry) {
		e.Index, e.Term, e.Time = uint64(len(log)+1), 1, time.Duration(len(log)+1)*time.Second
		log = append(log, e)
	}
	inst := 0
	register := func(token string) int {
		inst++
		add(replog.Entry{Op: replog.OpRegister, Token: token, RSL: sessionBagRSL(inst)})
		return inst
	}
	session := func(op replog.Op, token string) { add(replog.Entry{Op: op, Token: token}) }
	for round := 0; round < 16; round++ {
		a, b, c := fmt.Sprintf("a%d", round), fmt.Sprintf("b%d", round), fmt.Sprintf("c%d", round)
		for _, token := range []string{a, b, c} {
			session(replog.OpSessionStart, token)
		}
		first := register(a)
		register(a)
		register(b)
		register(c)
		session(replog.OpSessionPark, a)
		session(replog.OpSessionPark, c)
		session(replog.OpSessionResume, a)
		add(replog.Entry{Op: replog.OpUnregister, Instance: first})
		session(replog.OpSessionExpire, c)
		session(replog.OpSessionPark, b)
		if round > 0 {
			session(replog.OpSessionExpire, fmt.Sprintf("a%d", round-1))
			session(replog.OpSessionExpire, fmt.Sprintf("b%d", round-1))
		}
	}
	for round := 0; round < 16; round++ {
		d, e, f := fmt.Sprintf("d%d", round), fmt.Sprintf("e%d", round), fmt.Sprintf("f%d", round)
		first := register(d)
		second := register(d)
		register(e)
		add(replog.Entry{Op: replog.OpUnregister, Instance: first})
		add(replog.Entry{Op: replog.OpUnregister, Instance: second})
		register(d)
		session(replog.OpSessionPark, d)
		session(replog.OpSessionPark, e)
		session(replog.OpSessionResume, d)
		session(replog.OpSessionExpire, e)
		session(replog.OpSessionExpire, f)
		if round > 0 {
			session(replog.OpSessionExpire, fmt.Sprintf("d%d", round-1))
		}
	}
	return log
}

// TestReplicaReplayIsDeterministic is the replay differential for what
// core's TestReplayIsDeterministic does not reach: the session table and the
// instances a session binds and releases. Two peerless replicas apply the
// same session churn, each entry through applyEntry on the replica's own
// loop, and after every entry their encodeState must be byte-identical. A
// map-order-dependent write, a wall-clock read or a math/rand draw on that
// path sets them apart. The replicas' goroutines must all end with Close.
func TestReplicaReplayIsDeterministic(t *testing.T) {
	before := goroutineIDs(allStacks())
	var reps [2]*Replica
	for k := range reps {
		cl, err := cluster.NewSP2(8)
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := core.New(core.Config{Cluster: cl, Clock: simclock.New()})
		if err != nil {
			t.Fatal(err)
		}
		if reps[k], err = NewReplica("", ReplicaConfig{Controller: ctrl, ElectionTimeout: time.Hour}); err != nil {
			t.Fatal(err)
		}
		defer reps[k].Close()
	}
	apply := func(r *Replica, e replog.Entry) (applyOutcome, []byte) {
		var out applyOutcome
		var data []byte
		var err error
		done := make(chan struct{})
		if !r.post(event{run: func() {
			out = r.applyEntry(&e)
			_, data, err = r.encodeState()
			close(done)
		}}) {
			t.Fatal("replica closed")
		}
		<-done
		if err != nil {
			t.Fatal(err)
		}
		return out, data
	}
	for i, e := range sessionLog() {
		out, want := apply(reps[0], e)
		if out.err != nil {
			t.Fatalf("entry %d (%s %s): %v", i+1, e.Op, e.Token, out.err)
		}
		if _, got := apply(reps[1], e); string(got) != string(want) {
			t.Fatalf("entry %d (%s %s): the replicas' states differ:\nreplica 0 %s\nreplica 1 %s", i+1, e.Op, e.Token, want, got)
		}
	}
	for k, r := range reps {
		closeWithin(t, fmt.Sprintf("replica %d", k), r.Close)
	}
	requireNoneOutlive(t, before)
}

// TestClientCycleWritesTwoEntries runs the benchmark writer's cycle (startup,
// bundle_setup, three heartbeats, end, close) against a standalone server and
// against the leader of three durable members: the registration and the end
// are a cycle's only log entries. Startup proposes nothing, the session the
// registration records leaves the table with the end, and the close of a
// connection that holds no instance proposes nothing either.
func TestClientCycleWritesTwoEntries(t *testing.T) {
	for _, replicated := range []bool{false, true} {
		t.Run(fmt.Sprintf("replicated=%v", replicated), func(t *testing.T) {
			srv := startCycleServer(t, replicated)
			before := srv.rep.log.LastIndex()
			const cycles = 5
			for i := 0; i < cycles; i++ {
				clientCycle(t, srv.Addr(), hclient.DialConfig{})
				drainConns(t, srv)
			}
			if got := srv.rep.log.LastIndex() - before; got != 2*cycles {
				t.Fatalf("%d cycles wrote %d log entries, want %d", cycles, got, 2*cycles)
			}
			var sessions []sessionRecord
			done := make(chan struct{})
			srv.rep.post(event{run: func() {
				sessions = srv.rep.sessions.snapshot()
				close(done)
			}})
			<-done
			if len(sessions) != 0 {
				t.Fatalf("sessions after the cycles = %+v, want none", sessions)
			}
		})
	}
}

// TestUnansweredRegistrationEndsSession has a bundle_setup proposal fail
// without an answer: the leader's followers are down, so it reaches no
// quorum. The connection holds no instance, yet the entry may still commit
// and bind one to its session, so its close proposes the session's end. Once
// a follower is back, both commit, and the instance the client never heard
// of is released.
func TestUnansweredRegistrationEndsSession(t *testing.T) {
	nodes := startTestCluster(t, 3, time.Second, 0)
	leader := waitLeader(t, nodes)
	p := dialNode(t, leader)
	ack := p.call(t, &protocol.Message{Type: protocol.TypeStartup, AppID: "DBclient"})
	var followers []*testNode
	for _, n := range nodes {
		if n != leader {
			followers = append(followers, n)
			n.kill()
		}
	}
	// call fails on an error reply; this one is the point.
	if err := p.w.Write(&protocol.Message{Type: protocol.TypeBundleSetup, RSL: dbRSL, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	reply, err := p.r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != protocol.TypeError || !strings.Contains(reply.Error, ErrNoQuorum.Error()) {
		t.Fatalf("bundle_setup without followers = %+v, want a no-quorum error", reply)
	}
	registered := leader.rep.log.LastIndex()
	_ = p.conn.Close()
	waitTrue(t, 3*time.Second, "the session's end to be proposed", func() bool {
		entries, err := leader.rep.log.EntriesFrom(registered + 1)
		return err == nil && len(entries) == 1 &&
			entries[0].Op == replog.OpSessionExpire && entries[0].Token == ack.ResumeToken
	})
	// One follower is a majority with the leader, and cannot win a vote
	// without the leader's: the leader keeps the entries and commits them.
	followers[0].start(t)
	waitTrue(t, 3*time.Second, "the registration and the end to commit", func() bool {
		return leader.rep.Status().CommitIndex >= registered+1
	})
	if apps := leader.ctrl.Apps(); len(apps) != 0 {
		t.Fatalf("apps after the session's end = %+v, want none", apps)
	}
	if enc := stateJSON(t, leader); strings.Contains(enc, ack.ResumeToken) {
		t.Fatalf("the ended session is still in the state: %s", enc)
	}
}
