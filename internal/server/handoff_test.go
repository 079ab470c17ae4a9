package server

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"harmony/internal/protocol"
	"harmony/internal/replog"
	"harmony/internal/rsl"
	"harmony/internal/vet"
)

// doorOf is a connection of srv's, enough to run its door (conn.admit).
func doorOf(srv *Server) *conn { return &conn{srv: srv, instances: make(map[int]bool)} }

// TestLeaderAppliesTheDoorsDecode: the member that proposes a bundle_setup
// registers the analysis its door made of the bundle, and decodes and
// analyses nothing again, whether the door vetted the bundle or, with
// vetting off, only analysed it. An entry proposed without a hand-off is
// decoded.
func TestLeaderAppliesTheDoorsDecode(t *testing.T) {
	for _, mode := range []VetMode{VetWarn, VetOff} {
		t.Run(mode.String(), func(t *testing.T) {
			srv, ctrl := startTestServer(t, Config{Vet: mode})
			d, reply := doorOf(srv).admit(dbRSL)
			if reply != nil {
				t.Fatal(reply.Error)
			}
			if d == nil {
				t.Fatalf("vet %s: the door handed over no analysis", mode)
			}
			if _, _, err := srv.rep.Propose(&replog.Entry{Op: replog.OpRegister, RSL: dbRSL, Decoded: d}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := srv.rep.Propose(&replog.Entry{Op: replog.OpRegister, RSL: dbRSL}); err != nil {
				t.Fatal(err)
			}
			// Applied, the log's copy lets go of the analysis: the app holds it
			// while it lives, and nothing else should.
			for idx := srv.rep.log.Snapshot().Index + 1; idx <= srv.rep.log.LastIndex(); idx++ {
				if e, err := srv.rep.log.Entry(idx); err == nil && e.Decoded != nil {
					t.Fatalf("entry %d still holds the door's analysis once applied", idx)
				}
			}
			ans := ctrl.Analyses()
			if len(ans) != 2 {
				t.Fatalf("%d analyses, want 2", len(ans))
			}
			if ans[0] != d {
				t.Fatal("the leader decoded or analysed its own proposal again")
			}
			if !ans[0].Enumerated() || len(ans[0].Choices) == 0 {
				t.Fatal("the registered bundle has no analysis")
			}
			if ans[1].Spec == d.Spec {
				t.Fatal("an entry proposed without a hand-off took the door's bundle")
			}
		})
	}
}

// doorDecode decodes and analyses src as a door does.
func doorDecode(t *testing.T, src string) *vet.Bundle {
	t.Helper()
	bundles, _, err := rsl.DecodeScript(src)
	if err != nil || len(bundles) != 1 {
		t.Fatalf("decode: %v (%d bundles)", err, len(bundles))
	}
	return vet.NewBundle(bundles[0])
}

// appliedTo waits until every node has applied exactly the leader's whole
// log, and returns that index.
func appliedTo(t *testing.T, leader *testNode, nodes []*testNode) uint64 {
	t.Helper()
	var idx uint64
	waitTrue(t, 5*time.Second, "every member to apply the leader's log", func() bool {
		idx = leader.rep.log.LastIndex()
		for _, n := range nodes {
			if n.rep.Status().CommitIndex != idx {
				return false
			}
		}
		return true
	})
	return idx
}

// TestDeposedLeaderDecodesWhatReplacedItsProposal: a leader proposes a
// bundle with its door's decode and loses the lead before the entry
// commits; the new leader writes another bundle's registration at that
// index. When the old leader applies that entry it must decode it, not
// register the bundle its door handed over.
func TestDeposedLeaderDecodesWhatReplacedItsProposal(t *testing.T) {
	nodes := startTestCluster(t, 3, time.Minute, 0)
	old := waitLeader(t, nodes)
	var followers []*testNode
	for _, n := range nodes {
		if n != old {
			followers = append(followers, n)
		}
	}
	k := appliedTo(t, old, nodes)
	for _, f := range followers {
		f.kill()
	}

	// Neither proposal can commit: a filler at k+1, the hand-off at k+2.
	stale := strings.Replace(sessionBagRSL(1), "{memory 24}", "{memory 40}", 1)
	d := doorDecode(t, stale)
	go func() { _, _, _ = old.rep.Propose(&replog.Entry{Op: replog.OpReevaluate}) }()
	waitTrue(t, 5*time.Second, "the filler to be appended", func() bool { return old.rep.log.LastIndex() == k+1 })
	go func() { _, _, _ = old.rep.Propose(&replog.Entry{Op: replog.OpRegister, RSL: stale, Decoded: d}) }()
	waitTrue(t, 5*time.Second, "the proposal to be appended", func() bool { return old.rep.log.LastIndex() == k+2 })

	// The old leader's loop stops while the others elect a leader of their
	// own, whose term's first entry takes k+1 and a registration k+2. A
	// sender that took an append before the loop stopped has failed to
	// reach its down peer within an I/O deadline, and then waits for the
	// loop: nothing of the old leader's reaches the restarted members.
	blocked, release := make(chan struct{}), make(chan struct{})
	old.rep.post(event{run: func() { close(blocked); <-release }})
	<-blocked
	time.Sleep(2 * old.rep.ioDeadline())
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()
	for _, f := range followers {
		f.start(t)
	}
	leader := waitLeader(t, followers)
	fresh := sessionBagRSL(2)
	if _, _, err := leader.rep.Propose(&replog.Entry{Op: replog.OpRegister, RSL: fresh}); err != nil {
		t.Fatal(err)
	}
	if e, err := leader.rep.log.Entry(k + 2); err != nil || e.RSL != fresh {
		t.Fatalf("entry %d on the new leader is %+v (%v), not the fresh registration", k+2, e, err)
	}
	close(release)
	released = true

	appliedTo(t, leader, nodes)
	if old.rep.IsLeader() {
		t.Fatal("the old leader still leads")
	}
	for _, an := range old.ctrl.Analyses() {
		if an == d || an.Spec == d.Spec {
			t.Fatal("the deposed leader applied the stale hand-off")
		}
	}
	if got, want := stateJSON(t, old), stateJSON(t, leader); got != want {
		t.Fatalf("the deposed leader's state differs from the new leader's:\n got %s\nwant %s", got, want)
	}
}

// TestHandoffStateMatchesFollowers: a three-member cluster runs bag and
// database-client arrivals and departures through the leader's door, so the
// leader applies every registration with its door's decode while the
// followers decode the entries. After every request, once all three have
// applied the same index, their states are byte-identical.
func TestHandoffStateMatchesFollowers(t *testing.T) {
	nodes := startTestCluster(t, 3, time.Minute, 0)
	leader := waitLeader(t, nodes)
	p := dialNode(t, leader)
	p.call(t, &protocol.Message{Type: protocol.TypeStartup, AppID: "mixed"})
	check := func(what string) {
		t.Helper()
		idx := appliedTo(t, leader, nodes)
		want := stateJSON(t, leader)
		for _, n := range nodes {
			if n == leader {
				continue
			}
			if got := stateJSON(t, n); got != want {
				t.Fatalf("after %s, at index %d, a follower's state differs from the leader's:\n got %s\nwant %s", what, idx, got, want)
			}
		}
	}
	var live []int
	for i := 1; i <= 12; i++ {
		src := sessionBagRSL(i)
		if i%2 == 0 {
			src = strings.Replace(dbRSL, "DBclient:1", fmt.Sprintf("DBclient:%d", i), 1)
		}
		reply := p.call(t, &protocol.Message{Type: protocol.TypeBundleSetup, RSL: src})
		live = append(live, reply.Instance)
		check(fmt.Sprintf("arrival %d", i))
		if i%3 == 0 {
			p.call(t, &protocol.Message{Type: protocol.TypeEnd, Instance: live[0]})
			live = live[1:]
			check(fmt.Sprintf("a departure after arrival %d", i))
		}
	}
	if len(leader.ctrl.Apps()) != len(live) {
		t.Fatalf("%d applications, want %d", len(leader.ctrl.Apps()), len(live))
	}
}
