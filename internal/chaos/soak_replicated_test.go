package chaos

import (
	"bytes"
	"math"
	"math/rand"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/hclient"
	"harmony/internal/server"
	"harmony/internal/simclock"
	"harmony/internal/testport"
)

// repSoakNode is one member of the replicated soak cluster. Addresses are
// pinned (reserved up front) so a killed member can restart in place, and
// the durable log lives in dir so the restart recovers from disk.
type repSoakNode struct {
	peerAddr   string
	clientAddr string
	dir        string
	seed       int64
	peers      []string

	mu   sync.Mutex
	ctrl *core.Controller
	rep  *server.Replica
	srv  *server.Server
}

func (n *repSoakNode) start(t *testing.T) {
	t.Helper()
	cl, err := cluster.NewSP2(8)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.New(core.Config{Cluster: cl, Clock: simclock.New()})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := server.NewReplica(n.peerAddr, server.ReplicaConfig{
		Peers:           n.peers,
		ClientAddr:      n.clientAddr,
		Controller:      ctrl,
		DataDir:         n.dir,
		SnapshotEvery:   8, // aggressive: exercise compaction + install
		ElectionTimeout: 80 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := net.Listen("tcp", n.clientAddr)
	if err != nil {
		t.Fatal(err)
	}
	// Client traffic goes through fault injection; peer replication traffic
	// stays clean (the log ships over its own listener).
	ln := NewListener(inner, Config{
		Seed:        n.seed,
		DropProb:    0.01,
		DelayProb:   0.05,
		MaxDelay:    2 * time.Millisecond,
		PartialProb: 0.005,
		DupProb:     0.01,
	})
	srv, err := server.Serve(ln, server.Config{
		Controller: ctrl,
		Replica:    rep,
		LeaseGrace: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	n.ctrl, n.rep, n.srv = ctrl, rep, srv
	n.mu.Unlock()
}

func (n *repSoakNode) kill() {
	n.mu.Lock()
	rep, srv := n.rep, n.srv
	n.ctrl, n.rep, n.srv = nil, nil, nil
	n.mu.Unlock()
	if srv != nil {
		_ = srv.Close()
	}
	if rep != nil {
		_ = rep.Close()
	}
}

// live returns the node's controller and replica, or nils while killed.
func (n *repSoakNode) live() (*core.Controller, *server.Replica) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ctrl, n.rep
}

// TestSoakReplicatedLeaderKill is the replication soak: three replicas
// serve churning clients through fault-injected listeners, the leader is
// killed mid-churn and later restarted as a follower (crash recovery from
// its durable log). Clients must resume against the new leader within the
// lease grace, conservation must hold on every live replica throughout,
// and after quiescing all three ledgers must be bit-identical with a
// finite objective.
func TestSoakReplicatedLeaderKill(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	for _, seed := range soakSeeds(t) {
		seed := seed
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			t.Logf("CHAOS_SEED=%d (set this env var to replay)", seed)
			runReplicatedSoak(t, seed)
		})
	}
}

func runReplicatedSoak(t *testing.T, seed int64) {
	const members = 3
	nodes := make([]*repSoakNode, members)
	for i := range nodes {
		nodes[i] = &repSoakNode{
			peerAddr:   testport.Addr(t),
			clientAddr: testport.Addr(t),
			dir:        t.TempDir(),
			seed:       seed*100 + int64(i),
		}
	}
	addrList := ""
	for i, n := range nodes {
		for j, other := range nodes {
			if j != i {
				n.peers = append(n.peers, other.peerAddr)
			}
		}
		if i > 0 {
			addrList += ","
		}
		addrList += n.clientAddr
		n.start(t)
	}
	defer func() {
		for _, n := range nodes {
			n.kill()
		}
	}()
	leaderOf := func(within time.Duration) *repSoakNode {
		deadline := time.Now().Add(within)
		for time.Now().Before(deadline) {
			for _, n := range nodes {
				if _, rep := n.live(); rep != nil && rep.IsLeader() {
					return n
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("no leader elected (CHAOS_SEED=%d)", seed)
		return nil
	}
	leaderOf(5 * time.Second)

	// Continuous conservation check over every live replica.
	stopCheck := make(chan struct{})
	var checkWg sync.WaitGroup
	var conservationErr error
	var conservationMu sync.Mutex
	checkWg.Add(1)
	go func() {
		defer checkWg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopCheck:
				return
			case <-tick.C:
				for _, n := range nodes {
					ctrl, _ := n.live()
					if ctrl == nil {
						continue
					}
					if err := ctrl.Ledger().CheckConservation(); err != nil {
						conservationMu.Lock()
						if conservationErr == nil {
							conservationErr = err
						}
						conservationMu.Unlock()
						return
					}
				}
			}
		}
	}()

	// Node lifecycle churn rides the log: an ops client marks machines down
	// and up through whichever member currently leads. Calls may fail while
	// leadership moves; the soak asserts invariants, not per-call success.
	stopKill := make(chan struct{})
	checkWg.Add(1)
	go func() {
		defer checkWg.Done()
		rng := rand.New(rand.NewSource(seed ^ 0x6b696c6c))
		hosts := []string{"sp2-03", "sp2-04", "sp2-05", "sp2-06", "sp2-07", "sp2-08"}
		ops, err := hclient.DialWith(addrList, hclient.DialConfig{
			Reconnect: true, BackoffBase: 5 * time.Millisecond, MaxAttempts: -1,
		})
		if err != nil {
			return
		}
		defer ops.Close()
		_ = ops.Startup("Ops", false) // a session makes reconnects transparent
		for {
			select {
			case <-stopKill:
				return
			default:
			}
			host := hosts[rng.Intn(len(hosts))]
			_ = ops.NodeState(host, "down")
			time.Sleep(time.Duration(10+rng.Intn(30)) * time.Millisecond)
			_ = ops.NodeState(host, "up")
			time.Sleep(time.Duration(10+rng.Intn(30)) * time.Millisecond)
		}
	}()

	// Client churn against the full member list: dials rotate through
	// members, mutations follow not_leader redirects, and reconnects resume
	// parked sessions wherever the lease grace still holds them.
	const workers = 3
	const rounds = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*31 + int64(w)))
			for r := 0; r < rounds; r++ {
				c, err := hclient.DialWith(addrList, hclient.DialConfig{
					Reconnect:         true,
					HeartbeatInterval: 50 * time.Millisecond,
					BackoffBase:       5 * time.Millisecond,
					BackoffMax:        100 * time.Millisecond,
					MaxAttempts:       -1,
				})
				if err != nil {
					continue
				}
				if err := c.Startup("Soak", true); err == nil {
					if _, err := c.BundleSetup(soakRSL); err == nil {
						for i := 0; i < 3; i++ {
							_ = c.Report("soak.metric", rng.Float64())
							time.Sleep(time.Duration(rng.Intn(20)) * time.Millisecond)
						}
						if rng.Intn(2) == 0 {
							_ = c.End()
						}
					}
				}
				_ = c.Close()
			}
		}(w)
	}

	// Mid-churn: kill the leader, let the survivors elect, then restart the
	// killed member so it recovers from its durable log and rejoins.
	time.Sleep(300 * time.Millisecond)
	victim := leaderOf(5 * time.Second)
	t.Logf("killing leader %s (CHAOS_SEED=%d)", victim.clientAddr, seed)
	victim.kill()
	leaderOf(10 * time.Second)
	time.Sleep(200 * time.Millisecond)
	victim.start(t)

	wg.Wait()
	close(stopKill)

	// Quiesce: abandoned sessions expire after the lease grace and the new
	// leader drains their registrations; every machine is marked up again.
	// Each mark dials afresh — the injected faults may sever any one try.
	markUp := func(host string) bool {
		c, err := hclient.DialWith(addrList, hclient.DialConfig{
			Reconnect: true, BackoffBase: 5 * time.Millisecond, MaxAttempts: -1,
		})
		if err != nil {
			return false
		}
		defer c.Close()
		return c.NodeState(host, "up") == nil
	}
	for _, host := range []string{"sp2-03", "sp2-04", "sp2-05", "sp2-06", "sp2-07", "sp2-08"} {
		deadline := time.Now().Add(10 * time.Second)
		for !markUp(host) {
			if time.Now().After(deadline) {
				t.Fatalf("could not mark %s up during quiesce (CHAOS_SEED=%d)", host, seed)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	drainDeadline := time.Now().Add(15 * time.Second)
	for {
		leader := leaderOf(5 * time.Second)
		ctrl, _ := leader.live()
		if ctrl != nil && len(ctrl.Apps()) == 0 {
			break
		}
		if time.Now().After(drainDeadline) {
			n := -1
			if ctrl != nil {
				n = len(ctrl.Apps())
			}
			t.Fatalf("%d apps still registered after quiesce (CHAOS_SEED=%d)", n, seed)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Every member converges to the same committed prefix: three ledgers and
	// session tables, one byte-identical state, read on each member's loop.
	convergeDeadline := time.Now().Add(10 * time.Second)
	for {
		states := make([][]byte, 0, members)
		for _, n := range nodes {
			_, rep := n.live()
			if rep == nil {
				continue
			}
			b, err := rep.EncodeState()
			if err == nil {
				states = append(states, b)
			}
		}
		identical := len(states) == members
		for i := 1; i < len(states) && identical; i++ {
			identical = bytes.Equal(states[0], states[i])
		}
		if identical {
			break
		}
		if time.Now().After(convergeDeadline) {
			t.Fatalf("replicas did not converge to identical state (CHAOS_SEED=%d)", seed)
		}
		time.Sleep(20 * time.Millisecond)
	}

	close(stopCheck)
	checkWg.Wait()
	conservationMu.Lock()
	if conservationErr != nil {
		conservationMu.Unlock()
		t.Fatalf("ledger conservation violated (CHAOS_SEED=%d): %v", seed, conservationErr)
	}
	conservationMu.Unlock()
	for _, n := range nodes {
		ctrl, _ := n.live()
		if ctrl == nil {
			t.Fatalf("a member is down after quiesce (CHAOS_SEED=%d)", seed)
		}
		if err := ctrl.Ledger().CheckConservation(); err != nil {
			t.Fatalf("final conservation (CHAOS_SEED=%d): %v", seed, err)
		}
	}

	// The cluster still admits work: a probe registers through the member
	// list and the leader's objective is finite.
	var probe *hclient.Client
	for attempt := 0; attempt < 50 && probe == nil; attempt++ {
		c, err := hclient.DialWith(addrList, hclient.DialConfig{
			Reconnect: true, BackoffBase: 5 * time.Millisecond, MaxAttempts: -1,
		})
		if err != nil {
			continue
		}
		if err := c.Startup("Probe", true); err == nil {
			if _, err := c.BundleSetup(soakRSL); err == nil {
				probe = c
				break
			}
		}
		_ = c.Close()
	}
	if probe == nil {
		t.Fatalf("no client could register after quiesce (CHAOS_SEED=%d)", seed)
	}
	defer probe.Close()
	leader := leaderOf(5 * time.Second)
	ctrl, _ := leader.live()
	if obj := ctrl.Objective(); math.IsNaN(obj) || math.IsInf(obj, 0) || obj <= 0 {
		t.Fatalf("objective = %v after recovery (CHAOS_SEED=%d)", obj, seed)
	}
}
