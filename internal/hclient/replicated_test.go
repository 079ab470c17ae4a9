package hclient

import (
	"net"
	"testing"
	"time"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/protocol"
	"harmony/internal/server"
	"harmony/internal/simclock"
)

// repNode is one replicated controller member for client-side tests.
type repNode struct {
	ctrl       *core.Controller
	rep        *server.Replica
	srv        *server.Server
	peerAddr   string
	clientAddr string
	peers      []string
}

func (n *repNode) start(t *testing.T) {
	t.Helper()
	cl, err := cluster.NewSP2(8)
	if err != nil {
		t.Fatal(err)
	}
	n.ctrl, err = core.New(core.Config{Cluster: cl, Clock: simclock.New()})
	if err != nil {
		t.Fatal(err)
	}
	n.rep, err = server.NewReplica(n.peerAddr, server.ReplicaConfig{
		Peers:           n.peers,
		ClientAddr:      n.clientAddr,
		Controller:      n.ctrl,
		ElectionTimeout: 80 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", n.clientAddr)
	if err != nil {
		t.Fatal(err)
	}
	n.srv, err = server.Serve(ln, server.Config{Controller: n.ctrl, Replica: n.rep, LeaseGrace: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
}

func (n *repNode) kill() {
	if n.srv != nil {
		_ = n.srv.Close()
		n.srv = nil
	}
	if n.rep != nil {
		_ = n.rep.Close()
		n.rep = nil
	}
}

func reserveAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

func startRepCluster(t *testing.T, size int) []*repNode {
	t.Helper()
	nodes := make([]*repNode, size)
	for i := range nodes {
		nodes[i] = &repNode{peerAddr: reserveAddr(t), clientAddr: reserveAddr(t)}
	}
	for i, n := range nodes {
		for j, other := range nodes {
			if j != i {
				n.peers = append(n.peers, other.peerAddr)
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

func repLeader(t *testing.T, nodes []*repNode) *repNode {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, n := range nodes {
			if n.rep != nil && n.rep.IsLeader() {
				return n
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("no leader elected")
	return nil
}

// clientAddrs joins every member's client address, follower-first so tests
// exercise the redirect path deterministically.
func clientAddrs(nodes []*repNode, leader *repNode) string {
	out := ""
	for _, n := range nodes {
		if n != leader {
			if out != "" {
				out += ","
			}
			out += n.clientAddr
		}
	}
	return out + "," + leader.clientAddr
}

const repRSL = `
harmonyBundle DBclient:1 where {
	{QS
		{node server sp2-01 {seconds 5} {memory 20}}
		{node client * {os linux} {seconds 1} {memory 2}}
		{link client server 2}
	}
	{DS
		{node server sp2-01 {seconds 1} {memory 20}}
		{node client * {os linux} {memory >=17} {seconds 10}}
		{link client server {44 + (client.memory > 24 ? 24 : client.memory) - 17}}
	}
}`

func TestDialSkipsDeadAddresses(t *testing.T) {
	nodes := startRepCluster(t, 1)
	leader := repLeader(t, nodes)
	dead := reserveAddr(t) // nothing listens here
	c, err := Dial(dead + ", " + leader.clientAddr)
	if err != nil {
		t.Fatalf("multi-address dial: %v", err)
	}
	defer c.Close()
	if err := c.Startup("DBclient", false); err != nil {
		t.Fatalf("Startup: %v", err)
	}
}

func TestDialRejectsEmptyAddressList(t *testing.T) {
	if _, err := Dial(" , ,"); err == nil {
		t.Fatal("empty address list accepted")
	}
}

func TestClientFollowsLeaderRedirect(t *testing.T) {
	nodes := startRepCluster(t, 3)
	leader := repLeader(t, nodes)
	// Wait until followers know the leader so redirects carry an address.
	waitFor(t, "followers to learn the leader", 3*time.Second, func() bool {
		for _, n := range nodes {
			if n != leader && n.rep.LeaderClient() != leader.clientAddr {
				return false
			}
		}
		return true
	})

	// Dial follower-first: the startup lands on a follower, is rejected
	// with a redirect, and the client transparently chases the leader.
	c, err := DialWith(clientAddrs(nodes, leader), DialConfig{Reconnect: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Startup("DBclient", false); err != nil {
		t.Fatalf("Startup via follower: %v", err)
	}
	inst, err := c.BundleSetup(repRSL)
	if err != nil {
		t.Fatalf("BundleSetup via follower: %v", err)
	}
	if inst == 0 {
		t.Fatal("no instance assigned")
	}
	if err := c.End(); err != nil {
		t.Fatalf("End: %v", err)
	}
}

func TestClientSurvivesLeaderFailover(t *testing.T) {
	nodes := startRepCluster(t, 3)
	leader := repLeader(t, nodes)

	c, err := DialWith(clientAddrs(nodes, leader), DialConfig{
		Reconnect:   true,
		BackoffBase: 20 * time.Millisecond,
		MaxAttempts: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Startup("DBclient", false); err != nil {
		t.Fatal(err)
	}
	inst, err := c.BundleSetup(repRSL)
	if err != nil {
		t.Fatal(err)
	}

	survivors := make([]*repNode, 0, 2)
	for _, n := range nodes {
		if n != leader {
			survivors = append(survivors, n)
		}
	}
	waitFor(t, "registration to replicate", 3*time.Second, func() bool {
		for _, n := range survivors {
			if len(n.ctrl.Apps()) != 1 {
				return false
			}
		}
		return true
	})
	leader.kill()
	repLeader(t, survivors)

	// The client reconnects (rotating to a survivor, following redirects)
	// and resumes its session: the same instance answers End.
	waitFor(t, "client to resume on the new leader", 10*time.Second, func() bool {
		return c.Heartbeat() == nil
	})
	if got := c.Instance(); got != inst {
		t.Fatalf("instance after failover = %d, want %d", got, inst)
	}
	st := c.Stats()
	if st.Reconnects == 0 {
		t.Fatalf("stats = %+v, want at least one reconnect", st)
	}
	if err := c.End(); err != nil {
		t.Fatalf("End after failover: %v", err)
	}
	waitFor(t, "end to replicate", 3*time.Second, func() bool {
		for _, n := range survivors {
			if len(n.ctrl.Apps()) != 0 {
				return false
			}
		}
		return true
	})
	for _, n := range survivors {
		if err := n.ctrl.Ledger().CheckConservation(); err != nil {
			t.Fatalf("conservation after failover: %v", err)
		}
	}
}

func TestClusterStatusFromClient(t *testing.T) {
	nodes := startRepCluster(t, 1)
	leader := repLeader(t, nodes)
	c, err := Dial(leader.clientAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.ClusterStatus()
	if err != nil {
		t.Fatalf("ClusterStatus: %v", err)
	}
	if st.Role != "leader" || st.Peers != 0 {
		t.Fatalf("status = %+v", st)
	}
	var _ *protocol.ReplicaStatus = st
}
