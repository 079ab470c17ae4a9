package server

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/hclient"
	"harmony/internal/replog"
	"harmony/internal/rsl"
	"harmony/internal/simclock"
)

// crowdBundle is a Figure-3 database client pinned to its own client host,
// as in the benchmark's db-crowd workload.
func crowdBundle(instance int) string {
	h := fmt.Sprintf("dbclient%03d", instance)
	return fmt.Sprintf(`harmonyBundle DBclient:%d where {
	{QS
		{node server dbserver {seconds 5} {memory 20}}
		{node client %s {os linux} {seconds 1} {memory 2}}
		{link client server 2}
	}
	{DS
		{node server dbserver {seconds 1} {memory 20}}
		{node client %s {os linux} {memory >=17} {seconds 10}}
		{link client server {44 + (client.memory > 24 ? 24 : client.memory) - 17}}
	}
}`, instance, h, h)
}

// BenchmarkStatusRoundTrip measures a full request/reply over the TCP
// stack (client library -> server -> controller -> reply) with one and with
// 64 admitted database clients, db-crowd's population. The cluster is
// db-crowd's: one server host whose memory scales with the population, so
// every client admits, and a client host for each.
func BenchmarkStatusRoundTrip(b *testing.B) {
	for _, apps := range []int{1, 64} {
		decls := []*rsl.NodeDecl{{Hostname: "dbserver", Speed: 1, MemoryMB: float64(64 + 24*(apps+1)), OS: "linux", CPUs: 1}}
		for i := 1; i <= apps; i++ {
			decls = append(decls, &rsl.NodeDecl{Hostname: fmt.Sprintf("dbclient%03d", i), Speed: 1, MemoryMB: 64, OS: "linux", CPUs: 1})
		}
		cl, err := cluster.New(cluster.Config{}, decls)
		if err != nil {
			b.Fatal(err)
		}
		ctrl, err := core.New(core.Config{Cluster: cl, Clock: simclock.New()})
		if err != nil {
			b.Fatal(err)
		}
		srv, err := Listen("127.0.0.1:0", Config{Controller: ctrl})
		if err != nil {
			b.Fatal(err)
		}
		// A client's disconnect ends its application, so every client stays
		// connected until the sub-benchmark is done.
		clients := make([]*hclient.Client, apps)
		for i := range clients {
			c, err := hclient.Dial(srv.Addr())
			if err != nil {
				b.Fatal(err)
			}
			clients[i] = c
			if err := c.Startup("bench", false); err != nil {
				b.Fatal(err)
			}
			if _, err := c.BundleSetup(crowdBundle(i + 1)); err != nil {
				b.Fatal(err)
			}
		}
		c := clients[0]
		if got, _, err := c.Status(); err != nil || len(got) != apps {
			b.Fatalf("status lists %d applications (%v), want %d", len(got), err, apps)
		}
		b.Run(fmt.Sprintf("apps=%d", apps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := c.Status(); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, c := range clients {
			c.Close()
		}
		srv.Close()
	}
}

// wideBag is the benchmark's wide-greedy job: Figure 4's bag of tasks over
// workerNodes 1..32 on exclusive nodes, with an explicit model whose optimum
// for 300 s of work is five workers.
func wideBag(name string, job int) string {
	var values, perf strings.Builder
	for n := 1; n <= 32; n++ {
		fmt.Fprintf(&values, " %d", n)
		fmt.Fprintf(&perf, " {%d %g}", n, 300/float64(n)+1.2*float64(n*n))
	}
	return fmt.Sprintf(`harmonyBundle %s:%d parallelism {
	{workers
		{variable workerNodes {%s}}
		{node worker * {seconds {300 / workerNodes}} {memory 32} {replicate workerNodes} {exclusive 1}}
		{performance {%s}}
	}
}`, name, job, values.String(), perf.String())
}

// BenchmarkArrival times one bundle_setup -> ack through a one-member server
// with vet in its default mode: the door's script and joint checks, the
// proposal, the apply of the door's decode and analysis, and the ack with
// the arrival's configuration. db-crowd arrives beside 64 database clients
// on the benchmark's database cluster, wide-greedy beside 8 wide bags on a
// 256-node SP-2. Each iteration's departure is not timed.
func BenchmarkArrival(b *testing.B) {
	crowd := func() (*cluster.Cluster, []string, string, error) {
		decls := []*rsl.NodeDecl{{Hostname: "dbserver", Speed: 1, MemoryMB: 64 + 24*128, OS: "linux", CPUs: 1}}
		for i := 1; i <= 127; i++ {
			decls = append(decls, &rsl.NodeDecl{Hostname: fmt.Sprintf("dbclient%03d", i), Speed: 1, MemoryMB: 64, OS: "linux", CPUs: 1})
		}
		var residents []string
		for i := 1; i <= 64; i++ {
			residents = append(residents, crowdBundle(i))
		}
		cl, err := cluster.New(cluster.Config{}, decls)
		return cl, residents, crowdBundle(65), err
	}
	wide := func() (*cluster.Cluster, []string, string, error) {
		var residents []string
		for job := 1; job <= 8; job++ {
			residents = append(residents, wideBag(fmt.Sprintf("Bag%d", job), job))
		}
		cl, err := cluster.NewSP2(256)
		return cl, residents, wideBag("Job", 1), err
	}
	for _, tc := range []struct {
		name  string
		shape func() (*cluster.Cluster, []string, string, error)
	}{{"db-crowd", crowd}, {"wide-greedy", wide}} {
		b.Run(tc.name, func(b *testing.B) {
			cl, residents, arrival, err := tc.shape()
			if err != nil {
				b.Fatal(err)
			}
			ctrl, err := core.New(core.Config{Cluster: cl, Clock: simclock.New()})
			if err != nil {
				b.Fatal(err)
			}
			srv, err := Listen("127.0.0.1:0", Config{Controller: ctrl})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			for _, src := range residents {
				if _, _, err := srv.rep.Propose(&replog.Entry{Op: replog.OpRegister, RSL: src}); err != nil {
					b.Fatal(err)
				}
			}
			c, err := hclient.Dial(srv.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			if err := c.Startup("bench", false); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.BundleSetup(arrival); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := c.End(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkReplicaPropose measures one committed proposal on a three-member
// loopback cluster, as a replicated client's registration or end waits for
// it: propose, the leader's write and append_entries, the followers' writes,
// quorum, apply. durable gives every member a data directory, so a proposal
// costs an fsync on the leader and on the followers; memory keeps the logs in
// memory and leaves the loop, the wire and the apply.
func BenchmarkReplicaPropose(b *testing.B) {
	for _, durable := range []bool{true, false} {
		name := "memory"
		if durable {
			name = "durable"
		}
		b.Run(name, func(b *testing.B) {
			leader, _ := startLoopbackReplicas(b, durable, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := leader.Propose(&replog.Entry{Op: replog.OpReevaluate}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClientCycle times the benchmark writer's whole cycle over TCP —
// dial, startup, bundle_setup, three heartbeats, end, close — against a
// standalone server, against the leader of a three-member durable loopback
// cluster, and against that cluster as the benchmark's writer dials it
// (redirected): a follower first, with Reconnect, so every cycle's startup
// meets the follower's not_leader and the client brings up a connection to
// the leader it names. It reports the log entries a cycle writes
// (entries/op), counted once the server has cleaned up every connection, and
// the connections a cycle brought up after its first (reconnects/op).
func BenchmarkClientCycle(b *testing.B) {
	for _, name := range []string{"standalone", "replicated", "redirected"} {
		b.Run(name, func(b *testing.B) {
			var srv *Server
			addrs, cfg := "", hclient.DialConfig{}
			if name == "redirected" {
				srv, addrs = startRedirectCluster(b)
				cfg.Reconnect = true
			} else {
				srv = startCycleServer(b, name == "replicated")
				addrs = srv.Addr()
			}
			before := srv.rep.log.LastIndex()
			var reconnects uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reconnects += clientCycle(b, addrs, cfg).Reconnects
			}
			b.StopTimer()
			drainConns(b, srv)
			b.ReportMetric(float64(srv.rep.log.LastIndex()-before)/float64(b.N), "entries/op")
			b.ReportMetric(float64(reconnects)/float64(b.N), "reconnects/op")
		})
	}
}

// startCycleServer starts a server on a loopback port in front of a
// standalone member, or of the leader of three durable loopback replicas.
func startCycleServer(tb testing.TB, replicated bool) *Server {
	tb.Helper()
	var cfg Config
	if replicated {
		cfg.Replica, _ = startLoopbackReplicas(tb, true, false)
		cfg.Controller = cfg.Replica.cfg.Controller
	} else {
		cl, err := cluster.NewSP2(8)
		if err != nil {
			tb.Fatal(err)
		}
		if cfg.Controller, err = core.New(core.Config{Cluster: cl, Clock: simclock.New()}); err != nil {
			tb.Fatal(err)
		}
	}
	srv, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = srv.Close() })
	return srv
}

// startRedirectCluster starts three durable loopback members that each serve
// clients, and returns the leader's server and the members' client
// addresses, the followers' first, so a client's first dial meets a
// follower as the benchmark's writer does.
func startRedirectCluster(tb testing.TB) (*Server, string) {
	tb.Helper()
	leader, srvs := startLoopbackReplicas(tb, true, true)
	var leaderSrv *Server
	var addrs []string
	for _, srv := range srvs {
		if srv.rep == leader {
			leaderSrv = srv
		} else {
			addrs = append(addrs, srv.Addr())
		}
	}
	return leaderSrv, strings.Join(append(addrs, leaderSrv.Addr()), ",")
}

// clientCycle runs the benchmark writer's cycle on a fresh connection:
// startup, bundle_setup, three heartbeats, end, close. It returns the
// client's resilience counters.
func clientCycle(tb testing.TB, addrs string, cfg hclient.DialConfig) hclient.Stats {
	tb.Helper()
	c, err := hclient.DialWith(addrs, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	defer c.Close()
	if err := c.Startup("Bag1", true); err != nil {
		tb.Fatal(err)
	}
	if _, err := c.BundleSetup(sessionBagRSL(1)); err != nil {
		tb.Fatal(err)
	}
	for h := 0; h < 3; h++ {
		if err := c.Heartbeat(); err != nil {
			tb.Fatal(err)
		}
	}
	if err := c.End(); err != nil {
		tb.Fatal(err)
	}
	if err := c.Close(); err != nil {
		tb.Fatal(err)
	}
	return c.Stats()
}

// drainConns waits until the server has dropped every connection, then has
// its replica's loop take a round, so what a cleanup proposed is in the log.
func drainConns(tb testing.TB, srv *Server) {
	tb.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		open := len(srv.conns)
		srv.mu.Unlock()
		if open == 0 {
			break
		}
		if time.Now().After(deadline) {
			tb.Fatalf("%d connection(s) still open", open)
		}
	}
	settle(srv.rep)
}

// startLoopbackReplicas starts three replicas on held loopback listeners and
// returns the one elected. With serve, each member also serves clients on a
// loopback port it advertises (ReplicaConfig.ClientAddr); the servers come
// back in member order, once every follower names the leader's.
func startLoopbackReplicas(tb testing.TB, durable, serve bool) (*Replica, []*Server) {
	tb.Helper()
	listen := func() net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		return ln
	}
	lns := []net.Listener{listen(), listen(), listen()}
	reps := make([]*Replica, 0, len(lns))
	var srvs []*Server
	for i, ln := range lns {
		var peers []string
		for j, other := range lns {
			if j != i {
				peers = append(peers, other.Addr().String())
			}
		}
		cl, err := cluster.NewSP2(8)
		if err != nil {
			tb.Fatal(err)
		}
		ctrl, err := core.New(core.Config{Cluster: cl, Clock: simclock.New()})
		if err != nil {
			tb.Fatal(err)
		}
		cfg := ReplicaConfig{Peers: peers, Controller: ctrl}
		if durable {
			cfg.DataDir = tb.TempDir()
		}
		var clients net.Listener
		if serve {
			clients = listen()
			cfg.ClientAddr = clients.Addr().String()
		}
		rep, err := NewReplicaFromListener(ln, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { rep.Close() })
		reps = append(reps, rep)
		if serve {
			srv, err := Serve(clients, Config{Controller: ctrl, Replica: rep})
			if err != nil {
				tb.Fatal(err)
			}
			tb.Cleanup(func() { _ = srv.Close() })
			srvs = append(srvs, srv)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		for _, leader := range reps {
			if leader.IsLeader() && (!serve || namesLeader(reps, leader)) {
				return leader, srvs
			}
		}
	}
	tb.Fatal("no leader elected")
	return nil, nil
}

// namesLeader reports whether every other replica advertises leader's
// client address as the leader's.
func namesLeader(reps []*Replica, leader *Replica) bool {
	for _, r := range reps {
		if r != leader && r.LeaderClient() != leader.cfg.ClientAddr {
			return false
		}
	}
	return true
}
