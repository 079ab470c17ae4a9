package server

import (
	"fmt"
	"testing"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/hclient"
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
