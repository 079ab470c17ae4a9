package server

import (
	"testing"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/hclient"
	"harmony/internal/simclock"
)

// BenchmarkStatusRoundTrip measures a full request/reply over the TCP
// stack (client library -> server -> controller -> reply).
func BenchmarkStatusRoundTrip(b *testing.B) {
	cl, err := cluster.NewSP2(4)
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
	c, err := hclient.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.Startup("bench", false); err != nil {
		b.Fatal(err)
	}
	if _, err := c.BundleSetup(dbRSL); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Status(); err != nil {
			b.Fatal(err)
		}
	}
}
