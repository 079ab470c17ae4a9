package harmony_test

import (
	"context"
	"testing"
	"time"

	"harmony"
)

// TestFacadeEndToEnd drives the public API the way a downstream user
// would: build a cluster, start a server, connect a client, export a
// bundle, and observe a reconfiguration.
func TestFacadeEndToEnd(t *testing.T) {
	cl, err := harmony.NewSP2Cluster(4)
	if err != nil {
		t.Fatal(err)
	}
	clock := harmony.NewClock()
	defer clock.Stop()
	bus := harmony.NewMetricBus(0)
	obj, err := harmony.ObjectiveByName("mean")
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := harmony.NewController(harmony.ControllerConfig{
		Cluster:   cl,
		Clock:     clock,
		Objective: obj,
		Bus:       bus,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := harmony.ListenAndServe("127.0.0.1:0", harmony.ServerConfig{Controller: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	}()

	client, err := harmony.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Startup("DBclient", true); err != nil {
		t.Fatal(err)
	}
	inst, err := client.BundleSetup(`
harmonyBundle DBclient:1 where {
	{QS
		{node server sp2-01 {seconds 5} {memory 20}}
		{node client * {seconds 1} {memory 2}}
		{link client server 2}
	}
	{DS
		{node server sp2-01 {seconds 1} {memory 20}}
		{node client * {memory >=17} {seconds 10}}
		{link client server {44 + (client.memory > 24 ? 24 : client.memory) - 17}}
	}
}`)
	if err != nil {
		t.Fatal(err)
	}
	whereVar, err := client.AddVariable("where", harmony.StrVar("QS"))
	if err != nil {
		t.Fatal(err)
	}
	if whereVar.Str() != "QS" {
		t.Fatalf("initial option = %q", whereVar.Str())
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- client.WaitForUpdate(ctx)
	}()
	time.Sleep(20 * time.Millisecond)
	if _, err := srv.ForceChoice(inst, harmony.Choice{Option: "DS"}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if whereVar.Str() != "DS" {
		t.Fatalf("after reconfiguration option = %q", whereVar.Str())
	}

	status, objective, err := client.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(status) != 1 || status[0].Option != "DS" || objective <= 0 {
		t.Fatalf("status = %+v objective = %g", status, objective)
	}
	if err := client.End(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeHelpers(t *testing.T) {
	bundles, decls, err := harmony.DecodeScript(`
harmonyBundle A:1 b {{O {node n * {seconds 1}}}}
harmonyNode host {speed 2} {memory 64}
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 1 || len(decls) != 1 {
		t.Fatalf("decoded %d bundles, %d decls", len(bundles), len(decls))
	}
	cl, err := harmony.NewCluster(harmony.ClusterConfig{}, decls)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Size() != 1 {
		t.Fatalf("cluster size = %d", cl.Size())
	}
	if _, err := harmony.ObjectiveByName("bogus"); err == nil {
		t.Fatal("bogus objective accepted")
	}
	if harmony.NumVar(3).Num != 3 || harmony.StrVar("x").Str != "x" {
		t.Fatal("var helpers broken")
	}
	if harmony.DefaultPort != 9989 {
		t.Fatalf("DefaultPort = %d", harmony.DefaultPort)
	}
}
