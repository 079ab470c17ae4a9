package server

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/hclient"
	"harmony/internal/metric"
	"harmony/internal/objective"
	"harmony/internal/protocol"
	"harmony/internal/simclock"
)

const dbRSL = `
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

func startTestServer(t *testing.T, cfg Config) (*Server, *core.Controller) {
	t.Helper()
	cl, err := cluster.NewSP2(8)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.New(core.Config{Cluster: cl, Clock: simclock.New()})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Controller = ctrl
	srv, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() {
		_ = srv.Close()
	})
	return srv, ctrl
}

func dialTest(t *testing.T, srv *Server) *hclient.Client {
	t.Helper()
	c, err := hclient.Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestListenRequiresController(t *testing.T) {
	if _, err := Listen("127.0.0.1:0", Config{}); err == nil {
		t.Fatal("config without controller accepted")
	}
}

func TestStartupAndBundleSetup(t *testing.T) {
	srv, ctrl := startTestServer(t, Config{})
	c := dialTest(t, srv)
	if err := c.Startup("DBclient", true); err != nil {
		t.Fatalf("Startup: %v", err)
	}
	inst, err := c.BundleSetup(dbRSL)
	if err != nil {
		t.Fatalf("BundleSetup: %v", err)
	}
	if inst != 1 || c.Instance() != 1 {
		t.Fatalf("instance = %d", inst)
	}
	// Initial configuration arrived with the ack.
	v, ok := c.Value("where")
	if !ok || v.Str != "QS" {
		t.Fatalf("where = %+v, %v", v, ok)
	}
	// Server-side controller agrees.
	apps := ctrl.Apps()
	if len(apps) != 1 || apps[0].Choice.Option != "QS" {
		t.Fatalf("controller apps = %+v", apps)
	}
	// Namespace-derived variables are visible too.
	if mv, ok := c.Value("where.QS.server.memory"); !ok || mv.Num != 20 {
		t.Fatalf("server.memory var = %+v, %v", mv, ok)
	}
}

func TestBundleSetupErrors(t *testing.T) {
	srv, _ := startTestServer(t, Config{})
	c := dialTest(t, srv)
	var se *hclient.ServerError
	if _, err := c.BundleSetup("this is { not rsl"); !errors.As(err, &se) {
		t.Fatalf("bad RSL err = %v", err)
	}
	if _, err := c.BundleSetup("harmonyNode host {speed 1}"); !errors.As(err, &se) {
		t.Fatalf("non-bundle err = %v", err)
	}
}

func TestStartupValidation(t *testing.T) {
	srv, _ := startTestServer(t, Config{})
	c := dialTest(t, srv)
	var se *hclient.ServerError
	if err := c.Startup("", false); !errors.As(err, &se) {
		t.Fatalf("empty appId err = %v", err)
	}
}

func TestForcedReconfigurationPushesUpdate(t *testing.T) {
	srv, _ := startTestServer(t, Config{})
	c := dialTest(t, srv)
	if err := c.Startup("DBclient", true); err != nil {
		t.Fatal(err)
	}
	inst, err := c.BundleSetup(dbRSL)
	if err != nil {
		t.Fatal(err)
	}
	whereVar, err := c.AddVariable("where", protocol.StrVar("QS"))
	if err != nil {
		t.Fatalf("AddVariable: %v", err)
	}

	waitErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		waitErr <- c.WaitForUpdate(ctx)
	}()
	// Give the waiter a moment to arm, then force the QS->DS switch.
	time.Sleep(20 * time.Millisecond)
	if _, err := srv.ForceChoice(inst, core.Choice{Option: "DS"}); err != nil {
		t.Fatalf("ForceChoice: %v", err)
	}
	if err := <-waitErr; err != nil {
		t.Fatalf("WaitForUpdate: %v", err)
	}
	if got := whereVar.Str(); got != "DS" {
		t.Fatalf("where after update = %q, want DS", got)
	}
}

func TestEndReleasesResources(t *testing.T) {
	srv, ctrl := startTestServer(t, Config{})
	c := dialTest(t, srv)
	if err := c.Startup("DBclient", false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BundleSetup(dbRSL); err != nil {
		t.Fatal(err)
	}
	if err := c.End(); err != nil {
		t.Fatalf("End: %v", err)
	}
	if got := len(ctrl.Apps()); got != 0 {
		t.Fatalf("apps after End = %d", got)
	}
	if err := c.End(); !errors.Is(err, hclient.ErrNotRegistered) {
		t.Fatalf("double End err = %v", err)
	}
}

func TestDisconnectUnregisters(t *testing.T) {
	srv, ctrl := startTestServer(t, Config{})
	c, err := hclient.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Startup("DBclient", false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BundleSetup(dbRSL); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(ctrl.Apps()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("disconnect did not unregister the app")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestStatusAndReevaluate(t *testing.T) {
	srv, _ := startTestServer(t, Config{})
	c := dialTest(t, srv)
	if err := c.Startup("DBclient", false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BundleSetup(dbRSL); err != nil {
		t.Fatal(err)
	}
	apps, obj, err := c.Status()
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if len(apps) != 1 || apps[0].App != "DBclient" || apps[0].Option != "QS" {
		t.Fatalf("status apps = %+v", apps)
	}
	if obj <= 0 {
		t.Fatalf("objective = %g", obj)
	}
	if err := c.Reevaluate(); err != nil {
		t.Fatalf("Reevaluate: %v", err)
	}
}

func TestReportFeedsBus(t *testing.T) {
	bus := metric.NewBus(0)
	srv, _ := startTestServer(t, Config{Bus: bus})
	c := dialTest(t, srv)
	if err := c.Startup("DBclient", false); err != nil {
		t.Fatal(err)
	}
	if err := c.Report("DBclient.1.responseTime", 12.5); err != nil {
		t.Fatalf("Report: %v", err)
	}
	s, ok := bus.Last("DBclient.1.responseTime")
	if !ok || s.Value != 12.5 {
		t.Fatalf("bus sample = %+v, %v", s, ok)
	}
}

func TestMultipleClientsShareServer(t *testing.T) {
	srv, ctrl := startTestServer(t, Config{})
	var clients []*hclient.Client
	for i := 0; i < 3; i++ {
		c := dialTest(t, srv)
		if err := c.Startup("DBclient", false); err != nil {
			t.Fatal(err)
		}
		if _, err := c.BundleSetup(dbRSL); err != nil {
			t.Fatalf("client %d BundleSetup: %v", i, err)
		}
		clients = append(clients, c)
	}
	if got := len(ctrl.Apps()); got != 3 {
		t.Fatalf("apps = %d, want 3", got)
	}
	insts := ctrl.ActiveInstances("DBclient")
	if len(insts) != 3 {
		t.Fatalf("instances = %v", insts)
	}
	// Force all to DS; each connected client sees its own update.
	for _, inst := range insts {
		if _, err := srv.ForceChoice(inst, core.Choice{Option: "DS"}); err != nil {
			t.Fatalf("force %d: %v", inst, err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for _, c := range clients {
		for {
			if v, _ := c.Value("where"); v.Str == "DS" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("client never saw DS update")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, _ := startTestServer(t, Config{})
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestStatusReplyIsOneState reads status while clients register and end
// without pause, and requires every reply's objective to be the objective of
// the applications the same reply lists: a reply whose two halves were read
// on either side of an applied decision would not add up.
func TestStatusReplyIsOneState(t *testing.T) {
	srv, _ := startTestServer(t, Config{})
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c, err := hclient.Dial(srv.Addr())
				if err != nil {
					t.Error(err)
					return
				}
				if err := c.Startup("DBclient", false); err == nil {
					if _, err := c.BundleSetup(dbRSL); err == nil {
						_ = c.End()
					}
				}
				_ = c.Close()
			}
		}()
	}
	reader := dialTest(t, srv)
	checked := 0
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		apps, obj, err := reader.Status()
		if err != nil {
			t.Fatalf("Status: %v", err)
		}
		jobs := make([]objective.JobPrediction, len(apps))
		for i, a := range apps {
			jobs[i] = objective.JobPrediction{App: a.App, Seconds: a.PredictedSeconds}
		}
		if want := objective.MeanResponseTime(jobs); math.Float64bits(obj) != math.Float64bits(want) {
			close(stop)
			writers.Wait()
			t.Fatalf("reply %d: objective %v, but its %d applications make %v", checked, obj, len(apps), want)
		}
		if len(apps) > 0 {
			checked++
		}
	}
	close(stop)
	writers.Wait()
	if checked < 50 {
		t.Fatalf("only %d replies listed an application", checked)
	}
}
