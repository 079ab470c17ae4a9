// mixed demonstrates the paper's central claim — a centralized manager can
// tune *collections* of applications, not just individuals (Section 1's
// eight-nodes-to-six example). A variable-parallelism compute job and two
// database clients share one Harmony controller: as databases come and go,
// the controller rebalances the compute job's partition and the database
// options to minimize the mean predicted response time. The metric bus
// records every prediction.
package main

import (
	"fmt"
	"log"
	"time"

	"harmony"
)

func computeBundle() string {
	perf := ""
	for w := 1; w <= 6; w++ {
		perf += fmt.Sprintf("{%d %.1f} ", w, 600.0/float64(w)+2*float64(w*w))
	}
	return fmt.Sprintf(`
harmonyBundle Compute:1 parallelism {
	{workers
		{variable workerNodes {1 2 3 4 5 6}}
		{node worker * {seconds {600 / workerNodes}} {memory 48} {replicate workerNodes} {exclusive 1}}
		{performance {%s}}
	}
}`, perf)
}

func dbBundle(i int) string {
	return fmt.Sprintf(`
harmonyBundle DBclient:%d where {
	{QS
		{node server node1 {seconds 5} {memory 20}}
		{node client * {seconds 1} {memory 2}}
		{link client server 2}
	}
	{DS
		{node server node1 {seconds 1} {memory 20}}
		{node client * {memory >=17} {seconds 10}}
		{link client server {44 + (client.memory > 24 ? 24 : client.memory) - 17}}
	}
}`, i)
}

func main() {
	if err := run(); err != nil {
		log.Fatal("mixed: ", err)
	}
}

func run() error {
	// Six machines; node1 doubles as the database server machine.
	script := ""
	for i := 1; i <= 6; i++ {
		script += fmt.Sprintf("harmonyNode node%d {speed 1} {memory 128} {os linux}\n", i)
	}
	_, decls, err := harmony.DecodeScript(script)
	if err != nil {
		return err
	}
	cluster, err := harmony.NewCluster(harmony.ClusterConfig{}, decls)
	if err != nil {
		return err
	}
	clock := harmony.NewClock()
	defer clock.Stop()
	bus := harmony.NewMetricBus(0)
	ctrl, err := harmony.NewController(harmony.ControllerConfig{
		Cluster:    cluster,
		Clock:      clock,
		Bus:        bus,
		Exhaustive: true,
	})
	if err != nil {
		return err
	}
	if err := ctrl.Subscribe(func(ev harmony.Event) {
		kind := "reconfigured"
		if ev.Initial {
			kind = "admitted"
		}
		fmt.Printf("  [controller] %s %s.%d -> %s (predicted %.1f s)\n",
			kind, ev.App, ev.Instance, ev.Choice, ev.PredictedSeconds)
	}); err != nil {
		return err
	}
	srv, err := harmony.ListenAndServe("127.0.0.1:0", harmony.ServerConfig{Controller: ctrl, Bus: bus})
	if err != nil {
		return err
	}
	defer srv.Close()

	dial := func(app string) (*harmony.Client, error) {
		c, err := harmony.Dial(srv.Addr())
		if err != nil {
			return nil, err
		}
		if err := c.Startup(app, true); err != nil {
			_ = c.Close()
			return nil, err
		}
		return c, nil
	}

	fmt.Println("--- compute job arrives on an otherwise idle system ---")
	compute, err := dial("Compute")
	if err != nil {
		return err
	}
	defer compute.Close()
	if _, err := compute.BundleSetup(computeBundle()); err != nil {
		return err
	}

	fmt.Println("--- two database clients arrive ---")
	var dbs []*harmony.Client
	for i := 1; i <= 2; i++ {
		db, err := dial("DBclient")
		if err != nil {
			return err
		}
		defer db.Close()
		if _, err := db.BundleSetup(dbBundle(i)); err != nil {
			return err
		}
		dbs = append(dbs, db)
	}
	if err := compute.Reevaluate(); err != nil {
		return err
	}
	time.Sleep(50 * time.Millisecond) // let pushed updates land

	apps, objective, err := compute.Status()
	if err != nil {
		return err
	}
	fmt.Println("--- steady state with databases present ---")
	for _, a := range apps {
		fmt.Printf("  %s.%d option=%s hosts=%v predicted=%.1fs\n",
			a.App, a.Instance, a.Option, a.Hosts, a.PredictedSeconds)
	}
	fmt.Printf("  objective: %.2f s\n", objective)

	fmt.Println("--- database clients finish; compute job recovers the machine ---")
	for _, db := range dbs {
		if err := db.End(); err != nil {
			return err
		}
	}
	if err := compute.Reevaluate(); err != nil {
		return err
	}
	apps, objective, err = compute.Status()
	if err != nil {
		return err
	}
	for _, a := range apps {
		fmt.Printf("  %s.%d hosts=%v predicted=%.1fs\n", a.App, a.Instance, a.Hosts, a.PredictedSeconds)
	}
	fmt.Printf("  objective: %.2f s\n", objective)

	// The metric bus retained the controller's prediction history.
	fmt.Println("--- metrics recorded ---")
	for _, name := range bus.Names() {
		st := bus.WindowStats(name, 0)
		fmt.Printf("  %-24s samples=%d last=%.1f\n", name, st.Count, st.Last)
	}
	return nil
}
