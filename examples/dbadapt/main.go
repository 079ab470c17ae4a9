// dbadapt replays the control plane of the paper's Figure 7 experiment
// over real TCP: three database clients connect to a Harmony server one
// after another, each exporting the Figure 3 bundle (query-shipping vs
// data-shipping). The controller is configured with the paper's rule —
// below three active clients everyone query-ships; at three, everyone is
// reconfigured to data-shipping — and each client observes the switch
// through its Harmony variables, reconfiguring "at the end of the current
// query" as the paper describes.
//
// (The measured response-time curves of Figure 7 are regenerated by the
// benchmark harness and `hbench F7`, which drive the simulated database on
// a virtual clock; this example demonstrates the live client/server path.)
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"harmony"
)

func dbBundle(instance int, clientHost string) string {
	return fmt.Sprintf(`
harmonyBundle DBclient:%d where {
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
}`, instance, clientHost, clientHost)
}

func main() {
	if err := run(); err != nil {
		log.Fatal("dbadapt: ", err)
	}
}

func run() error {
	// One server machine plus three client machines.
	_, decls, err := harmony.DecodeScript(`
harmonyNode dbserver {speed 1} {memory 128} {os linux}
harmonyNode dbclient1 {speed 1} {memory 64} {os linux}
harmonyNode dbclient2 {speed 1} {memory 64} {os linux}
harmonyNode dbclient3 {speed 1} {memory 64} {os linux}
`)
	if err != nil {
		return err
	}
	cluster, err := harmony.NewCluster(harmony.ClusterConfig{}, decls)
	if err != nil {
		return err
	}
	clock := harmony.NewClock()
	defer clock.Stop()
	ctrl, err := harmony.NewController(harmony.ControllerConfig{Cluster: cluster, Clock: clock})
	if err != nil {
		return err
	}

	srv, err := harmony.ListenAndServe("127.0.0.1:0", harmony.ServerConfig{Controller: ctrl})
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("harmony server on %s\n", srv.Addr())

	// The paper's configured rule, applied whenever the population changes.
	// The server forces each choice through its replicated log: nothing
	// beside a server mutates the controller directly.
	const switchThreshold = 3
	applyRule := func() {
		active := ctrl.ActiveInstances("DBclient")
		want := "QS"
		if len(active) >= switchThreshold {
			want = "DS"
		}
		for _, id := range active {
			if _, err := srv.ForceChoice(id, harmony.Choice{Option: want}); err != nil {
				log.Printf("rule: %v", err)
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var (
		mu       sync.Mutex
		clients  []*harmony.Client
		whereVar []*harmony.Variable
		wg       sync.WaitGroup
	)
	startClient := func(i int) error {
		client, err := harmony.Dial(srv.Addr())
		if err != nil {
			return err
		}
		if err := client.Startup("DBclient", true); err != nil {
			return err
		}
		if _, err := client.BundleSetup(dbBundle(i, fmt.Sprintf("dbclient%d", i))); err != nil {
			return err
		}
		applyRule()
		where, err := client.AddVariable("where", harmony.StrVar("QS"))
		if err != nil {
			return err
		}
		mu.Lock()
		clients = append(clients, client)
		whereVar = append(whereVar, where)
		mu.Unlock()
		fmt.Printf("client %d: processing queries via %s\n", i, where.Str())

		// Watch the Harmony variable between "queries", as a database
		// would at query boundaries (Section 5). The connection stays up;
		// dropping it would be an implicit harmony_end.
		wg.Add(1)
		go func() {
			defer wg.Done()
			mode := where.Str()
			for {
				if err := client.WaitForUpdate(ctx); err != nil {
					return
				}
				if m := where.Str(); m != mode {
					fmt.Printf("client %d: reconfigured %s -> %s (finishing current query first)\n", i, mode, m)
					mode = m
				}
			}
		}()
		return nil
	}

	for i := 1; i <= 3; i++ {
		fmt.Printf("--- client %d arrives ---\n", i)
		if err := startClient(i); err != nil {
			return err
		}
		// Give pushed updates a moment to land before the next arrival.
		time.Sleep(100 * time.Millisecond)
	}
	// Wait until every client observes data-shipping.
	deadline := time.Now().Add(5 * time.Second)
	for {
		allDS := true
		mu.Lock()
		for _, w := range whereVar {
			if w.Str() != "DS" {
				allDS = false
			}
		}
		mu.Unlock()
		if allDS || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	fmt.Println("--- final state ---")
	apps, objective, err := clients[0].Status()
	if err != nil {
		return err
	}
	for _, a := range apps {
		fmt.Printf("DBclient.%d option=%s switches=%d hosts=%v\n", a.Instance, a.Option, a.Switches, a.Hosts)
	}
	fmt.Printf("objective (mean predicted response time): %.2f s\n", objective)

	cancel()
	wg.Wait()
	for _, c := range clients {
		_ = c.Close()
	}
	return nil
}
