// bagoftasks replays the paper's Figure 4 scenario through the public API:
// instances of the "Bag" variable-parallelism application (Section 3.4)
// arrive at a Harmony server managing an 8-node SP-2. Each exports the
// Figure 2b-style bundle — a workerNodes variable, per-node seconds
// parameterized so total cycles stay constant, and an explicit
// piecewise-linear performance model with a communication knee. Harmony
// gives the first job five nodes (not six or eight) and repartitions the
// machine into near-equal shares as more jobs arrive.
package main

import (
	"fmt"
	"log"

	"harmony"
)

// bagBundle exports the job's alternatives. The performance model embeds
// the application's real cost structure: 300/w compute + 1.2*w^2
// synchronization seconds per iteration.
func bagBundle(job int) string {
	perf := ""
	for w := 1; w <= 8; w++ {
		seconds := 300.0/float64(w) + 1.2*float64(w*w)
		perf += fmt.Sprintf("{%d %.1f} ", w, seconds)
	}
	return fmt.Sprintf(`
harmonyBundle Bag%d:%d parallelism {
	{workers
		{variable workerNodes {1 2 3 4 5 6 7 8}}
		{node worker * {seconds {300 / workerNodes}} {memory 32} {replicate workerNodes} {exclusive 1}}
		{performance {%s}}
		{granularity 10}
	}
}`, job, job, perf)
}

func main() {
	if err := run(); err != nil {
		log.Fatal("bagoftasks: ", err)
	}
}

func run() error {
	cluster, err := harmony.NewSP2Cluster(8)
	if err != nil {
		return err
	}
	clock := harmony.NewClock()
	defer clock.Stop()
	// The joint optimizer reproduces Figure 4b's equal partitions.
	ctrl, err := harmony.NewController(harmony.ControllerConfig{
		Cluster:    cluster,
		Clock:      clock,
		Exhaustive: true,
	})
	if err != nil {
		return err
	}
	srv, err := harmony.ListenAndServe("127.0.0.1:0", harmony.ServerConfig{Controller: ctrl})
	if err != nil {
		return err
	}
	defer srv.Close()

	var clients []*harmony.Client
	defer func() {
		for _, c := range clients {
			_ = c.Close()
		}
	}()

	printPartitions := func() error {
		apps, _, err := clients[0].Status()
		if err != nil {
			return err
		}
		fmt.Print("  partitions:")
		for _, a := range apps {
			fmt.Printf("  %s=%d nodes", a.App, len(a.Hosts))
		}
		fmt.Println()
		return nil
	}

	for job := 1; job <= 3; job++ {
		fmt.Printf("--- job %d arrives ---\n", job)
		client, err := harmony.Dial(srv.Addr())
		if err != nil {
			return err
		}
		clients = append(clients, client)
		if err := client.Startup(fmt.Sprintf("Bag%d", job), true); err != nil {
			return err
		}
		if _, err := client.BundleSetup(bagBundle(job)); err != nil {
			return err
		}
		// A new arrival triggers re-evaluation of the existing jobs
		// (periodic re-evaluation would do the same over time).
		if err := client.Reevaluate(); err != nil {
			return err
		}
		w, err := client.AddVariable("workerNodes", harmony.NumVar(0))
		if err != nil {
			return err
		}
		fmt.Printf("  job %d starts with %g workers\n", job, w.Num())
		if err := printPartitions(); err != nil {
			return err
		}
	}

	fmt.Println("--- job 1 finishes ---")
	if err := clients[0].End(); err != nil {
		return err
	}
	if err := clients[1].Reevaluate(); err != nil {
		return err
	}
	apps, objective, err := clients[1].Status()
	if err != nil {
		return err
	}
	for _, a := range apps {
		fmt.Printf("  %s re-expanded to %d nodes (predicted %.1f s)\n", a.App, len(a.Hosts), a.PredictedSeconds)
	}
	fmt.Printf("objective: %.2f s\n", objective)
	return nil
}
