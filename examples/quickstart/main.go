// Quickstart: start a Harmony server over a simulated 4-node SP-2, connect
// an application with the client runtime library, export the paper's
// Figure 2a "Simple" bundle, and print the resources Harmony allocated.
package main

import (
	"fmt"
	"log"

	"harmony"
)

const simpleBundle = `
harmonyBundle Simple:1 config {
	{only
		{node worker * {seconds 300} {memory 32} {replicate 4}}
		{communication 10}
	}
}`

func main() {
	if err := run(); err != nil {
		log.Fatal("quickstart: ", err)
	}
}

func run() error {
	// A Harmony deployment is a cluster + controller + server.
	cluster, err := harmony.NewSP2Cluster(4)
	if err != nil {
		return err
	}
	clock := harmony.NewClock()
	defer clock.Stop()
	ctrl, err := harmony.NewController(harmony.ControllerConfig{
		Cluster: cluster,
		Clock:   clock,
	})
	if err != nil {
		return err
	}
	srv, err := harmony.ListenAndServe("127.0.0.1:0", harmony.ServerConfig{Controller: ctrl})
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("harmony server on %s managing %d nodes\n", srv.Addr(), cluster.Size())

	// The application side: the paper's Figure 5 API.
	client, err := harmony.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer client.Close()
	if err := client.Startup("Simple", true); err != nil { // harmony_startup
		return err
	}
	instance, err := client.BundleSetup(simpleBundle) // harmony_bundle_setup
	if err != nil {
		return err
	}
	fmt.Printf("registered as Simple.%d\n", instance)

	// Harmony variables expose the allocation (harmony_add_variable).
	for i := 1; i <= 4; i++ {
		name := fmt.Sprintf("config.only.worker.%d.node", i)
		v, err := client.AddVariable(name, harmony.StrVar("?"))
		if err != nil {
			return err
		}
		fmt.Printf("worker %d -> %s\n", i, v.Str())
	}
	if v, ok := client.Value("config.only.worker.1.memory"); ok {
		fmt.Printf("memory per worker: %g MB\n", v.Num)
	}

	status, objective, err := client.Status()
	if err != nil {
		return err
	}
	fmt.Printf("controller sees %d app(s); objective (mean predicted response time): %.1f s\n",
		len(status), objective)
	return client.End() // harmony_end
}
