// buffersize demonstrates the paper's Section 5 running example: "if an
// application exports an option to change its buffer size, it needs to
// periodically read the Harmony variable that indicates the current buffer
// size (as determined by the Harmony controller), and then update its own
// state to this size."
//
// A cache-heavy application exports bufferMB as a Harmony variable: a
// bigger buffer runs faster but claims more memory. Alone on the machine
// it gets the largest buffer; when a memory-hungry job arrives the
// controller shrinks the buffer to fit both, and the application picks the
// change up at its next phase boundary; when the job leaves, the buffer
// grows back.
package main

import (
	"fmt"
	"log"
	"time"

	"harmony"
)

// cacheBundle trades memory for speed: each doubling of the buffer saves
// compute time, and the memory claim follows the buffer size.
const cacheBundle = `
harmonyBundle Cache:1 tuning {
	{run
		{variable bufferMB {8 16 32 64}}
		{node host node1 {seconds {120 - bufferMB}} {memory {bufferMB + 4}}}
	}
}`

// hogBundle is a fixed job that needs most of the machine's memory.
const hogBundle = `
harmonyBundle Hog:1 fixed {
	{only {node host node1 {seconds 30} {memory 100}}}
}`

func main() {
	if err := run(); err != nil {
		log.Fatal("buffersize: ", err)
	}
}

func run() error {
	_, decls, err := harmony.DecodeScript(`harmonyNode node1 {speed 1} {memory 128} {os linux}`)
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

	app, err := harmony.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer app.Close()
	if err := app.Startup("Cache", true); err != nil {
		return err
	}
	if _, err := app.BundleSetup(cacheBundle); err != nil {
		return err
	}
	bufferMB, err := app.AddVariable("bufferMB", harmony.NumVar(8))
	if err != nil {
		return err
	}

	// The application's "phase boundary": it polls the Harmony variable
	// and resizes its buffer when the controller changed it.
	current := bufferMB.Num()
	pollPhase := func(label string) {
		// Allow the pushed update to land, as a real phase would take time.
		deadline := time.Now().Add(time.Second)
		for bufferMB.Num() == current && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if v := bufferMB.Num(); v != current {
			fmt.Printf("%s: resizing buffer %g MB -> %g MB\n", label, current, v)
			current = v
		} else {
			fmt.Printf("%s: buffer stays at %g MB\n", label, current)
		}
	}

	fmt.Printf("alone on the machine: buffer = %g MB\n", current)

	fmt.Println("--- memory-hungry job arrives ---")
	hog, err := harmony.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer hog.Close()
	if err := hog.Startup("Hog", false); err != nil {
		return err
	}
	if _, err := hog.BundleSetup(hogBundle); err != nil {
		return err
	}
	pollPhase("next phase")

	fmt.Println("--- memory-hungry job finishes ---")
	if err := hog.End(); err != nil {
		return err
	}
	pollPhase("next phase")

	apps, objective, err := app.Status()
	if err != nil {
		return err
	}
	for _, a := range apps {
		fmt.Printf("final: %s.%d predicted %.0f s\n", a.App, a.Instance, a.PredictedSeconds)
	}
	fmt.Printf("objective: %.0f s\n", objective)
	return nil
}
