package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"harmony/internal/objective"
)

// TestStatsReadsDuringReevaluate hammers the Predictions and JointTrials
// accessors from reader goroutines, each of which also subscribes a listener,
// while greedy passes and the joint search that makes room for an arrival
// mutate the counters they report and publish to the listeners, so the race
// detector proves the accessors read the published view and never the
// counters the writer is moving, and that Subscribe needs no writer's help.
func TestStatsReadsDuringReevaluate(t *testing.T) {
	// Two bags of up to 8 exclusive workers fill ten nodes, so a third only
	// gets in through the joint search (BenchmarkSqueezeCycle's system).
	ctrl, clock := newController(t, 10, Config{})
	for job := 1; job <= 2; job++ {
		if _, _, err := ctrl.Register(decodeBundle(t, bagRSL(fmt.Sprintf("Bag%d", job), job, 8, 300))); err != nil {
			t.Fatalf("register job %d: %v", job, err)
		}
	}
	arrival := decodeBundle(t, bagRSL("Job", 3, 8, 310))
	predictions, trials := ctrl.Predictions(), ctrl.JointTrials()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ctrl.Subscribe(func(Event) {}); err != nil {
				t.Error(err)
			}
			for {
				select {
				case <-stop:
					return
				default:
					_, _ = ctrl.Predictions(), ctrl.JointTrials()
				}
			}
		}()
	}

	for pass := 1; pass <= 5; pass++ {
		clock.AdvanceTo(time.Duration(pass) * 40 * time.Second)
		ctrl.Reevaluate()
		inst, _, err := ctrl.Register(arrival)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ctrl.Unregister(inst); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// The counters must have moved and still be readable after the passes.
	if ctrl.Predictions() == predictions || ctrl.JointTrials() == trials {
		t.Errorf("five cycles left the counters untouched: %d predictions, %d trials", ctrl.Predictions(), ctrl.JointTrials())
	}
	if n := len(*ctrl.listeners.Load()); n != 4 {
		t.Errorf("%d listeners subscribed, want 4", n)
	}
}

// TestReadersNeverWaitForAPass stops Register inside its first evaluation — the
// objective blocks until the test lets it go — and requires Status, Apps,
// Objective, Bundles, Predictions and JointTrials to answer from another
// goroutine meanwhile, each with the state from before the registration. Once
// the pass finishes, Status shows the new application.
func TestReadersNeverWaitForAPass(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var blockOnce sync.Once
	letGo := sync.OnceFunc(func() { close(release) })
	defer letGo()
	blocking := func(jobs []objective.JobPrediction) float64 {
		if len(jobs) > 0 {
			blockOnce.Do(func() {
				close(entered)
				<-release
			})
		}
		return objective.MeanResponseTime(jobs)
	}
	ctrl, _ := newController(t, 8, Config{Objective: blocking})
	bundle := bagBundle(t)
	registered := make(chan error, 1)
	go func() {
		_, _, err := ctrl.Register(bundle)
		registered <- err
	}()
	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		t.Fatal("Register never evaluated the objective")
	}

	type reading struct {
		objective, statusObjective float64
		apps, statusApps, bundles  int
		predictions, jointTrials   uint64
	}
	read := make(chan reading, 1)
	go func() {
		obj, apps := ctrl.Status()
		read <- reading{
			statusObjective: obj, statusApps: len(apps),
			apps: len(ctrl.Apps()), objective: ctrl.Objective(), bundles: len(ctrl.Bundles()),
			predictions: ctrl.Predictions(), jointTrials: ctrl.JointTrials(),
		}
	}()
	select {
	case r := <-read:
		if r != (reading{}) {
			t.Errorf("readers saw %+v during the pass, want the state before the registration", r)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("readers waited for the optimizer pass")
	}

	letGo()
	if err := <-registered; err != nil {
		t.Fatal(err)
	}
	if obj, apps := ctrl.Status(); len(apps) != 1 || apps[0].App != "Bag" || obj != 70 {
		t.Fatalf("after the pass Status = %g, %+v; want the bag at 70 s", obj, apps)
	}
}
