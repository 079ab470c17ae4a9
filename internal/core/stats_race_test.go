package core

import (
	"sync"
	"testing"
	"time"

	"harmony/internal/objective"
)

// TestStatsReadsDuringReevaluate hammers the PruneStats accessor from
// reader goroutines, each of which also subscribes a listener, while
// re-evaluation passes mutate the counters it reports and publish to the
// listeners, so the race detector proves the accessor reads the published
// view and never the counters the passes are writing, and that Subscribe
// needs no writer's help.
func TestStatsReadsDuringReevaluate(t *testing.T) {
	ctrl, clock := newController(t, 16, Config{})
	for j := 1; j <= 3; j++ {
		if _, _, err := ctrl.Register(decodeBundle(t, fig4ShapeRSL(j, 16))); err != nil {
			t.Fatalf("register job %d: %v", j, err)
		}
	}

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
					_ = ctrl.PruneStats()
				}
			}
		}()
	}

	for pass := 1; pass <= 5; pass++ {
		clock.AdvanceTo(time.Duration(pass) * 40 * time.Second)
		ctrl.Reevaluate()
	}
	close(stop)
	wg.Wait()

	// The counters must have moved and still be readable after the passes.
	if ps := ctrl.PruneStats(); ps == (PruneStats{}) {
		t.Errorf("five re-evaluation passes left PruneStats untouched: %+v", ps)
	}
	if n := len(*ctrl.listeners.Load()); n != 4 {
		t.Errorf("%d listeners subscribed, want 4", n)
	}
}

// TestReadersNeverWaitForAPass stops Register inside its first evaluation — the
// objective blocks until the test lets it go — and requires Status, Apps,
// Objective, Bundles and PruneStats to answer from another goroutine
// meanwhile, each with the state from before the registration. Once the pass
// finishes, Status shows the new application.
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
		prune                      PruneStats
	}
	read := make(chan reading, 1)
	go func() {
		obj, apps := ctrl.Status()
		read <- reading{
			statusObjective: obj, statusApps: len(apps),
			apps: len(ctrl.Apps()), objective: ctrl.Objective(), bundles: len(ctrl.Bundles()),
			prune: ctrl.PruneStats(),
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
