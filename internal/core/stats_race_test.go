package core

import (
	"sync"
	"testing"
	"time"
)

// TestStatsReadsDuringReevaluate hammers the PruneStats accessor from
// reader goroutines while re-evaluation passes mutate the counters it
// reports, so the race detector proves the accessor synchronizes with the
// optimizer instead of reading the counters bare.
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
}
