package main

import (
	"context"
	"errors"
	"testing"
	"time"

	"harmony/internal/hclient"
)

// A stalled call must charge the requests it delayed: with a 20 ms period
// and a first call of 70 ms, the calls due at 20, 40 and 60 ms are sent late
// and timed from their due instants.
func TestOpenLoopTimesFromDueInstant(t *testing.T) {
	const period = 20 * time.Millisecond
	first := time.Now().Add(5 * time.Millisecond)
	calls := 0
	rs := openLoop(context.Background(), first, first.Add(5*period), period, func() error {
		calls++
		if calls == 1 {
			time.Sleep(70 * time.Millisecond)
		}
		return nil
	})
	if calls != 5 || rs.attempted != 5 || rs.failed != 0 || len(rs.latency) != 5 {
		t.Fatalf("calls=%d attempted=%d failed=%d samples=%d, want 5, 5, 0, 5", calls, rs.attempted, rs.failed, len(rs.latency))
	}
	// Latencies from due: ~70, ~50, ~30, ~10, ~0 ms; lateness: ~0, 50, 30, 10, 0.
	wantLat := []float64{70, 50, 30, 10, 0}
	wantLate := []float64{0, 50, 30, 10, 0}
	for i := range wantLat {
		if d := rs.latency[i] - wantLat[i]; d < -1 || d > 15 {
			t.Errorf("call %d: latency %.1f ms, want about %.0f", i, rs.latency[i], wantLat[i])
		}
		if d := rs.late[i] - wantLate[i]; d < -1 || d > 15 {
			t.Errorf("call %d: sent %.1f ms late, want about %.0f", i, rs.late[i], wantLate[i])
		}
	}
}

func TestOpenLoopClassifiesErrors(t *testing.T) {
	first := time.Now()
	calls := 0
	rs := openLoop(context.Background(), first, first.Add(3*time.Millisecond), time.Millisecond, func() error {
		calls++
		switch calls {
		case 1:
			return hclient.ErrReconnecting
		case 2:
			return errors.New("boom")
		}
		return nil
	})
	if rs.attempted != 3 || rs.transient != 1 || rs.failed != 1 || len(rs.latency) != 1 {
		t.Errorf("attempted=%d transient=%d failed=%d samples=%d, want 3, 1, 1, 1", rs.attempted, rs.transient, rs.failed, len(rs.latency))
	}
}

func TestOpenLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	first := time.Now().Add(time.Hour)
	rs := openLoop(ctx, first, first.Add(time.Hour), time.Second, func() error { return nil })
	if rs.attempted != 0 {
		t.Errorf("a cancelled loop made %d calls", rs.attempted)
	}
}
