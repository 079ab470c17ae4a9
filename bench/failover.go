package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"harmony/internal/hclient"
)

// failoverKills is how many times the traced replicated run kills the leader.
const failoverKills = 3

// failoverStats are the observations of the leader-kill phase.
type failoverStats struct {
	resume, election, catchup Samples
	attempted, failed         int
	notes                     []string
}

// failover is the traced replicated run's second phase. With the writer
// stopped it repeatedly finds the leader, kills its process, times until the
// reader's next successful Status (the time without service a session-bound
// client sees) and until a survivor reports itself leader, then restarts the
// member on its data directory and times until its commit index catches up.
func failover(ctx context.Context, l *live) (*failoverStats, error) {
	fs := &failoverStats{}
	for k := 1; k <= failoverKills; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		leader, err := l.dep.waitLeader(clusterWait, -1)
		if err != nil {
			return nil, err
		}
		killed := time.Now()
		l.dep.kill(leader)

		var wg sync.WaitGroup
		var elected time.Time
		var electErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, electErr = l.dep.waitLeader(clusterWait, leader); electErr == nil {
				elected = time.Now()
			}
		}()
		resumed, err := nextStatus(ctx, l.s, clusterWait)
		wg.Wait()
		fs.attempted += 2
		if err != nil {
			fs.failed++
			fs.notes = append(fs.notes, fmt.Sprintf("kill %d: reader never resumed: %v", k, err))
		} else {
			fs.resume.add(resumed.Sub(killed))
			l.s.rec.add("hclient.resume", 0, -1, killed, resumed)
		}
		if electErr != nil {
			fs.failed++
			fs.notes = append(fs.notes, fmt.Sprintf("kill %d: %v", k, electErr))
			return fs, nil // without a leader the remaining kills mean nothing
		}
		fs.election.add(elected.Sub(killed))

		// Restart on the same data directory and wait for it to catch up
		// with the commit index the new leader had at that moment.
		_, st, err := l.dep.leaderStatus(clusterWait, leader)
		if err != nil {
			return nil, err
		}
		restarted := time.Now()
		if err := l.dep.start(leader); err != nil {
			return nil, err
		}
		if err := l.dep.waitListening(leader); err != nil {
			return nil, err
		}
		fs.attempted++
		if err := waitCommit(l.dep, leader, st.CommitIndex, clusterWait); err != nil {
			fs.failed++
			fs.notes = append(fs.notes, fmt.Sprintf("kill %d: %v", k, err))
		} else {
			fs.catchup.add(time.Since(restarted))
		}
		// Every resident must be back before the next leader dies.
		for i, r := range l.s.residents {
			deadline := time.Now().Add(clusterWait)
			for r.client.Stats().Reconnects < r.admitted.Reconnects+uint64(k) {
				if time.Now().After(deadline) {
					return nil, fmt.Errorf("kill %d: resident %d never reconnected", k, i)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	return fs, nil
}

// nextStatus calls the reader's Status until one succeeds and returns when.
// A call whose connection died under it fails with the transient reconnect
// error; the next call waits inside the client for the reconnect.
func nextStatus(ctx context.Context, s *Session, timeout time.Duration) (time.Time, error) {
	deadline := time.Now().Add(timeout)
	for {
		_, _, err := s.reader.Status()
		if err == nil {
			return time.Now(), nil
		}
		if !errors.Is(err, hclient.ErrReconnecting) {
			return time.Time{}, err
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return time.Time{}, errors.New("timed out")
		}
	}
}

// waitCommit polls member i until its commit index reaches target.
func waitCommit(dep *Deployment, i int, target uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		st, err := dep.clusterStatus(i)
		if err == nil && st.CommitIndex >= target {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("member %d never reached commit index %d (%v)", i, target, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// followerLag runs n more writer cycles and, after each ack of End, times
// until both followers' commit index has reached the leader's.
func followerLag(ctx context.Context, l *live, n int) (Samples, error) {
	var lag Samples
	var discard windowStats
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := l.s.cycle(&discard); err != nil {
			return nil, err
		}
		acked := time.Now()
		leader, st, err := l.dep.leaderStatus(clusterWait, -1)
		if err != nil {
			return nil, err
		}
		for j := range l.dep.members {
			if j == leader {
				continue
			}
			if err := waitCommit(l.dep, j, st.CommitIndex, clusterWait); err != nil {
				return nil, err
			}
		}
		lag.add(time.Since(acked))
	}
	return lag, nil
}
