package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"harmony"
	"harmony/internal/replog"
)

// probeReplica times Replica.Propose of a re-evaluation entry on a 3-member
// loopback cluster inside this process, with and without a data directory:
// the propose→(fsync)→quorum→apply path with no client protocol around it.
func probeReplica(p *probeCtx, res *Result) error {
	durable, n, err := proposeMedian(p.in.Workload, filepath.Join(p.dir, "probe-replica"))
	if err != nil {
		return err
	}
	res.set("replica.propose_ms_p50", "ms", durable, n)
	memory, n, err := proposeMedian(p.in.Workload, "")
	if err != nil {
		return err
	}
	res.set("replica.propose_mem_ms_p50", "ms", memory, n)
	return nil
}

// proposeMedian starts three replicas over empty controllers for the
// workload's cluster, waits for a leader, and returns the median time of a
// proposal on it. dataDir "" keeps the logs in memory.
func proposeMedian(w Workload, dataDir string) (float64, int, error) {
	for attempt := 0; ; attempt++ {
		dir := dataDir
		if dir != "" {
			dir = filepath.Join(dataDir, fmt.Sprint("try-", attempt))
		}
		m, n, err := proposeOnce(w, dir)
		if !isLostOutcome(err) || attempt == lostOutcomeRetries {
			return m, n, err
		}
	}
}

func proposeOnce(w Workload, dataDir string) (float64, int, error) {
	const members = 3
	addrs := make([]string, members)
	for i := range addrs {
		var err error
		if addrs[i], err = reservePort(); err != nil {
			return 0, 0, err
		}
	}
	var shadows []*Shadow
	var replicas []*harmony.Replica
	defer func() {
		for _, r := range replicas {
			_ = r.Close()
		}
		for _, sh := range shadows {
			sh.Close()
		}
	}()
	for i := range addrs {
		sh, err := newShadow(w, 0, nil)
		if err != nil {
			return 0, 0, err
		}
		shadows = append(shadows, sh)
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		cfg := harmony.ReplicaConfig{Peers: peers, Controller: sh.ctrl}
		if dataDir != "" {
			cfg.DataDir = filepath.Join(dataDir, fmt.Sprint(i))
		}
		r, err := harmony.NewReplica(addrs[i], cfg)
		if err != nil {
			return 0, 0, err
		}
		replicas = append(replicas, r)
	}
	var leader *harmony.Replica
	for deadline := time.Now().Add(clusterWait); leader == nil; {
		for _, r := range replicas {
			if r.IsLeader() {
				leader = r
			}
		}
		if leader == nil {
			if time.Now().After(deadline) {
				return 0, 0, errors.New("probe replica: no leader elected")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	var samples Samples
	for i := 0; i < 40; i++ {
		t0 := time.Now()
		if _, _, err := leader.Propose(&replog.Entry{Op: replog.OpReevaluate}); err != nil {
			return 0, 0, fmt.Errorf("probe replica: propose: %w", err)
		}
		if i >= 5 { // the first proposals still bring the followers' logs level
			samples.add(time.Since(t0))
		}
	}
	return median(samples), len(samples), nil
}
