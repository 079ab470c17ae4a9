package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"harmony/internal/cluster"
	"harmony/internal/namespace"
	"harmony/internal/replog"
	"harmony/internal/simclock"
)

// The record/replay property: a follower applying the same log entries (same
// order, same virtual times) as the leader reconstructs a bit-identical
// controller — ledger, app table, namespace and objective — including when it
// starts from a mid-log snapshot instead of replaying from the beginning.

// replayBagRSL is the fig4-shaped variable-parallelism bundle.
func replayBagRSL(i int) string {
	return fmt.Sprintf(`
harmonyBundle Bag%d:%d parallelism {
	{workers
		{variable workerNodes {1 2 3}}
		{node worker * {os linux} {seconds {12 / workerNodes}} {memory 24} {replicate workerNodes}}
	}
}`, i, i)
}

// replayDBRSL is the fig7-shaped two-option client/server bundle.
func replayDBRSL(i int, host string) string {
	return fmt.Sprintf(`
harmonyBundle DBclient%d:%d where {
	{QS
		{node server sp2-01 {seconds 5} {memory 20}}
		{node client %s {os linux} {seconds 1} {memory 2}}
		{link client server 2}
	}
	{DS
		{node server sp2-01 {seconds 1} {memory 20}}
		{node client %s {os linux} {memory >=17} {seconds 10}}
		{link client server 30}
	}
}`, i, i, host, host)
}

func newReplayController(t *testing.T) *Controller {
	t.Helper()
	cl, err := cluster.NewSP2(6)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(Config{Cluster: cl, Clock: simclock.New()})
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// genReplayLog produces a seeded churn script: registrations of both bundle
// shapes, unregistrations, node down/up, forced choices and re-evaluations,
// with monotone virtual times. Entries record the churn; the applier decides
// which ones fail (failures must match across replicas too).
func genReplayLog(seed int64, n int) []replog.Entry {
	rng := rand.New(rand.NewSource(seed))
	hosts := []string{"sp2-02", "sp2-03", "sp2-04", "sp2-05", "sp2-06"}
	var entries []replog.Entry
	now := time.Duration(0)
	nextReg := 0
	var live []int // instances registered so far (may already be gone)
	down := map[string]bool{}
	for i := 0; i < n; i++ {
		now += time.Duration(rng.Intn(5000)) * time.Millisecond
		e := replog.Entry{Index: uint64(i + 1), Term: 1, Time: now}
		k := rng.Intn(10)
		if k < 4 && len(live) >= 4 {
			// Bound concurrent apps: the exhaustive accommodation fallback is
			// a cross-product search, and this test is about determinism, not
			// optimizer scale.
			k = 4
		}
		switch {
		case k < 4: // register
			nextReg++
			if rng.Intn(2) == 0 {
				e.Op, e.RSL = replog.OpRegister, replayBagRSL(nextReg)
			} else {
				e.Op, e.RSL = replog.OpRegister, replayDBRSL(nextReg, hosts[rng.Intn(len(hosts))])
			}
			live = append(live, nextReg)
		case k < 6: // unregister a (possibly stale) instance
			e.Op = replog.OpUnregister
			if len(live) > 0 {
				j := rng.Intn(len(live))
				e.Instance = live[j]
				live = append(live[:j], live[j+1:]...)
			} else {
				e.Instance = 99 // deterministic ErrUnknownInstance
			}
		case k < 7: // node lifecycle
			h := hosts[rng.Intn(len(hosts))]
			e.Op, e.Hostname = replog.OpNodeState, h
			if down[h] {
				e.State = "up"
				delete(down, h)
			} else {
				e.State = []string{"down", "drain"}[rng.Intn(2)]
				down[h] = true
			}
		case k < 8: // force a parallelism choice (errors fine if mismatched)
			e.Op = replog.OpForceChoice
			if len(live) > 0 {
				e.Instance = live[rng.Intn(len(live))]
			} else {
				e.Instance = 99
			}
			e.Choice = &replog.Choice{
				Option: "workers",
				Vars:   map[string]float64{"workerNodes": float64(1 + rng.Intn(3))},
			}
		default:
			e.Op = replog.OpReevaluate
		}
		entries = append(entries, e)
	}
	return entries
}

// fingerprint captures everything that must be identical across replicas.
type fingerprint struct {
	Nodes     any
	Links     any
	Claims    any
	Apps      []Snapshot
	NS        map[string]map[string]namespace.Value
	Objective float64
	NextInst  int
	ClaimSeq  uint64
	Now       time.Duration
}

func takeFingerprint(t *testing.T, c *Controller) fingerprint {
	t.Helper()
	fp := fingerprint{
		Nodes:     c.ledger.Nodes(),
		Links:     c.ledger.Links(),
		Claims:    c.ledger.Claims(),
		Apps:      c.Apps(),
		NS:        map[string]map[string]namespace.Value{},
		Objective: c.Objective(),
		ClaimSeq:  c.ledger.ClaimSeq(),
		Now:       c.cfg.Clock.Now(),
	}
	fp.NextInst = c.nextInstance
	owners := make(map[int]string, len(c.apps))
	for id, a := range c.apps {
		owners[id] = a.owner()
	}
	for id, owner := range owners {
		snap := map[string]namespace.Value{}
		if err := c.Namespace().Walk(owner, func(p string, v namespace.Value) { snap[p] = v }); err != nil {
			continue // degraded apps have no namespace entries
		}
		fp.NS[fmt.Sprintf("%d:%s", id, owner)] = snap
	}
	return fp
}

// applyAll runs every entry, recording per-entry error strings (failures are
// part of the deterministic contract: they must fail identically everywhere).
func applyAll(t *testing.T, c *Controller, entries []replog.Entry) []string {
	t.Helper()
	outcomes := make([]string, len(entries))
	for i := range entries {
		if _, err := c.Apply(&entries[i]); err != nil {
			outcomes[i] = err.Error()
		}
	}
	return outcomes
}

func TestRecordReplayBitIdentical(t *testing.T) {
	for _, seed := range []int64{1, 2, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			entries := genReplayLog(seed, 60)

			leader := newReplayController(t)
			want := applyAll(t, leader, entries)

			follower := newReplayController(t)
			got := applyAll(t, follower, entries)

			if !reflect.DeepEqual(want, got) {
				t.Fatalf("apply outcomes diverge:\nleader   %v\nfollower %v", want, got)
			}
			lf, ff := takeFingerprint(t, leader), takeFingerprint(t, follower)
			if !reflect.DeepEqual(lf, ff) {
				t.Fatalf("replayed state diverges:\nleader   %+v\nfollower %+v", lf, ff)
			}
		})
	}
}

func TestRecordReplayFromSnapshot(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			entries := genReplayLog(seed, 60)
			leader := newReplayController(t)
			applyAll(t, leader, entries)

			// A replica that applied half the log snapshots its state...
			mid := newReplayController(t)
			applyAll(t, mid, entries[:30])
			data, err := mid.EncodeState()
			if err != nil {
				t.Fatal(err)
			}
			// ...and a fresh replica restores from it and replays the tail.
			late := newReplayController(t)
			st, err := DecodeState(data)
			if err != nil {
				t.Fatal(err)
			}
			if err := late.Restore(st); err != nil {
				t.Fatal(err)
			}
			midFP, lateFP := takeFingerprint(t, mid), takeFingerprint(t, late)
			if !reflect.DeepEqual(midFP, lateFP) {
				t.Fatalf("restored state diverges from source:\nsource   %+v\nrestored %+v", midFP, lateFP)
			}
			applyAll(t, late, entries[30:])
			lf, tf := takeFingerprint(t, leader), takeFingerprint(t, late)
			if !reflect.DeepEqual(lf, tf) {
				t.Fatalf("snapshot+tail state diverges from full replay:\nfull %+v\ntail %+v", lf, tf)
			}
		})
	}
}

// TestRestoreOnUsedController proves Restore wipes existing state first, the
// situation of a lagging follower receiving an install-snapshot mid-life.
func TestRestoreOnUsedController(t *testing.T) {
	entries := genReplayLog(5, 40)
	leader := newReplayController(t)
	applyAll(t, leader, entries)
	data, err := leader.EncodeState()
	if err != nil {
		t.Fatal(err)
	}

	lagger := newReplayController(t)
	applyAll(t, lagger, genReplayLog(99, 25)) // divergent history
	st, err := DecodeState(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := lagger.Restore(st); err != nil {
		t.Fatal(err)
	}
	lf, gf := takeFingerprint(t, leader), takeFingerprint(t, lagger)
	if !reflect.DeepEqual(lf, gf) {
		t.Fatalf("install-snapshot state diverges:\nleader %+v\nlagger %+v", lf, gf)
	}
	if err := lagger.Ledger().CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayIsDeterministic is the replay differential: every golden script's
// log and every genReplayLog seed log goes to several fresh controllers entry
// by entry, and after each entry all of them must return the same bytes from
// applyOne — EncodeState and the namespace leaves. Go randomises the order of
// every map range, so an apply-path write that depends on it sets the
// controllers apart, and so does a wall-clock or math/rand read that reaches
// state.
func TestReplayIsDeterministic(t *testing.T) {
	const controllers = 4
	lockstep := func(t *testing.T, ctrls []*Controller, entries []replog.Entry) {
		for i, e := range entries {
			state, names := applyOne(t, ctrls[0], e)
			for k, c := range ctrls[1:] {
				st, ns := applyOne(t, c, e)
				if d := firstDiff(state, st); d != "" {
					t.Fatalf("entry %d (%s): controller %d's EncodeState differs from controller 0's: %s", i+1, e.Op, k+1, d)
				}
				if d := firstDiff(names, ns); d != "" {
					t.Fatalf("entry %d (%s): controller %d's namespace differs from controller 0's: %s", i+1, e.Op, k+1, d)
				}
			}
		}
	}
	for _, s := range goldenScripts {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			ctrls := make([]*Controller, controllers)
			var hosts []string
			for k := range ctrls {
				ctrls[k], hosts = s.controller(t)
			}
			lockstep(t, ctrls, s.log(hosts))
		})
	}
	for _, seed := range []int64{1, 2, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			ctrls := make([]*Controller, controllers)
			for k := range ctrls {
				ctrls[k] = newReplayController(t)
			}
			lockstep(t, ctrls, genReplayLog(seed, 60))
		})
	}
}

// firstDiff describes where got first departs from want, with the bytes
// around that point, or returns "" when the two are equal.
func firstDiff(want, got []byte) string {
	if bytes.Equal(want, got) {
		return ""
	}
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	window := func(b []byte) []byte { return b[max(i-60, 0):min(i+60, len(b))] }
	return fmt.Sprintf("at byte %d\nwant …%s…\ngot  …%s…", i, window(want), window(got))
}
