package main

import (
	"encoding/json"
	"path/filepath"
	"time"

	"harmony/internal/replog"
)

// probeReplog times the durable log on the run's temp directory (whose
// filesystem type the result's environment records): one-entry append with
// fsync, a snapshot save the size of the resident state, and recovery of 64 entries.
func probeReplog(p *probeCtx, res *Result) error {
	dir := filepath.Join(p.dir, "probe-replog")
	store, _, err := replog.OpenStore(dir)
	if err != nil {
		return err
	}
	entry := replog.Entry{Term: 1, Op: replog.OpRegister, RSL: p.arrival.RSL, Token: shadowToken}
	line, err := json.Marshal(&entry)
	if err != nil {
		_ = store.Close()
		return err
	}
	res.set("replog.entry_bytes", "B", float64(len(line)+1), 0)

	var index uint64
	var aerr error
	ns, n := timeOp(probeBudget, 1, func() {
		index++
		entry.Index = index
		if err := store.AppendEntries([]replog.Entry{entry}); err != nil {
			aerr = err
		}
	})
	if aerr != nil {
		_ = store.Close()
		return aerr
	}
	res.set("replog.append_fsync_us", "us", us(ns), n)

	// A snapshot's bulk is the admitted bundles' RSL sources; the residents'
	// texts stand in for it (the controller serializes its state only for
	// bundles registered through the log, which the shadow's were not).
	state, err := json.Marshal(p.in.Residents)
	if err != nil {
		_ = store.Close()
		return err
	}
	snap := replog.Snapshot{Index: index, Term: 1, Data: state}
	ns, n = timeOp(probeBudget, 1, func() {
		if err := store.SaveSnapshot(snap, nil); err != nil {
			aerr = err
		}
	})
	if aerr != nil {
		_ = store.Close()
		return aerr
	}
	res.set("replog.snapshot_save_ms", "ms", ms(ns), n)

	var tail []replog.Entry
	for i := 1; i <= 64; i++ {
		e := entry
		e.Index = index + uint64(i)
		tail = append(tail, e)
	}
	if err := store.AppendEntries(tail); err != nil {
		_ = store.Close()
		return err
	}
	if err := store.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	reopened, persisted, err := replog.OpenStore(dir)
	took := time.Since(t0)
	if err != nil {
		return err
	}
	res.set("replog.recover_ms", "ms", float64(took)/float64(time.Millisecond), len(persisted.Entries))
	return reopened.Close()
}
