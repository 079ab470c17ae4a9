package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"harmony/internal/cluster"
	"harmony/internal/rsl"
	"harmony/internal/simclock"
)

// Property: any interleaving of registrations and unregistrations leaves
// the ledger fully restored once every application is gone — no leaked
// memory, CPU load, or bandwidth.
func TestPropertyRegisterUnregisterRestoresLedger(t *testing.T) {
	mkBundle := func(kind uint8, i int) string {
		switch kind % 3 {
		case 0:
			return fmt.Sprintf(`harmonyBundle DB%d:%d where {
				{QS {node server sp2-01 {seconds 5} {memory 10}} {node client * {seconds 1} {memory 2}} {link client server 2}}
				{DS {node server sp2-01 {seconds 1} {memory 10}} {node client * {memory >=8} {seconds 10}} {link client server {20 - client.memory}}}
			}`, i, i)
		case 1:
			return fmt.Sprintf(`harmonyBundle Par%d:%d p {
				{w {variable n {1 2}} {node x * {seconds {40 / n}} {memory 16} {replicate n}} {performance {{1 40} {2 25}}}}
			}`, i, i)
		default:
			return fmt.Sprintf(`harmonyBundle Single%d:%d s {
				{only {node x * {seconds 7} {memory 4}}}
			}`, i, i)
		}
	}
	f := func(ops []uint8) bool {
		cl, err := cluster.NewSP2(4)
		if err != nil {
			return false
		}
		clock := simclock.New()
		defer clock.Stop()
		ctrl, err := New(Config{Cluster: cl, Clock: clock})
		if err != nil {
			return false
		}
		var live []int
		if len(ops) > 24 {
			ops = ops[:24]
		}
		for i, op := range ops {
			clock.AdvanceTo(clock.Now() + 1e9)
			if op%2 == 0 || len(live) == 0 {
				bundles, _, err := rsl.DecodeScript(mkBundle(op/2, i))
				if err != nil {
					return false
				}
				inst, _, err := ctrl.Register(bundles[0])
				if err != nil {
					continue // capacity exhaustion is legitimate
				}
				live = append(live, inst)
			} else {
				idx := int(op/2) % len(live)
				if _, err := ctrl.Unregister(live[idx]); err != nil {
					return false
				}
				live = append(live[:idx], live[idx+1:]...)
			}
		}
		for _, inst := range live {
			if _, err := ctrl.Unregister(inst); err != nil {
				return false
			}
		}
		installed, free := cl.Ledger().TotalMemory()
		if installed != free {
			return false
		}
		for _, ns := range cl.Ledger().Nodes() {
			if ns.CPULoad != 0 {
				return false
			}
		}
		for _, ls := range cl.Ledger().Links() {
			if ls.ReservedMbps != 0 {
				return false
			}
		}
		return len(ctrl.Apps()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the objective value reported after any successful registration
// sequence is finite and non-negative, and Apps() predictions agree with
// the jobs the objective saw.
func TestPropertyObjectiveFinite(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%4) + 1
		cl, err := cluster.NewSP2(8)
		if err != nil {
			return false
		}
		clock := simclock.New()
		defer clock.Stop()
		ctrl, err := New(Config{Cluster: cl, Clock: clock})
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			src := fmt.Sprintf(`harmonyBundle App%d:%d b {{O {node x * {seconds 10} {memory 8}}}}`, i, i)
			bundles, _, err := rsl.DecodeScript(src)
			if err != nil {
				return false
			}
			if _, _, err := ctrl.Register(bundles[0]); err != nil {
				return false
			}
		}
		obj := ctrl.Objective()
		if obj < 0 || obj != obj || obj > 1e12 {
			return false
		}
		sum := 0.0
		for _, a := range ctrl.Apps() {
			if a.PredictedSeconds <= 0 {
				return false
			}
			sum += a.PredictedSeconds
		}
		mean := sum / float64(n)
		diff := obj - mean
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: forcing choices back and forth any number of times keeps the
// ledger consistent and the switch counter equal to the number of actual
// changes.
func TestPropertyForceChoiceConsistent(t *testing.T) {
	f := func(flips []bool) bool {
		cl, err := cluster.NewSP2(4)
		if err != nil {
			return false
		}
		clock := simclock.New()
		defer clock.Stop()
		ctrl, err := New(Config{Cluster: cl, Clock: clock})
		if err != nil {
			return false
		}
		bundles, _, err := rsl.DecodeScript(`harmonyBundle DB:1 where {
			{QS {node server sp2-01 {seconds 5} {memory 10}} {node client * {seconds 1} {memory 2}} {link client server 2}}
			{DS {node server sp2-01 {seconds 1} {memory 10}} {node client * {seconds 10} {memory 2}} {link client server 4}}
		}`)
		if err != nil {
			return false
		}
		inst, _, err := ctrl.Register(bundles[0])
		if err != nil {
			return false
		}
		cur, err := ctrl.CurrentChoice(inst)
		if err != nil {
			return false
		}
		changes := 0
		if len(flips) > 32 {
			flips = flips[:32]
		}
		for _, toDS := range flips {
			want := "QS"
			if toDS {
				want = "DS"
			}
			if want != cur.Option {
				changes++
			}
			if _, err := ctrl.ForceChoice(inst, Choice{Option: want}); err != nil {
				return false
			}
			cur = Choice{Option: want}
		}
		apps := ctrl.Apps()
		if len(apps) != 1 || apps[0].Switches != changes {
			return false
		}
		if _, err := ctrl.Unregister(inst); err != nil {
			return false
		}
		installed, free := cl.Ledger().TotalMemory()
		return installed == free
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
