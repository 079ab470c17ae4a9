package main

import (
	"fmt"
	"math"

	"harmony"
)

// verdict accumulates oracle checks; every check is an attempted operation
// and every mismatch a failed one.
type verdict struct {
	attempted, failed int
	notes             []string
}

func (v *verdict) check(ok bool, format string, args ...any) {
	v.attempted++
	if !ok {
		v.failed++
		if len(v.notes) < 20 {
			v.notes = append(v.notes, fmt.Sprintf(format, args...))
		}
	}
}

// replayOps feeds the recorded operation sequence to the shadow and requires
// every ack the live clients saw — instance id, chosen option, variable
// values, placement and prediction — to be what the shadow decides.
//
// firstCycle is the cycle id of the first arrival in ops: residents take
// negative ids so that the first writer cycle is cycle 0 in the shadow's
// spans as in the live run's.
func replayOps(sh *Shadow, ops []Op, firstCycle int, v *verdict) error {
	cycle := firstCycle - 1
	for i := range ops {
		op := &ops[i]
		if op.Arrive == nil {
			if err := sh.depart(op.Instance, cycle); err != nil {
				return fmt.Errorf("oracle: op %d depart %d: %w", i, op.Instance, err)
			}
			continue
		}
		cycle++
		inst, vars, err := sh.admit(*op.Arrive, cycle)
		if err != nil {
			return fmt.Errorf("oracle: op %d admit %s: %w", i, op.Arrive.Name, err)
		}
		v.check(inst == op.Ack.Instance, "op %d: live instance %d, oracle %d", i, op.Ack.Instance, inst)
		for _, k := range op.Arrive.AckKeys {
			got, gok := op.Ack.Vars[k]
			want, wok := vars[k]
			v.check(gok == wok && sameVar(got, want), "op %d: variable %s: live %v (%t), oracle %v (%t)", i, k, got, gok, want, wok)
		}
	}
	return nil
}

func sameVar(a, b harmony.VarValue) bool {
	return a.IsString == b.IsString && a.Str == b.Str && math.Float64bits(a.Num) == math.Float64bits(b.Num)
}

// compareStatus requires a live status reply to equal the shadow's state:
// apps, options, hosts, predicted seconds and the objective bit for bit.
func compareStatus(who string, apps []harmony.AppStatus, objective float64, sh *Shadow, v *verdict) {
	want, wantObj := sh.status()
	v.check(math.Float64bits(objective) == math.Float64bits(wantObj), "%s: objective %v, oracle %v", who, objective, wantObj)
	v.check(len(apps) == len(want), "%s: %d apps, oracle %d", who, len(apps), len(want))
	if len(apps) != len(want) {
		return
	}
	for i := range apps {
		a, w := apps[i], want[i]
		ok := a.Instance == w.Instance && a.App == w.App && a.Bundle == w.Bundle && a.Option == w.Option &&
			a.Switches == w.Switches && math.Float64bits(a.PredictedSeconds) == math.Float64bits(w.PredictedSeconds) &&
			len(a.Hosts) == len(w.Hosts)
		for j := 0; ok && j < len(a.Hosts); j++ {
			ok = a.Hosts[j] == w.Hosts[j]
		}
		v.check(ok, "%s: app %d: live %+v, oracle %+v", who, i, a, w)
	}
}

// memberStatus is one member's final status reply.
type memberStatus struct {
	who       string
	apps      []harmony.AppStatus
	objective float64
}

// collectFinal fetches every member's final Status while the residents are
// still connected. Replicated members must first reach the leader's commit
// index: entries still trickle in (clock ticks, session expiries) but none
// of them changes what Status reports.
func collectFinal(dep *Deployment, v *verdict) []memberStatus {
	var target uint64
	if len(dep.members) > 1 {
		_, st, err := dep.leaderStatus(clusterWait, -1)
		v.check(err == nil, "quiesce: %v", err)
		if err != nil {
			return nil
		}
		target = st.CommitIndex
	}
	var out []memberStatus
	for i, m := range dep.members {
		who := fmt.Sprintf("member %d", i)
		if target > 0 {
			err := waitCommit(dep, i, target, clusterWait)
			v.check(err == nil, "quiesce: %v", err)
		}
		c, err := harmony.DialWith(m.client, harmony.DialConfig{Timeout: clusterWait})
		v.check(err == nil, "%s: dial: %v", who, err)
		if err != nil {
			continue
		}
		apps, obj, err := c.Status()
		_ = c.Close()
		v.check(err == nil, "%s: status: %v", who, err)
		if err == nil {
			out = append(out, memberStatus{who: who, apps: apps, objective: obj})
		}
	}
	return out
}
