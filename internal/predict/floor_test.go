package predict

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"harmony/internal/match"
	"harmony/internal/resource"
	"harmony/internal/rsl"
)

// floorOption draws an option for TestFloorBoundsEveryPrediction: replicated
// wildcard workers and a spec pinned to a random host (often the fastest),
// sometimes with links and a communication tag, predicted by the default
// model or by a random explicit curve.
func floorOption(t *testing.T, rng *rand.Rand, hosts []string, fastest string) *rsl.OptionSpec {
	t.Helper()
	var b strings.Builder
	pin := fastest
	if rng.Intn(3) == 0 {
		pin = hosts[rng.Intn(len(hosts))]
	}
	fmt.Fprintf(&b, "{node p %s {seconds %d} {memory 8}}", pin, 1+rng.Intn(60))
	if rng.Intn(3) > 0 {
		fmt.Fprintf(&b, " {node w * {seconds %d} {memory 8} {replicate %d}}", rng.Intn(90), 1+rng.Intn(4))
		if rng.Intn(3) == 0 {
			fmt.Fprintf(&b, " {link p w %d}", rng.Intn(120))
		}
		if rng.Intn(4) == 0 {
			fmt.Fprintf(&b, " {communication %d}", rng.Intn(200))
		}
	}
	if rng.Intn(2) == 0 {
		b.WriteString(" {performance {")
		for x := 1 + rng.Intn(2); x <= 6; x += 1 + rng.Intn(2) {
			fmt.Fprintf(&b, "{%d %g} ", x, 100*rng.Float64())
		}
		b.WriteString("}}")
	}
	bundles, _, err := rsl.DecodeScript(fmt.Sprintf("harmonyBundle T:1 b {{o %s}}", b.String()))
	if err != nil {
		t.Fatalf("decode %s: %v", b.String(), err)
	}
	return bundles[0].Option("o")
}

// TestFloorBoundsEveryPrediction: on random clusters under random load, no
// prediction of a placement of a plan falls below the plan's Floor — neither
// of a hypothetical placement nor of one charged to the state, under either
// model. Some placements (an idle pinned host, the fastest, and no links)
// must predict exactly the floor, or the cases could not tell a floor that
// overshoots.
func TestFloorBoundsEveryPrediction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	placed, tight := 0, 0
	for iter := 0; iter < 600; iter++ {
		l, hosts := randomLedger(t, rng)
		snap := l.Snapshot()
		if rng.Intn(4) > 0 {
			reserveSome(rng, snap, hosts)
		}
		rows := snap.AppendNodes(nil)
		fastest := Fastest(rows)
		fastestHost := ""
		for i := range rows {
			if rows[i].Node.Speed == fastest {
				fastestHost = rows[i].Node.Hostname
			}
		}
		opt := floorOption(t, rng, hosts, fastestHost)
		plan := match.NewPlan(match.Request{Option: opt})
		var cols resource.Columns
		snap.ReadColumns(&cols)
		var scan match.Scan
		scan.Reset(snap, rows, &cols)
		var asg match.Assignment
		if !scan.Place(plan, &asg) {
			continue
		}
		placed++
		floor := Floor(opt, plan, fastest)
		check := func(what string, selfReserved bool) {
			t.Helper()
			in := Indexed{View: snap, Loads: cols.CPULoad, Reserved: cols.ReservedMbps}
			pred, err := in.ForOption(opt, Resolve(snap, &asg), selfReserved)
			if err != nil {
				return
			}
			if pred.Seconds < floor {
				t.Fatalf("case %d, %s: %s on %v predicts %v, below its floor %v", iter, what, opt.Name, asg.Hosts(), pred.Seconds, floor)
			}
			if pred.Seconds == floor && floor > 0 {
				tight++
			}
		}
		check("hypothetical", false)
		if err := match.ReserveColumns(&cols, snap, "o", &asg, nil, new(match.Charges)); err == nil {
			check("charged", true)
		}
	}
	if placed < 300 || tight < 20 {
		t.Fatalf("%d placements, %d of them at their floor: the cases no longer exercise the bound", placed, tight)
	}
}
