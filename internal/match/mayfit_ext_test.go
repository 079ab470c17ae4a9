package match_test

import (
	"math"
	"math/rand"
	"testing"

	"harmony/internal/match"
	"harmony/internal/predict"
	"harmony/internal/resource"
	"harmony/internal/rsl"
	"harmony/internal/vet"
)

// FuzzMayFit: a plan MayFit turns away does not place, on the scan's state or
// on that state charged further with another placement — the proof the joint
// search's choice filter and feasibility cut rest on. And an option vet passes
// clean (no error, no warning) against the cluster's declarations is finite
// wherever a choice of it places on that cluster idle: the placement's
// seconds, memory and CPU loads, and the model's prediction of it.
func FuzzMayFit(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 256; i++ {
		in := make([]byte, 48)
		rng.Read(in)
		f.Add(in)
	}
	// Another application's replica, charged to the state as a deeper
	// joint-search level sees it.
	others, _, err := rsl.DecodeScript("harmonyBundle U:1 b {{o {node r * {seconds 1} {memory 4}}}}")
	if err != nil {
		f.Fatal(err)
	}
	other := match.NewPlan(match.Request{Option: others[0].Option("o")})
	f.Fuzz(func(t *testing.T, data []byte) {
		l, req, src, speeds := match.MayFitCase(t, data)
		snap := l.Snapshot()
		rows := snap.AppendNodes(nil)
		vetCleanIsFinite(t, rows, speeds, req.Option, src)

		p := match.NewPlan(req)
		var asg match.Assignment
		var cols resource.Columns
		snap.ReadColumns(&cols)
		var scan match.Scan
		scan.Reset(snap, rows, &cols)
		if scan.MayFit(p) {
			return
		}
		if scan.Place(p, &asg) {
			t.Fatalf("MayFit turned away %s, which places on %v", req.Option.Name, asg.Nodes)
		}
		if !scan.Place(other, &asg) {
			return
		}
		if err := match.ReserveColumns(&cols, snap, "other", &asg, nil, new(match.Charges)); err != nil {
			return
		}
		scan.Reset(snap, rows, &cols)
		if scan.Place(p, &asg) {
			t.Fatalf("%s places on %v once the state is charged further, not before", req.Option.Name, asg.Nodes)
		}
	})
}

// vetCleanIsFinite declares rows' nodes at speeds, idle, and, when vet finds
// neither an error nor a warning in src against them, places every choice of opt there and requires
// each placement that fits, and its prediction, to be finite.
func vetCleanIsFinite(t *testing.T, rows []resource.NodeState, speeds []float64, opt *rsl.OptionSpec, src string) {
	t.Helper()
	idle := resource.NewLedger()
	decls := make([]*rsl.NodeDecl, len(rows))
	for i, r := range rows {
		n := r.Node
		n.Speed = speeds[i]
		if err := idle.AddNode(n); err != nil {
			t.Fatal(err)
		}
		decls[i] = &rsl.NodeDecl{Hostname: n.Hostname, Speed: n.Speed, MemoryMB: n.MemoryMB, OS: n.OS, CPUs: n.CPUs}
	}
	for _, d := range vet.Script(src, vet.Options{ExtraNodes: decls}).Diags {
		if d.Severity != vet.SevInfo {
			return
		}
	}
	snap := idle.Snapshot()
	var cols resource.Columns
	snap.ReadColumns(&cols)
	var scan match.Scan
	scan.Reset(snap, snap.AppendNodes(nil), &cols)
	var asg match.Assignment
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for _, ch := range opt.Choices() {
		if !scan.Place(match.ChoicePlan(opt, ch), &asg) {
			continue
		}
		for _, n := range asg.Nodes {
			if !finite(n.Seconds) || !finite(n.MemoryMB) || !finite(n.CPULoad) {
				t.Fatalf("vet passes %s, and its choice %s places %+v", src, ch, n)
			}
		}
		pred, err := predict.Indexed{View: snap}.ForOption(opt, predict.Resolve(snap, &asg), false)
		if err != nil || !finite(pred.Seconds) || pred.Seconds < 0 {
			t.Fatalf("vet passes %s at speeds %v, and its choice %s placed on %v predicts %g s (%v)", src, speeds, ch, asg.Hosts(), pred.Seconds, err)
		}
	}
}
