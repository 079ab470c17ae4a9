package core

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"harmony/internal/cluster"
	"harmony/internal/match"
	"harmony/internal/predict"
	"harmony/internal/replog"
	"harmony/internal/resource"
	"harmony/internal/rsl"
	"harmony/internal/vet"
)

// agreement holds vet's "never fits" verdicts to the matcher's: an option
// vet calls unreachable-option, node-unsatisfiable or
// replicate-unsatisfiable, or raises a link-bandwidth error against, has no
// enumerated choice whose match.Plan places on the idle declared cluster.
// Options that no choice places but vet does not flag — with one of those,
// or an out-of-range quantity (negative-tag) — are counted and logged: the
// door lets them in, and the controller can never adopt them. And an option
// vet raises no error against predicts a finite, non-negative time at every
// choice that places there.
type agreement struct {
	options, unplaced, unflagged, predicted int
	// overCap names the scripts holding a bundle over rsl.MaxChoices.
	overCap []string
}

// count notes whether src holds a bundle over rsl.MaxChoices.
func (ag *agreement) count(name, src string) {
	for _, b := range decodeLeniently(src) {
		if b.ChoiceCount() > rsl.MaxChoices {
			ag.overCap = append(ag.overCap, name)
			return
		}
	}
}

// check vets src against extra, and tries every choice of every option it
// decodes on the idle cluster snap. A bundle over the cap has no choices.
func (ag *agreement) check(t *testing.T, name, src string, extra []*rsl.NodeDecl, snap *resource.Snapshot) {
	t.Helper()
	flagged := make(map[string]string)
	excused, erred := make(map[string]bool), make(map[string]bool)
	for _, d := range vet.Script(src, vet.Options{ExtraNodes: extra}).Diags {
		switch {
		case d.Check == "unreachable-option", d.Check == "node-unsatisfiable", d.Check == "replicate-unsatisfiable",
			d.Check == "link-bandwidth" && d.Severity == vet.SevError:
			flagged[d.Bundle+"/"+d.Option] = d.Check
		case d.Check == "negative-tag" && d.Severity == vet.SevError:
			excused[d.Bundle+"/"+d.Option] = true
		}
		if d.Severity == vet.SevError {
			erred[d.Bundle+"/"+d.Option] = true
		}
	}
	var scan match.Scan
	var cols resource.Columns
	snap.ReadColumns(&cols)
	scan.Reset(snap, snap.AppendNodes(nil), &cols)
	var asg match.Assignment
	for _, b := range decodeLeniently(src) {
		for i := range b.Options {
			opt := &b.Options[i]
			key := b.Name + "/" + opt.Name
			passed := !erred[key] && !erred[b.Name+"/"]
			places := false
			for _, ch := range opt.Choices() {
				if !scan.Place(match.ChoicePlan(opt, ch), &asg) {
					continue
				}
				places = true
				if !passed {
					break
				}
				pred, err := predict.Indexed{View: snap}.ForOption(opt, predict.Resolve(snap, &asg), false)
				if y := pred.Seconds; err != nil || math.IsNaN(y) || math.IsInf(y, 0) || y < 0 {
					t.Errorf("%s: vet passes %s, and its choice %s predicts %g s (%v) on the idle cluster", name, key, ch, y, err)
				}
				ag.predicted++
			}
			check, isFlagged := flagged[key]
			ag.options++
			switch {
			case places && isFlagged:
				t.Errorf("%s: vet says %s of %s/%s, and a choice of it places on the idle cluster at %v",
					name, check, b.Name, opt.Name, asg.Hosts())
			case !places:
				ag.unplaced++
				if !isFlagged && !excused[key] {
					ag.unflagged++
					t.Logf("%s: no choice of %s/%s places on the idle cluster, and vet does not flag it", name, b.Name, opt.Name)
				}
			}
		}
	}
}

// decodeLeniently returns every bundle of src that decodes.
func decodeLeniently(src string) []*rsl.BundleSpec {
	cmds, err := rsl.ParseScript(src)
	if err != nil {
		return nil
	}
	var out []*rsl.BundleSpec
	for _, cmd := range cmds {
		if len(cmd) == 0 || cmd[0].IsList || cmd[0].Word != "harmonyBundle" {
			continue
		}
		if b, err := rsl.DecodeBundleCommand(cmd); err == nil {
			out = append(out, b)
		}
	}
	return out
}

// declsOf returns every harmonyNode declaration of src that decodes.
func declsOf(src string) []*rsl.NodeDecl {
	cmds, _ := rsl.ParseScript(src)
	var out []*rsl.NodeDecl
	for _, cmd := range cmds {
		if len(cmd) > 0 && !cmd[0].IsList && cmd[0].Word == "harmonyNode" {
			if d, err := rsl.DecodeNodeCommand(cmd); err == nil {
				out = append(out, d)
			}
		}
	}
	return out
}

// TestVetAgreesWithMatcher runs the agreement over the golden scripts'
// registrations on their own clusters, the vet corpus and the example specs:
// no option vet calls unplaceable places, every option that places nowhere is
// flagged, every choice that places of an option vet passes predicts a finite,
// non-negative time, and only the corpus's deliberately oversized bundle is
// over the cap.
func TestVetAgreesWithMatcher(t *testing.T) {
	var ag agreement
	for _, s := range goldenScripts {
		c, hosts := s.controller(t)
		decls, snap := c.ClusterNodes(), c.Ledger().Snapshot()
		seen := make(map[string]bool)
		for _, e := range s.log(hosts) {
			if e.Op == replog.OpRegister && !seen[e.RSL] {
				seen[e.RSL] = true
				ag.count("golden "+s.name, e.RSL)
				ag.check(t, "golden "+s.name, e.RSL, decls, snap)
			}
		}
	}

	// A spec file is judged on its own declarations beside those of its
	// directory's cluster.rsl.
	files, _ := filepath.Glob(filepath.Join("..", "vet", "testdata", "*.rsl"))
	for _, dir := range []string{"workload", filepath.Join("workload", "fixedhost")} {
		more, _ := filepath.Glob(filepath.Join("..", "vet", "testdata", dir, "*.rsl"))
		files = append(files, more...)
	}
	specs, _ := filepath.Glob(filepath.Join("..", "..", "examples", "specs", "*.rsl"))
	files = append(files, specs...)
	if len(files) < 20 {
		t.Fatalf("found only %d spec files", len(files))
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		ag.count(file, string(src))
		var extra []*rsl.NodeDecl
		if cl, err := os.ReadFile(filepath.Join(filepath.Dir(file), "cluster.rsl")); err == nil && filepath.Base(file) != "cluster.rsl" {
			extra = declsOf(string(cl))
		}
		decls := append(append([]*rsl.NodeDecl(nil), extra...), declsOf(string(src))...)
		cl, err := cluster.New(cluster.Config{}, decls)
		if err != nil || len(decls) == 0 {
			continue // no cluster to place on, or a duplicate host vet reports
		}
		ag.check(t, file, string(src), extra, cl.Ledger().Snapshot())
	}

	if want := []string{filepath.Join("..", "vet", "testdata", "toomany.rsl")}; !slices.Equal(ag.overCap, want) {
		t.Errorf("bundles over the cap in %v, want only in %v", ag.overCap, want)
	}
	t.Logf("%d options: %d place nowhere on the idle cluster, %d of them not flagged by vet; %d predictions",
		ag.options, ag.unplaced, ag.unflagged, ag.predicted)
	if ag.unflagged != 0 {
		t.Errorf("%d options place nowhere on the idle cluster and vet does not flag them", ag.unflagged)
	}
	if ag.options < 100 || ag.predicted < 100 || !strings.Contains(strings.Join(files, " "), "figure3.rsl") {
		t.Errorf("the corpus judged only %d options", ag.options)
	}
}
