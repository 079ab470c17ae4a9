package core

import (
	"math"
	"reflect"
	"strconv"
	"strings"

	"harmony/internal/bounds"
	"harmony/internal/objective"
	"harmony/internal/resource"
	"harmony/internal/rsl"
)

// This file implements static candidate pruning: before any matcher call or
// trial reservation, each enumerated choice is checked against per-bundle
// facts computed once at first evaluation (the relational dominance proofs
// of internal/bounds plus a concrete per-choice resource demand) and
// against a cheap aggregate view of the evaluation snapshot. Every rule is
// a proof that the skipped candidate could not have changed the outcome:
// either its Match must fail on the same view, or an earlier candidate
// always ties or beats it under the controller's strict-improvement
// reduction. Pruning is therefore semantics-preserving — the winning
// choice, its prediction and the objective are bit-identical with pruning
// on or off (only the diagnostic text inside an ErrNoFeasibleOption error,
// which quotes the last match failure, may differ). Config.DisablePruning
// opts out; PruneStats reports the counters.

// specDemand is one node spec's concrete resource demand under a fixed
// choice: everything the matcher's eligibility scan reads, resolved.
type specDemand struct {
	local     string
	pattern   string // spec.HostPattern; a concrete hostname or "*"
	os        string // required OS ("" = unconstrained)
	pin       string // string hostname tag ("" = none)
	replicas  int
	grant     float64
	exclusive bool
}

// eligKey strips the fields irrelevant to host eligibility so counts can
// be shared between choices that differ only in replica count.
type eligKey struct {
	pattern   string
	os        string
	pin       string
	grant     float64
	exclusive bool
}

// choiceStatic is the view-independent analysis of one enumerated choice.
type choiceStatic struct {
	// alwaysFails marks choices whose Match fails on every view: a
	// requirement expression errors, a grant violates its constraint, or a
	// spec is structurally unplaceable (e.g. a fixed-host exclusive spec
	// with two replicas, whose second replica always sees the first's CPU
	// charge).
	alwaysFails bool
	// sig fingerprints everything the evaluator reads from the choice:
	// resolved spec demands plus statically evaluated link, communication
	// and friction values. Two choices with equal sigs produce bit-identical
	// candidates on any view, so the later one can never strictly win.
	sig string
	// specs are the resolved per-spec demands (empty when alwaysFails).
	specs []specDemand
	// wildcard is the total replica count over wildcard specs; they all
	// take distinct hosts within one Match. replicas is the count over all
	// specs: the placements evaluating the choice makes.
	wildcard int
	replicas int
}

// deadKind classifies why an option's choices can be skipped wholesale.
type deadKind int

const (
	// deadTie: requirements provably identical to an earlier option, no
	// performance model on either side. Candidates tie exactly, so the
	// earlier option wins under any objective.
	deadTie deadKind = iota + 1
	// deadModel: requirements identical and the earlier model is never
	// slower (with a nonnegative lower bound). Sound only for the built-in
	// coordinate-monotone objectives.
	deadModel
)

// bundleStatic caches a bundle's enumeration and per-choice analysis on
// its appState; bundles are immutable after registration.
type bundleStatic struct {
	choices []Choice
	stat    []choiceStatic
	// optDead maps option names proven dominated by internal/bounds.
	optDead map[string]deadKind
}

// PruneStats counts pruning activity since construction. Considered is the
// number of enumerated candidates inspected; Unreachable counts candidates
// skipped because their Match provably fails (statically, or against the
// evaluation snapshot's aggregate free capacity); Dominated counts
// candidates skipped because an earlier candidate always ties or beats
// them (duplicate footprints and bounds-proven dominated options).
type PruneStats struct {
	Considered  uint64
	Unreachable uint64
	Dominated   uint64
}

// PruneStats reports the pruning counters (next to MemoStats).
func (c *Controller) PruneStats() PruneStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.prune
}

// isMonotoneObjective reports whether fn is one of the built-in objectives
// that are coordinate-monotone over nonnegative predictions. Model-based
// dominance pruning (deadModel) is gated on this: with a custom objective
// a worse per-job prediction could score better, so only exact ties may be
// skipped.
func isMonotoneObjective(fn objective.Func) bool {
	if fn == nil {
		return false
	}
	p := reflect.ValueOf(fn).Pointer()
	for _, m := range []objective.Func{
		objective.MeanResponseTime,
		objective.TotalResponseTime,
		objective.MaxResponseTime,
		objective.WeightedMean,
	} {
		if reflect.ValueOf(m).Pointer() == p {
			return true
		}
	}
	return false
}

// staticForLocked returns the bundle's cached static analysis, computing
// it on first use.
func (c *Controller) staticForLocked(app *appState) *bundleStatic {
	if app.static != nil {
		return app.static
	}
	bs := &bundleStatic{choices: c.enumerateChoices(app.bundle)}
	bs.stat = make([]choiceStatic, len(bs.choices))
	byName := make(map[string]*rsl.OptionSpec, len(app.bundle.Options))
	for i := range app.bundle.Options {
		byName[app.bundle.Options[i].Name] = &app.bundle.Options[i]
	}
	for i, ch := range bs.choices {
		if opt := byName[ch.Option]; opt != nil {
			bs.stat[i] = analyzeChoice(opt, ch)
		}
	}
	for _, d := range bounds.Dominance(app.bundle) {
		if d.Rule != bounds.RuleIdentical {
			// Subset-replicas dominance changes the placement, and with it
			// every other application's contention; that is sound for the
			// vet-level claim but not bit-identity-preserving here.
			continue
		}
		oi, oj := &app.bundle.Options[d.By], &app.bundle.Options[d.Dominated]
		kind := deadTie
		if len(oi.Performance) > 0 {
			// The earlier model must stay nonnegative so scaling by the
			// (shared, >= 1) contention factors preserves the ordering
			// within the objective's monotone domain.
			if bounds.ModelRange(oi.Performance, bounds.Option(oj).Nodes).Lo < 0 {
				continue
			}
			kind = deadModel
		}
		if bs.optDead == nil {
			bs.optDead = make(map[string]deadKind)
		}
		bs.optDead[oj.Name] = kind
	}
	app.static = bs
	return bs
}

// fbits renders a float exactly (bit pattern), so signature equality means
// value identity including negative zero and NaN payloads.
func fbits(v float64) string {
	return strconv.FormatUint(math.Float64bits(v), 16)
}

// analyzeChoice resolves one choice's concrete demands, mirroring the
// matcher's own requirement evaluation (internal/match.Match): replica
// counts, memory with grant validation, seconds, exclusivity, and string
// host constraints. Any view-independent failure the matcher would report
// marks the choice alwaysFails.
func analyzeChoice(opt *rsl.OptionSpec, ch Choice) choiceStatic {
	env := rsl.MapEnv(ch.Vars)
	fails := choiceStatic{alwaysFails: true}
	var st choiceStatic
	memEnv := make(rsl.MapEnv, 2*len(opt.Nodes))
	var sb strings.Builder
	sb.WriteString(ch.Option)
	locals := make(map[string]bool, len(opt.Nodes))
	for i := range opt.Nodes {
		spec := &opt.Nodes[i]
		locals[spec.LocalName] = true
		replicas := 1
		if spec.Replicate != nil {
			v, err := spec.Replicate.Eval(env)
			if err != nil {
				return fails
			}
			replicas = int(math.Round(v))
			if replicas < 1 {
				return fails
			}
		}
		needMem, memOp := 0.0, rsl.OpExact
		if tag, ok := spec.Tags["memory"]; ok {
			v, err := tag.EvalNum(env)
			if err != nil || v < 0 {
				return fails
			}
			needMem, memOp = v, tag.Op
		}
		grant := needMem
		if g, ok := ch.Grants[spec.LocalName]; ok {
			switch memOp {
			case rsl.OpMin:
				if g < needMem {
					return fails
				}
				grant = g
			case rsl.OpMax:
				if g > needMem {
					return fails
				}
				grant = g
			default:
				if g != needMem {
					return fails
				}
			}
		}
		seconds := 0.0
		if tag, ok := spec.Tags["seconds"]; ok {
			v, err := tag.EvalNum(env)
			if err != nil || v < 0 {
				return fails
			}
			seconds = v
		}
		exclusive := false
		if tag, ok := spec.Tags["exclusive"]; ok {
			v, err := tag.EvalNum(env)
			if err != nil {
				return fails
			}
			exclusive = v != 0
		}
		pin, osStr := "", ""
		if t, ok := spec.Tags["hostname"]; ok && t.IsString {
			pin = t.Str
		}
		if t, ok := spec.Tags["os"]; ok && t.IsString {
			osStr = t.Str
		}
		if pin != "" {
			if spec.HostPattern != "*" && spec.HostPattern != pin {
				return fails // the pin can never equal the fixed host
			}
			if spec.HostPattern == "*" && replicas > 1 {
				return fails // wildcard replicas need distinct hosts; only the pin qualifies
			}
		}
		if exclusive && replicas > 1 && spec.HostPattern != "*" {
			// Fixed-host replicas stack: the first charges a full CPU, so
			// the second always finds the host busy.
			return fails
		}
		memEnv[spec.LocalName+".memory"] = grant
		memEnv[spec.LocalName+".seconds"] = seconds
		d := specDemand{
			local: spec.LocalName, pattern: spec.HostPattern,
			os: osStr, pin: pin,
			replicas: replicas, grant: grant, exclusive: exclusive,
		}
		st.specs = append(st.specs, d)
		st.replicas += replicas
		if d.pattern == "*" {
			st.wildcard += replicas
		}
		sb.WriteString("|s:")
		sb.WriteString(d.local)
		sb.WriteByte(',')
		sb.WriteString(d.pattern)
		sb.WriteByte(',')
		sb.WriteString(d.os)
		sb.WriteByte(',')
		sb.WriteString(d.pin)
		sb.WriteByte(',')
		sb.WriteString(strconv.Itoa(d.replicas))
		sb.WriteByte(',')
		sb.WriteString(fbits(d.grant))
		sb.WriteByte(',')
		sb.WriteString(fbits(seconds))
		if d.exclusive {
			sb.WriteString(",x")
		}
	}

	// Links, communication and friction evaluate under the granted memory
	// and seconds — all statically known here, exactly as the matcher and
	// evaluator see them.
	linkEnv := rsl.ChainEnv{memEnv, env}
	for _, ls := range opt.Links {
		if !locals[ls.A] || !locals[ls.B] {
			return fails // Match rejects links naming unknown nodes
		}
		sb.WriteString("|l:")
		sb.WriteString(ls.A)
		sb.WriteByte('-')
		sb.WriteString(ls.B)
		sb.WriteByte(',')
		bw, err := ls.Bandwidth.Eval(linkEnv)
		if err != nil || bw < 0 {
			return fails // evaluated before any host check, so this always fails
		}
		sb.WriteString(fbits(bw))
		if ls.Latency != nil {
			sb.WriteString(",lat:")
			if lat, err := ls.Latency.Eval(linkEnv); err != nil {
				// Latency only evaluates for cross-host placements, which
				// depend on the view: not an unconditional failure.
				sb.WriteString("err:")
				sb.WriteString(err.Error())
			} else {
				sb.WriteString(fbits(lat))
			}
		}
	}
	if opt.Communication != nil {
		comm, err := opt.Communication.Eval(linkEnv)
		if err != nil || comm < 0 {
			return fails
		}
		sb.WriteString("|c:")
		sb.WriteString(fbits(comm))
	}
	if opt.Friction != nil {
		sb.WriteString("|f:")
		if f, err := opt.Friction.Eval(linkEnv); err != nil {
			// A failing friction expression is a deferred warning, not a
			// match failure; the error text is deterministic, so equal sigs
			// still imply identical behavior.
			sb.WriteString("err:")
			sb.WriteString(err.Error())
		} else {
			sb.WriteString(fbits(f))
		}
	}
	st.sig = sb.String()
	return st
}

// availability is a one-pass aggregate of an evaluation snapshot: its node
// table, the number of healthy nodes in it, and memoized eligibility counts
// per demand shape.
type availability struct {
	nodes  []resource.NodeState // hostname order
	up     int
	counts map[eligKey]int
}

// newAvailability scans the evaluation snapshot's node table once. Only
// HealthUp nodes accept placements, matching the matcher's scan.
func newAvailability(nodes []resource.NodeState) *availability {
	av := &availability{nodes: nodes}
	for i := range av.nodes {
		if av.nodes[i].Health == resource.HealthUp {
			av.up++
		}
	}
	return av
}

// eligible mirrors the matcher's firstFit preconditions for one node
// against one replica of a demand.
func eligible(ns *resource.NodeState, d *specDemand) bool {
	host := ns.Node.Hostname
	if ns.Health != resource.HealthUp {
		return false
	}
	if d.pattern != "*" && d.pattern != host {
		return false
	}
	if d.pin != "" && d.pin != host {
		return false
	}
	if d.os != "" && d.os != ns.Node.OS {
		return false
	}
	if ns.FreeMemoryMB < d.grant {
		return false
	}
	if d.exclusive && ns.CPULoad > 0 {
		return false
	}
	return true
}

// eligibleCount counts hosts a wildcard demand could use, memoized by
// demand shape (replica count does not affect per-host eligibility).
func (av *availability) eligibleCount(d *specDemand) int {
	key := eligKey{pattern: d.pattern, os: d.os, pin: d.pin, grant: d.grant, exclusive: d.exclusive}
	if n, ok := av.counts[key]; ok {
		return n
	}
	n := 0
	for i := range av.nodes {
		if eligible(&av.nodes[i], d) {
			n++
		}
	}
	if av.counts == nil {
		av.counts = make(map[eligKey]int)
	}
	av.counts[key] = n
	return n
}

// feasible checks necessary conditions for a Match of this choice against
// the availability's view. Every condition is implied by a successful
// Match, so a false result proves the matcher must fail: wildcard replicas
// need that many distinct eligible hosts (the matcher's used-map spans all
// specs, so their total is also bounded by the healthy-node count), and
// fixed-host replicas stack their grants on one machine's free memory via
// the same iterative comparison the matcher's scratch state performs.
func (av *availability) feasible(st *choiceStatic) bool {
	if st.wildcard > av.up {
		return false
	}
	for i := range st.specs {
		d := &st.specs[i]
		if d.pattern == "*" {
			if av.eligibleCount(d) < d.replicas {
				return false
			}
			continue
		}
		i, ok := resource.FindNode(av.nodes, d.pattern)
		if !ok || av.nodes[i].Health != resource.HealthUp {
			return false
		}
		ns := &av.nodes[i]
		if d.pin != "" && d.pin != ns.Node.Hostname {
			return false
		}
		if d.os != "" && d.os != ns.Node.OS {
			return false
		}
		if d.exclusive && ns.CPULoad > 0 {
			return false
		}
		free := ns.FreeMemoryMB
		for r := 0; r < d.replicas; r++ {
			if free < d.grant {
				return false
			}
			free -= d.grant
		}
	}
	return true
}

// pruneChoicesLocked filters a bundle's enumerated choices before
// evaluation. current (the app's adopted choice) is exempt: it is the one
// candidate the friction surcharge never applies to, so an identical
// earlier candidate does not subsume it. If every choice would be pruned,
// nothing is: evaluating the full set preserves the no-feasible-option
// error's diagnostic detail. nodes is the evaluation snapshot's node table;
// in the exhaustive search that of the all-released base snapshot: deeper
// levels only ever shrink capacity, so infeasibility against the base holds
// for every branch. The second result is the number of node placements the
// returned choices make between them, which is what evaluating them costs.
func (c *Controller) pruneChoicesLocked(bs *bundleStatic, current Choice, nodes []resource.NodeState) ([]Choice, int) {
	all := 0
	for i := range bs.stat {
		all += bs.stat[i].replicas
	}
	if c.cfg.DisablePruning {
		return bs.choices, all
	}
	av := newAvailability(nodes)
	kept := make([]Choice, 0, len(bs.choices))
	replicas := 0
	seen := make(map[string]bool, len(bs.choices))
	var unreachable, dominated uint64
	monotone := c.monotoneObjective
	for i, ch := range bs.choices {
		st := &bs.stat[i]
		if ch.Equal(current) {
			if st.sig != "" {
				seen[st.sig] = true
			}
			kept = append(kept, ch)
			replicas += st.replicas
			continue
		}
		dead := bs.optDead[ch.Option]
		switch {
		case dead == deadTie || (dead == deadModel && monotone):
			dominated++
		case st.alwaysFails || !av.feasible(st):
			unreachable++
		case st.sig != "" && seen[st.sig]:
			dominated++
		default:
			if st.sig != "" {
				seen[st.sig] = true
			}
			kept = append(kept, ch)
			replicas += st.replicas
		}
	}
	c.prune.Considered += uint64(len(bs.choices))
	if len(kept) == 0 {
		return bs.choices, all
	}
	c.prune.Unreachable += unreachable
	c.prune.Dominated += dominated
	return kept, replicas
}
