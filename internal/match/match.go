// Package match places RSL option requirements onto cluster resources using
// the paper's first-fit strategy (Section 4.1): nodes meeting the minimum
// requirements are taken in hostname order, link requirements between the
// chosen nodes are verified, and available capacity is decreased as
// requirements are matched (via resource.Ledger claims).
package match

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"harmony/internal/resource"
	"harmony/internal/rsl"
)

// DefaultCPULoad is the steady-state CPU demand charged per assigned
// process: one reference CPU's worth while the job runs.
const DefaultCPULoad = 1.0

// NodeAssignment binds one option-local node name to a concrete machine.
type NodeAssignment struct {
	// LocalName is the name within the option namespace ("server",
	// "client", "worker"). Replicas share a LocalName.
	LocalName string
	// Hostname is the machine chosen.
	Hostname string
	// Seconds is the reference-machine CPU requirement placed there.
	Seconds float64
	// MemoryMB is the memory granted (>= the spec's minimum).
	MemoryMB float64
	// CPULoad is the steady-state CPU demand charged while running.
	CPULoad float64

	// pos is the machine's index in the node table Match placed it from;
	// see Assignment.topo.
	pos int32
}

// LinkAssignment binds one link requirement to a concrete host pair.
type LinkAssignment struct {
	// LocalA and LocalB are the option-local endpoint names.
	LocalA, LocalB string
	// HostA and HostB are the chosen machines.
	HostA, HostB string
	// BandwidthMbps is the requirement placed on the link.
	BandwidthMbps float64

	// id is the link's id where HostA and HostB differ; see Assignment.topo.
	id int32
}

// Assignment is a complete placement of one option onto the cluster.
type Assignment struct {
	// Option names the option that was placed.
	Option string
	// Nodes lists the node placements in spec order (replicas expanded).
	Nodes []NodeAssignment
	// Links lists explicit link placements.
	Links []LinkAssignment
	// CommunicationMbps is the aggregate all-pairs requirement from the
	// communication tag (0 when absent).
	CommunicationMbps float64

	// Match knows the table index of every host it picks and the id of every
	// link it checks, so it leaves them here (in pos, id and comm) for whoever
	// reserves or predicts the assignment next to use instead of asking the
	// name map again. They index the inventory topo names and are ignored for
	// any other; the zero topo is an assignment Match did not produce (decoded
	// from a replicated state, built by hand). None of it is ever encoded.
	topo resource.Topology
	// comm holds the link id of every pair of Hosts(), in the order Reserve
	// claims them, for an option with a communication tag.
	comm []int32
}

// Hosts returns the distinct hostnames used, in assignment order.
func (a *Assignment) Hosts() []string {
	seen := make(map[string]bool, len(a.Nodes))
	var hosts []string
	for _, n := range a.Nodes {
		if !seen[n.Hostname] {
			seen[n.Hostname] = true
			hosts = append(hosts, n.Hostname)
		}
	}
	return hosts
}

// EachLink calls fn for every link that reserving the assignment loads, in
// the order it is claimed and the prediction models visit it: the explicit
// links between distinct hosts in spec order, then the communication tag's
// requirement spread evenly over every pair of Hosts().
func (a *Assignment) EachLink(fn func(hostA, hostB string, mbps float64)) {
	for i := range a.Links {
		if l := &a.Links[i]; l.HostA != l.HostB {
			fn(l.HostA, l.HostB, l.BandwidthMbps)
		}
	}
	if a.CommunicationMbps > 0 {
		// Hosts, found without its map: the pairs below cost more than the
		// quadratic search, and a candidate of up to 64 hosts allocates
		// nothing.
		var buf [64]string
		hosts := buf[:0]
		for i := range a.Nodes {
			if h := a.Nodes[i].Hostname; !slices.Contains(hosts, h) {
				hosts = append(hosts, h)
			}
		}
		pairs := len(hosts) * (len(hosts) - 1) / 2
		per := a.CommunicationMbps / float64(pairs)
		for i := 0; i < len(hosts); i++ {
			for j := i + 1; j < len(hosts); j++ {
				fn(hosts[i], hosts[j], per)
			}
		}
	}
}

// Places appends to at where the assignment sits in snap's tables: the index
// of each node placement's host, then the id of each link EachLink visits, -1
// standing for a host that is not registered or a pair that is not linked.
// That is the form resource.Columns.Charge takes. What Match recorded is
// used when snap is of the inventory Match placed the option on; otherwise
// every name is looked up.
func (a *Assignment) Places(snap *resource.Snapshot, at []int32) []int32 {
	if a.topo != snap.Topology() {
		for i := range a.Nodes {
			pos, ok := snap.NodeIndex(a.Nodes[i].Hostname)
			if !ok {
				pos = -1
			}
			at = append(at, int32(pos))
		}
		a.EachLink(func(hostA, hostB string, _ float64) {
			id, ok := snap.LinkIndex(hostA, hostB)
			if !ok {
				id = -1
			}
			at = append(at, int32(id))
		})
		return at
	}
	for i := range a.Nodes {
		at = append(at, a.Nodes[i].pos)
	}
	for i := range a.Links {
		if l := &a.Links[i]; l.HostA != l.HostB {
			at = append(at, l.id)
		}
	}
	if a.CommunicationMbps > 0 {
		at = append(at, a.comm...)
	}
	return at
}

// TotalSeconds sums the reference-CPU seconds across all placements.
func (a *Assignment) TotalSeconds() float64 {
	total := 0.0
	for _, n := range a.Nodes {
		total += n.Seconds
	}
	return total
}

// MemoryEnv exposes granted per-local-name memory (and seconds) for RSL
// evaluation, so link formulas like Figure 3's can reference client.memory.
func (a *Assignment) MemoryEnv() rsl.MapEnv {
	env := make(rsl.MapEnv, 2*len(a.Nodes))
	for _, n := range a.Nodes {
		env[n.LocalName+".memory"] = n.MemoryMB
		env[n.LocalName+".seconds"] = n.Seconds
	}
	return env
}

// NoFitError reports why an option could not be placed. It holds what the
// message is made of and writes it when asked: a search tries many placements
// that do not fit and reads the reason of at most one.
type NoFitError struct {
	Option string

	// format picks what the message quotes from the operands by index: %[1]s to
	// %[3]s are a, b and c, %[4]g and %[5]g are x and y, %[6]v is err.
	format  string
	a, b, c string
	x, y    float64
	err     error
	// spec and replica, when replica is not 0, name the replica of a node spec
	// that no machine would take.
	spec    string
	replica int
}

func (e *NoFitError) Error() string {
	return fmt.Sprintf("match: option %q does not fit: %s", e.Option, e.Reason())
}

// Unwrap is the evaluation error the reason quotes, if any.
func (e *NoFitError) Unwrap() error { return e.err }

// Reason is why the option does not fit, without naming the option.
func (e *NoFitError) Reason() string {
	why := fmt.Sprintf(e.format, e.a, e.b, e.c, e.x, e.y, e.err)
	if e.replica > 0 {
		return fmt.Sprintf("node %s replica %d: %s", e.spec, e.replica, why)
	}
	return why
}

// Request carries everything needed to place one option.
type Request struct {
	// Option is the decoded RSL option.
	Option *rsl.OptionSpec
	// Env resolves option variables (e.g. workerNodes) during evaluation.
	Env rsl.Env
	// MemoryGrants optionally raises OpMin memory tags above their minimum,
	// keyed by option-local node name. Grants below the minimum fail.
	MemoryGrants map[string]float64
}

// Matcher places options onto a resource view (the live ledger, or a
// snapshot of it for side-effect-free hypothetical placement).
type Matcher struct {
	ledger resource.View
}

// New returns a matcher over the ledger.
func New(ledger *resource.Ledger) *Matcher {
	return &Matcher{ledger: ledger}
}

// NewWithView returns a matcher over an arbitrary resource view.
func NewWithView(view resource.View) *Matcher {
	return &Matcher{ledger: view}
}

// Scan is one state's node table as Match reads it: the rows in hostname
// order, the order first-fit scans them in, and the state's free memory and
// load as columns. It holds for the state it was aimed at and for no other, so
// whoever owns it resets it whenever that state changes. A scan has one owner,
// which places on it one call at a time: the scan keeps what it learns of its
// state between calls (the order, MayFit's counts) and works in its own
// scratch. The order is built by the first call whose option has a wildcard
// spec; an option that names every host is scanned in the order of its hosts'
// rows.
type Scan struct {
	snap *resource.Snapshot
	rows []resource.NodeState
	// cols is where free memory and load are read from: the snapshot's state,
	// with trial reservations on top when the owner charged any.
	cols *resource.Columns

	built  bool // whether order holds for the state
	order  []int32
	builds int

	// up is the number of healthy rows, -1 until MayFit first needs it, and
	// shapes the admitting-node counts MayFit has made since the last Reset.
	// A state meets a handful of shapes (every choice of a bag has its
	// workers'), so a list is searched faster than a map's key is hashed.
	up     int
	shapes []shapeCount

	sc scratch // what a call places in
}

// shapeCount is how many rows admit one replica of a wildcard demand. The
// demand is compared whole, since admits reads every field of it.
type shapeCount struct {
	shape demand
	n     int
}

// Reset aims the scan at a snapshot. rows must be the snapshot's node table
// (AppendNodes) and must not change while the scan is in use. cols holds the
// free memory and load to match against by node index (Snapshot.ReadColumns,
// with any trial charges on top) — the rows give only what a reservation
// cannot change — and must hold still until the next Reset.
func (s *Scan) Reset(snap *resource.Snapshot, rows []resource.NodeState, cols *resource.Columns) {
	s.snap, s.rows, s.cols = snap, rows, cols
	s.built = false
	s.up, s.shapes = -1, s.shapes[:0]
}

// Builds reports how many times the scan order has been worked out since the
// scan was made: at most once per Reset.
func (s *Scan) Builds() int { return s.builds }

// build orders the rows: least-loaded first, so concurrent applications spread
// onto idle machines, and by hostname within one load.
func (s *Scan) build() {
	s.built = true
	s.builds++
	s.order = scanOrder(s.cols.CPULoad, s.order[:0])
}

// compareLoad orders the nodes at indices a and b of the load column: placing
// work on busy machines is never preferable under the contention model.
func compareLoad(load []float64, a, b int32) int {
	switch {
	case load[a] < load[b]:
		return -1
	case load[a] > load[b]:
		return 1
	}
	return 0
}

// scanOrder appends to order, which must be empty, the indices of a node
// table, whose load the column holds, in the order first-fit scans them: by
// load, and within one load by index, which is the hostname order of the
// table.
//
// Most of a cluster is usually idle, and hostname order already sorts nodes
// of one load. So those are emitted in one pass and only the rest is sorted.
func scanOrder(load []float64, order []int32) []int32 {
	if len(load) == 0 {
		return order
	}
	first := int32(0)
	for i := range load {
		if compareLoad(load, int32(i), first) < 0 {
			first = int32(i)
		}
	}
	// The smallest fill the front in index order, the rest the back in reverse
	// index order, which is then turned round: when the rest share one load too
	// (a machine of idle and of equally busy nodes) they are sorted already.
	n := len(load)
	order = slices.Grow(order[:0], n)[:n] // every entry is written below
	lo, hi := 0, n
	same := true
	for i := range load {
		if compareLoad(load, int32(i), first) == 0 {
			order[lo] = int32(i)
			lo++
		} else {
			hi--
			same = same && (hi == n-1 || load[i] == load[order[n-1]])
			order[hi] = int32(i)
		}
	}
	slices.Reverse(order[lo:])
	if same {
		return order
	}
	slices.SortFunc(order[lo:], func(i, j int32) int {
		if c := compareLoad(load, i, j); c != 0 {
			return c
		}
		return int(i - j)
	})
	return order
}

// table is the node table of one Match call: the view's, row i being the node
// at index i.
type table struct {
	// rows holds the nodes in hostname order. Only what a placement cannot
	// change is read from them: description and health.
	rows []resource.NodeState
	// order lists row numbers in the order first-fit scans them.
	order []int32
	// free and load are the rows' free memory and CPU load, private to the
	// call and charged as replicas are placed. Only the rows in order are
	// read.
	free, load []float64
}

// scratch is the working memory of one Match call, addressed by row. Each
// scan has its own, so an owner placing many candidates reuses the same
// buffers.
type scratch struct {
	free, load []float64
	// named is the order of an option that names its hosts.
	named []int32
	// used marks rows already given to a wildcard replica of this request,
	// which the request's other wildcard replicas may not take.
	used []bool
	// hosts is the node index of each distinct host placed, in placement order.
	hosts []int32
	// plan is the request of a Match call, resolved.
	plan Plan
}

// oneOff is the scan of a Matcher.Match call, with the rows and columns read
// into it. Calls take one from the pool and hand it back.
type oneOff struct {
	scan Scan
	rows []resource.NodeState
	cols resource.Columns
}

var scratchPool = sync.Pool{New: func() any { return new(oneOff) }}

// demand is what one node spec asks of a machine.
type demand struct {
	pattern     string // spec.HostPattern
	wildcard    bool
	os          string // the string os tag, when hasOS
	hasOS       bool
	hostname    string // the string hostname tag, when hasHostname
	hasHostname bool
	grant       float64
	exclusive   bool
}

// Plan is a Request with everything that does not depend on where the option
// lands worked out once — replica counts, memory grants, seconds, busy
// fractions, what each spec asks of a machine, link bandwidths and latency
// bounds — so that trying the option against one more state is a scan over
// columns and no expression is evaluated again. A request that cannot be
// resolved still makes a plan: placing it fails where, and in the words,
// matching the request spec by spec would have. A plan is complete when made
// and only read afterwards, so one plan serves every search that places it.
type Plan struct {
	opt *rsl.OptionSpec
	env rsl.Env

	specs []planSpec
	nodes int // replicas over all specs
	// wildcards is the replicas over wildcard specs, which all take distinct
	// hosts; maxSeconds the largest seconds of a spec.
	wildcards  int
	maxSeconds float64
	// never marks a spec no machine can take, whatever the state: see
	// resolve.
	never bool
	// fail is why resolving stopped at node spec len(specs). It is reported
	// once every spec before it is placed.
	fail *NoFitError

	links []planLink
	comm  float64
	// linkFail is why resolving stopped at link len(links), or at the
	// communication tag when every link resolved.
	linkFail *NoFitError
	// linkEnv is Env as the links were resolved in; nil when the option has
	// no links or communication, or a spec did not resolve.
	linkEnv rsl.Env

	// friction and frictionErr are what Friction reports, granularity and
	// granularityErr what Granularity does.
	friction       float64
	frictionErr    error
	granularity    float64
	granularityErr error
}

// planSpec is one node spec, resolved.
type planSpec struct {
	local    string
	replicas int
	demand   demand
	seconds  float64
	cpuLoad  float64
}

// planLink is one link spec, resolved. a and b are the ends' places in
// Assignment.Nodes.
type planLink struct {
	spec   *rsl.LinkSpec
	a, b   int
	bw     float64
	maxLat float64
	latErr error
}

// NewPlan resolves a request for any number of Place and Misfit calls, and
// evaluates the option's friction over the plan's Env and its granularity
// over the request's variables.
func NewPlan(req Request) *Plan {
	p := new(Plan)
	p.resolve(req)
	if f := req.Option.Friction; f != nil {
		p.friction, p.frictionErr = clamped(f.Eval(p.Env()))
	}
	p.granularity, p.granularityErr = Granularity(req.Option, req.Env)
	return p
}

// Granularity evaluates opt's granularity tag over a choice's variables, as
// Plan.Granularity reports it, for a choice that has no plan.
func Granularity(opt *rsl.OptionSpec, vars rsl.Env) (float64, error) {
	if opt.Granularity == nil {
		return 0, nil
	}
	return clamped(opt.Granularity.Eval(vars))
}

// clamped is an optional tag's value as the controller reads it: clamped at
// zero, and zero, with the error kept, when it does not evaluate.
func clamped(v float64, err error) (float64, error) {
	if err != nil || v < 0 {
		return 0, err
	}
	return v, nil
}

// ChoicePlan resolves one choice of opt, as every search places it.
func ChoicePlan(opt *rsl.OptionSpec, ch rsl.Choice) *Plan {
	return NewPlan(Request{Option: opt, Env: rsl.MapEnv(ch.Vars), MemoryGrants: ch.Grants})
}

// Option is the option the plan places.
func (p *Plan) Option() *rsl.OptionSpec { return p.opt }

// Friction is the cost of switching to the plan's choice as the controller
// charges it: the option's friction expression over Env, clamped at zero,
// and zero when there is none or, with err saying why, it does not evaluate.
func (p *Plan) Friction() (f float64, err error) { return p.friction, p.frictionErr }

// Granularity is the least time, in seconds, the controller leaves the
// plan's choice in place once adopted: the option's granularity expression
// over the request's variables, with Friction's clamp and error.
func (p *Plan) Granularity() (g float64, err error) { return p.granularity, p.granularityErr }

// Failure is why the request did not resolve, nil when it did: placing the
// plan fails with this Reason unless an earlier spec fails to place first.
// It is the plan's own, with no Option set.
func (p *Plan) Failure() *NoFitError {
	if p.fail != nil {
		return p.fail
	}
	return p.linkFail
}

// resolve makes p the plan of req, reusing p's storage.
func (p *Plan) resolve(req Request) {
	opt := req.Option
	*p = Plan{opt: opt, env: req.Env, specs: p.specs[:0], links: p.links[:0]}
	if p.specs == nil {
		p.specs = make([]planSpec, 0, len(opt.Nodes))
	}

	// CPU demand per node spec is the node's busy fraction of the job:
	// the share of the job's critical-path seconds spent there. A database
	// server doing 1 of a job's 10 seconds is charged 0.1 CPUs, not 1.0.
	for i := range opt.Nodes {
		spec := &opt.Nodes[i]
		ps := planSpec{local: spec.LocalName}
		var err error
		if ps.replicas, err = replicaCount(spec, req.Env); err != nil {
			p.fail = specFailed(spec, err)
			return
		}
		needMem, memOp, err := memoryRequirement(spec, req.Env)
		if err != nil {
			p.fail = specFailed(spec, err)
			return
		}
		grant := needMem
		if g, ok := req.MemoryGrants[spec.LocalName]; ok {
			bound := "differs from exact requirement"
			switch memOp {
			case rsl.OpMin:
				ok, bound = !(g < needMem), "below minimum"
			case rsl.OpMax:
				ok, bound = !(g > needMem), "above maximum"
			default:
				ok = g == needMem
			}
			if !ok {
				p.fail = &NoFitError{format: "node %[1]s: grant %[4]g MB %[2]s %[5]g MB", a: spec.LocalName, b: bound, x: g, y: needMem}
				return
			}
			grant = g
		}
		if ps.seconds, err = secondsRequirement(spec, req.Env); err != nil {
			p.fail = specFailed(spec, err)
			return
		}
		exclusive, err := exclusiveRequirement(spec, req.Env)
		if err != nil {
			p.fail = specFailed(spec, err)
			return
		}
		if ps.seconds > p.maxSeconds {
			p.maxSeconds = ps.seconds
		}
		d := demand{pattern: spec.HostPattern, wildcard: spec.HostPattern == "*", grant: grant, exclusive: exclusive}
		if tag, ok := spec.Tags["os"]; ok && tag.IsString {
			d.os, d.hasOS = tag.Str, true
		}
		if tag, ok := spec.Tags["hostname"]; ok && tag.IsString {
			d.hostname, d.hasHostname = tag.Str, true
		}
		switch {
		case d.hasHostname && !d.wildcard && d.pattern != d.hostname:
			// The spec's host can never be the one its tag names.
			p.never = true
		case d.hasHostname && d.wildcard && ps.replicas > 1:
			// Wildcard replicas take distinct hosts, and only the tagged one
			// qualifies.
			p.never = true
		case d.exclusive && !d.wildcard && ps.replicas > 1:
			// Fixed-host replicas stack: the first charges a full CPU, so the
			// second always finds the host busy.
			p.never = true
		}
		if d.wildcard {
			p.wildcards += ps.replicas
		}
		ps.demand = d
		p.specs = append(p.specs, ps)
		p.nodes += ps.replicas
	}
	// Busy-fraction CPU loads, now that the critical path is known. Two specs
	// may share a local name; the later one's requirement stands for both.
	for i := range p.specs {
		ps := &p.specs[i]
		ps.cpuLoad = DefaultCPULoad
		if p.maxSeconds > 0 {
			ps.cpuLoad = p.specs[p.last(ps.local)].seconds / p.maxSeconds
		}
	}
	if len(opt.Links) > 0 || opt.Communication != nil {
		p.resolveLinks()
	}
}

// Replicas is the number of machines the plan places on: its replicas over
// every node spec (that resolved, when one did not).
func (p *Plan) Replicas() int { return p.nodes }

// MaxSeconds is the largest seconds requirement of the plan's node specs.
func (p *Plan) MaxSeconds() float64 { return p.maxSeconds }

// Footprint is what a plan asks of a cluster, wherever it lands.
type Footprint struct {
	// Replicas is the machines the plan places on, and Wildcards those of
	// them that wildcard specs place, each on a host of its own.
	Replicas, Wildcards int
	// MemoryMB is the memory granted over every replica.
	MemoryMB float64
	// ExclusiveNodes is the replicas that hold their machine alone.
	ExclusiveNodes int
	// BandwidthMbps is the links' bandwidth plus the communication tag's.
	BandwidthMbps float64
	// Pinned is the memory each spec bound to a named host puts there, in
	// spec order: a fixed-host spec stacks every replica on its host, and a
	// wildcard spec with a hostname tag places one replica there.
	Pinned []HostShare
}

// HostShare is memory pinned to one hostname.
type HostShare struct {
	Host string
	MB   float64
}

// Footprint reports what the plan asks of a cluster, and false when the plan
// did not resolve, so that placing it fails whatever the state.
func (p *Plan) Footprint() (Footprint, bool) {
	if !p.resolved() {
		return Footprint{}, false
	}
	f := Footprint{Replicas: p.nodes, Wildcards: p.wildcards}
	for i := range p.specs {
		ps := &p.specs[i]
		d := &ps.demand
		f.MemoryMB += float64(ps.replicas) * d.grant
		if d.exclusive {
			f.ExclusiveNodes += ps.replicas
		}
		host, share := d.pattern, float64(ps.replicas)*d.grant
		if d.hasHostname {
			host = d.hostname
			if d.wildcard {
				share = d.grant
			}
		}
		if host != "*" {
			f.Pinned = append(f.Pinned, HostShare{Host: host, MB: share})
		}
	}
	for i := range p.links {
		f.BandwidthMbps += p.links[i].bw
	}
	f.BandwidthMbps += p.comm
	return f, true
}

// resolved reports whether every node spec, link and the communication tag of
// the plan resolved.
func (p *Plan) resolved() bool { return p.fail == nil && p.linkFail == nil }

// Spec is node spec k of the plan resolved: its replica count, rounded as
// placing rounds it, and the memory granted to each replica. ok is false when
// resolving stopped at or before spec k.
func (p *Plan) Spec(k int) (replicas int, grantMB float64, ok bool) {
	if k >= len(p.specs) {
		return 0, 0, false
	}
	return p.specs[k].replicas, p.specs[k].demand.grant, true
}

// Seconds is node spec k's seconds requirement, resolved; ok is false when
// resolving stopped at or before spec k.
func (p *Plan) Seconds(k int) (seconds float64, ok bool) {
	if k >= len(p.specs) {
		return 0, false
	}
	return p.specs[k].seconds, true
}

// LinkBandwidth is the bandwidth of the option's link k; ok is false when
// resolving stopped at or before it.
func (p *Plan) LinkBandwidth(k int) (mbps float64, ok bool) {
	if k >= len(p.links) {
		return 0, false
	}
	return p.links[k].bw, true
}

// Communication is the communication tag's bandwidth; ok is false when the
// option has none or it did not resolve.
func (p *Plan) Communication() (mbps float64, ok bool) {
	return p.comm, p.opt.Communication != nil && p.resolved()
}

// Admitting counts the declared machines that admit one replica of node spec
// k, resolved, when they are healthy and hold nothing; 0 when resolving
// stopped at or before spec k.
func (p *Plan) Admitting(k int, decls []*rsl.NodeDecl) int {
	if k >= len(p.specs) {
		return 0
	}
	d, n := &p.specs[k].demand, 0
	ns := resource.NodeState{Health: resource.HealthUp} // admits reads health, hostname and OS
	for _, decl := range decls {
		ns.Node.Hostname, ns.Node.OS = decl.Hostname, decl.OS
		if d.admits(&ns, false, decl.MemoryMB, 0) == admitted {
			n++
		}
	}
	return n
}

// SameAs reports whether both plans resolved to the same request: the same
// node specs with the same demands, replicas, seconds and CPU loads, the same
// links with the same bandwidths and latency bounds, and the same
// communication. On any state two such plans place on the same hosts and
// links and charge them alike, so a model predicts them alike.
func (p *Plan) SameAs(q *Plan) bool {
	if !p.resolved() || !q.resolved() || !slices.Equal(p.specs, q.specs) ||
		(p.opt.Communication == nil) != (q.opt.Communication == nil) || p.comm != q.comm {
		return false
	}
	return slices.EqualFunc(p.links, q.links, func(l, m planLink) bool {
		if l.spec.A != m.spec.A || l.spec.B != m.spec.B || l.a != m.a || l.b != m.b || l.bw != m.bw ||
			(l.spec.Latency == nil) != (m.spec.Latency == nil) || (l.latErr == nil) != (m.latErr == nil) {
			return false
		}
		return l.latErr != nil || l.maxLat == m.maxLat
	})
}

// Within reports whether both plans resolved to one node spec each with the
// same demand, neither has links or communication, and p asks for no more
// replicas than q. First-fit takes replicas of one demand in one order, so
// wherever q places, p places its replicas on the first of q's hosts,
// charging each as q charges it: a single spec's CPU load is one reference
// CPU whatever its seconds.
func (p *Plan) Within(q *Plan) bool {
	return p.resolved() && q.resolved() && len(p.specs) == 1 && len(q.specs) == 1 &&
		len(p.opt.Links) == 0 && len(q.opt.Links) == 0 &&
		p.opt.Communication == nil && q.opt.Communication == nil &&
		p.specs[0].demand == q.specs[0].demand && p.specs[0].replicas <= q.specs[0].replicas
}

// Env is what the plan's link and communication expressions were evaluated
// in: the granted memory and the seconds of each node spec (as
// Assignment.MemoryEnv has them) over the request's variables.
func (p *Plan) Env() rsl.Env {
	if p.linkEnv != nil {
		return p.linkEnv
	}
	granted := make(rsl.MapEnv, 2*len(p.specs))
	for i := range p.specs {
		granted[p.specs[i].local+".memory"] = p.specs[i].demand.grant
		granted[p.specs[i].local+".seconds"] = p.specs[i].seconds
	}
	return rsl.ChainEnv{granted, p.env}
}

// specFailed is the misfit of a node spec one of whose requirements cannot be
// evaluated, or evaluates to something no machine could be asked for.
func specFailed(spec *rsl.NodeSpec, err error) *NoFitError {
	return &NoFitError{format: "node %[1]s: %[6]v", a: spec.LocalName, err: err}
}

// last finds the last node spec called local, -1 when there is none.
func (p *Plan) last(local string) int {
	for i := len(p.specs) - 1; i >= 0; i-- {
		if p.specs[i].local == local {
			return i
		}
	}
	return -1
}

// resolveLinks evaluates the option's links and communication tag with the
// granted memory visible to the expressions (Assignment.MemoryEnv, which does
// not depend on the hosts).
func (p *Plan) resolveLinks() {
	linkEnv := p.Env()
	p.linkEnv = linkEnv
	for i := range p.opt.Links {
		ls := &p.opt.Links[i]
		// A link joins the first placements of its two node specs.
		l := planLink{spec: ls, a: p.offset(ls.A), b: p.offset(ls.B)}
		if l.a < 0 || l.b < 0 {
			p.linkFail = &NoFitError{format: "link %[1]s-%[2]s references unknown node name", a: ls.A, b: ls.B}
			return
		}
		var err error
		if l.bw, err = ls.Bandwidth.Eval(linkEnv); err != nil {
			p.linkFail = &NoFitError{format: "link %[1]s-%[2]s bandwidth: %[6]v", a: ls.A, b: ls.B, err: err}
			return
		}
		if l.bw < 0 {
			p.linkFail = &NoFitError{format: "link %[1]s-%[2]s bandwidth %[4]g is negative", a: ls.A, b: ls.B, x: l.bw}
			return
		}
		if ls.Latency != nil {
			l.maxLat, l.latErr = ls.Latency.Eval(linkEnv)
		}
		p.links = append(p.links, l)
	}
	if p.opt.Communication != nil {
		comm, err := p.opt.Communication.Eval(linkEnv)
		switch {
		case err != nil:
			p.linkFail = &NoFitError{format: "communication: %[6]v", err: err}
		case comm < 0:
			p.linkFail = &NoFitError{format: "communication %[4]g is negative", x: comm}
		default:
			p.comm = comm
		}
	}
}

// offset is the place in Assignment.Nodes of the first placement of the node
// spec called local, -1 when there is none.
func (p *Plan) offset(local string) int {
	at := 0
	for i := range p.specs {
		if p.specs[i].local == local {
			return at
		}
		at += p.specs[i].replicas
	}
	return -1
}

// Match computes a first-fit assignment without reserving anything. Use
// Reserve to commit the returned assignment.
func (m *Matcher) Match(req Request) (*Assignment, error) {
	if req.Option == nil {
		return nil, errors.New("match: nil option")
	}
	o := scratchPool.Get().(*oneOff)
	defer scratchPool.Put(o)
	snap := m.ledger.Indexed()
	o.rows = snap.AppendNodes(o.rows[:0])
	snap.ReadColumns(&o.cols)
	o.scan.Reset(snap, o.rows, &o.cols)
	return o.scan.match(req)
}

// Match is Matcher.Match over the scan's state, reusing the scan's order
// instead of reading and ordering the table again.
func (s *Scan) Match(req Request) (*Assignment, error) {
	if req.Option == nil {
		return nil, errors.New("match: nil option")
	}
	return s.match(req)
}

func (s *Scan) match(req Request) (*Assignment, error) {
	s.sc.plan.resolve(req)
	asg := new(Assignment)
	if err := s.misfit(&s.sc.plan, asg); err != nil {
		return nil, err
	}
	return asg, nil
}

// Place is Match for a request resolved beforehand, into an assignment the
// caller owns and may hand in again and again: what asg held is overwritten,
// and is of no use when the plan does not fit. That is all Place reports of a
// misfit, which costs it no formatting and no allocation.
func (s *Scan) Place(p *Plan, asg *Assignment) bool {
	return s.place(p, asg, nil)
}

// Misfit places the plan once more, asking why it does not fit: the error
// Match would return for the plan's request over the scan's state, nil when
// the plan fits. A search that tried many plans calls it for the one whose
// reason it reports.
func (s *Scan) Misfit(p *Plan) error {
	return s.misfit(p, new(Assignment))
}

// misfit places the plan into asg and returns why it does not fit, nil when
// it does.
func (s *Scan) misfit(p *Plan, asg *Assignment) error {
	var why NoFitError
	if s.place(p, asg, &why) {
		return nil
	}
	why.Option = p.opt.Name
	return &why
}

// place places the plan over the scan's state, leaving in why, when it is not
// nil, the reason it does not fit.
func (s *Scan) place(p *Plan, asg *Assignment, why *NoFitError) bool {
	sc := &s.sc
	opt := p.opt
	*asg = Assignment{Option: opt.Name, Nodes: asg.Nodes[:0], Links: asg.Links[:0], comm: asg.comm[:0]}

	t := table{rows: s.rows}
	if namesEveryHost(opt) {
		t.order, t.free, t.load = s.named(p)
	} else {
		if !s.built {
			s.build()
		}
		sc.free = append(sc.free[:0], s.cols.FreeMemoryMB...)
		sc.load = append(sc.load[:0], s.cols.CPULoad...)
		t.order, t.free, t.load = s.order, sc.free, sc.load
	}
	used := slices.Grow(sc.used[:0], len(t.rows))[:len(t.rows)]
	clear(used)
	sc.used = used

	asg.Nodes = slices.Grow(asg.Nodes, p.nodes)
	for i := range p.specs {
		ps := &p.specs[i]
		// A node that turned one replica of this spec away turns the next
		// away too (capacity only shrinks within a call), so each replica's
		// scan resumes where the last one stopped instead of at the front.
		from := 0
		for r := 0; r < ps.replicas; r++ {
			var ok bool
			if from, ok = firstFit(&t, from, &ps.demand, used, why); !ok {
				if why != nil {
					why.spec, why.replica = ps.local, r+1
				}
				return false
			}
			// Fixed-host specs may stack multiple local names on the same
			// machine; wildcard placements take distinct hosts.
			row := t.order[from]
			if ps.demand.wildcard {
				used[row] = true
			}
			asg.Nodes = append(asg.Nodes, NodeAssignment{
				LocalName: ps.local,
				Hostname:  t.rows[row].Node.Hostname,
				Seconds:   ps.seconds,
				MemoryMB:  ps.demand.grant,
				CPULoad:   ps.cpuLoad,
				pos:       row,
			})
		}
	}
	return s.link(p, asg, why)
}

// link finishes placing the plan once asg holds its node placements: it
// reports a node spec that did not resolve, then checks the links between the
// hosts placed, and the communication tag's pairs of them, on the scan's
// state and records them in asg. why is as for place.
func (s *Scan) link(p *Plan, asg *Assignment, why *NoFitError) bool {
	misfit := func(e NoFitError) bool {
		if why != nil {
			*why = e
		}
		return false
	}
	snap := s.snap
	if p.fail != nil {
		return misfit(*p.fail)
	}
	asg.topo = snap.Topology()
	for i := range p.links {
		l := &p.links[i]
		a, b := &asg.Nodes[l.a], &asg.Nodes[l.b]
		la := LinkAssignment{
			LocalA: l.spec.A, LocalB: l.spec.B,
			HostA: a.Hostname, HostB: b.Hostname,
			BandwidthMbps: l.bw,
		}
		if a.pos != b.pos {
			id, ok := snap.LinkBetween(int(a.pos), int(b.pos))
			if !ok {
				return misfit(NoFitError{format: "no link between %[1]s and %[2]s", a: la.HostA, b: la.HostB})
			}
			link := snap.LinkAt(id)
			if l.bw > link.BandwidthMbps {
				return misfit(NoFitError{format: "link %[1]s-%[2]s needs %[4]g Mbps, capacity %[5]g Mbps",
					a: la.HostA, b: la.HostB, x: l.bw, y: link.BandwidthMbps})
			}
			if l.spec.Latency != nil {
				if l.latErr != nil {
					return misfit(NoFitError{format: "link %[1]s-%[2]s latency: %[6]v", a: l.spec.A, b: l.spec.B, err: l.latErr})
				}
				if link.LatencyMs > l.maxLat {
					return misfit(NoFitError{format: "link %[1]s-%[2]s latency %[4]g ms exceeds %[5]g ms",
						a: la.HostA, b: la.HostB, x: link.LatencyMs, y: l.maxLat})
				}
			}
			la.id = int32(id)
		}
		asg.Links = append(asg.Links, la)
	}
	if p.linkFail != nil {
		return misfit(*p.linkFail)
	}

	// Aggregate communication: all assigned hosts must be fully connected
	// (Section 3.3: "communication is general and all nodes must be fully
	// connected").
	if p.opt.Communication != nil {
		// The distinct hosts in placement order: Hosts(), by index.
		hosts := s.sc.hosts[:0]
		for i := range asg.Nodes {
			if pos := asg.Nodes[i].pos; !slices.Contains(hosts, pos) {
				hosts = append(hosts, pos)
			}
		}
		s.sc.hosts = hosts
		if asg.comm == nil {
			asg.comm = make([]int32, 0, len(hosts)*(len(hosts)-1)/2)
		}
		for i := 0; i < len(hosts); i++ {
			for j := i + 1; j < len(hosts); j++ {
				id, ok := snap.LinkBetween(int(hosts[i]), int(hosts[j]))
				if !ok {
					return misfit(NoFitError{format: "communication requires link %[1]s-%[2]s",
						a: snap.NodeAt(int(hosts[i])).Hostname, b: snap.NodeAt(int(hosts[j])).Hostname})
				}
				asg.comm = append(asg.comm, int32(id))
			}
		}
		asg.CommunicationMbps = p.comm
	}
	return true
}

// namesEveryHost reports whether no node spec of the option is a wildcard.
func namesEveryHost(opt *rsl.OptionSpec) bool {
	for i := range opt.Nodes {
		if opt.Nodes[i].HostPattern == "*" {
			return false
		}
	}
	return true
}

// named orders the rows of an option that names every host it runs on: just
// those hosts' rows, found by index, in ascending order, which is hostname
// order, with their free memory and load copied into the call's columns. A
// named spec only ever considers the row of its own host, so the rest of the
// cluster and the order of the scan cannot change which machine it gets, what
// capacity a stacked replica finds left there, or why it is turned away; a
// host that is not registered has no row, which is how firstFit learns of it.
// The columns are as long as the table, and only the rows in order are
// written.
func (s *Scan) named(p *Plan) (order []int32, free, load []float64) {
	sc := &s.sc
	n := len(s.rows)
	order = sc.named[:0]
	free, load = slices.Grow(sc.free[:0], n)[:n], slices.Grow(sc.load[:0], n)[:n]
	for i := range p.specs {
		pos, ok := s.snap.NodeIndex(p.specs[i].demand.pattern)
		if !ok || slices.Contains(order, int32(pos)) {
			continue
		}
		order = append(order, int32(pos))
		free[pos], load[pos] = s.cols.FreeMemoryMB[pos], s.cols.CPULoad[pos]
	}
	slices.Sort(order)
	sc.named, sc.free, sc.load = order, free, load
	return order, free, load
}

// Clone returns a copy of the assignment that shares no storage with it, for
// a caller that is about to place into a again.
func (a *Assignment) Clone() *Assignment {
	c := *a
	// An empty list is nil in an assignment Match returns, and is encoded so.
	c.Nodes, c.Links, c.comm = nil, nil, nil
	if len(a.Nodes) > 0 {
		c.Nodes = slices.Clone(a.Nodes)
	}
	if len(a.Links) > 0 {
		c.Links = slices.Clone(a.Links)
	}
	if len(a.comm) > 0 {
		c.comm = slices.Clone(a.comm)
	}
	return &c
}

// CopyTo makes dst a copy of the assignment in dst's own storage: for a
// caller that keeps the best of many trial placements and clones only the one
// it ends up with.
func (a *Assignment) CopyTo(dst *Assignment) {
	*dst = Assignment{
		Option:            a.Option,
		Nodes:             append(dst.Nodes[:0], a.Nodes...),
		Links:             append(dst.Links[:0], a.Links...),
		CommunicationMbps: a.CommunicationMbps,
		topo:              a.topo,
		comm:              append(dst.comm[:0], a.comm...),
	}
}

// appendClaims appends the claims that reserving the assignment makes.
func (a *Assignment) appendClaims(nodes []resource.NodeClaim, links []resource.LinkClaim) ([]resource.NodeClaim, []resource.LinkClaim) {
	for _, n := range a.Nodes {
		nodes = append(nodes, resource.NodeClaim{
			Hostname: n.Hostname,
			MemoryMB: n.MemoryMB,
			CPULoad:  n.CPULoad,
		})
	}
	a.EachLink(func(hostA, hostB string, mbps float64) {
		links = append(links, resource.LinkClaim{A: hostA, B: hostB, BandwidthMbps: mbps})
	})
	return nodes, links
}

// Reserve commits an assignment to the ledger, returning the claim to
// release when the option ends or is reconfigured away.
func (m *Matcher) Reserve(owner string, asg *Assignment) (*resource.Claim, error) {
	if asg == nil {
		return nil, errors.New("match: nil assignment")
	}
	nodeClaims, linkClaims := asg.appendClaims(make([]resource.NodeClaim, 0, len(asg.Nodes)),
		make([]resource.LinkClaim, 0, len(asg.Links)+len(asg.comm)))
	claim, err := m.ledger.Reserve(owner, nodeClaims, linkClaims)
	if err != nil {
		return nil, fmt.Errorf("match: reserve %s: %w", owner, err)
	}
	return claim, nil
}

// Charges is the scratch ReserveColumns builds an assignment's claims and
// their places in. A caller that charges one candidate after another keeps
// one and hands it to every call: once it has grown to the largest
// candidate, charging allocates nothing, however many replicas and links a
// candidate has.
type Charges struct {
	nodes []resource.NodeClaim
	links []resource.LinkClaim
	at    []int32
}

// ReserveColumns charges the assignment to cols, which hold snap's state or
// what earlier trials made of it, as Reserve charges it to a view: the same
// claims in the same order through the same checks, so a refusal reads the
// same. Nothing records the charge but undo, when it is not nil, for
// Columns.Restore to take it back; otherwise the columns are the caller's to
// discard. The claims are built in buf.
func ReserveColumns(cols *resource.Columns, snap *resource.Snapshot, owner string, asg *Assignment, undo *resource.Undo, buf *Charges) error {
	buf.nodes, buf.links = asg.appendClaims(buf.nodes[:0], buf.links[:0])
	buf.at = asg.Places(snap, buf.at[:0])
	if err := cols.Charge(buf.nodes, buf.links, buf.at, undo); err != nil {
		return fmt.Errorf("match: reserve %s: %w", owner, err)
	}
	return nil
}

// rejection is why a node turns a replica away. Only the last one firstFit
// passes over is ever reported, so the scan records the kind and the message
// is put together once, on failure, instead of once per node passed over.
type rejection int

const (
	admitted   rejection = iota
	rejectName           // the spec's host or hostname tag names another machine: passed over silently
	rejectHealth
	rejectUsed
	rejectOS
	rejectMemory
	rejectBusy // the remaining case: an exclusive spec met a loaded node
)

// admits is the one test of a node against one replica of a demand, which
// placing (firstFit) and MayFit share: the node ns with free memory free and
// CPU load load, taken when it already holds a wildcard replica of this
// request (a fixed-host spec ignores that). It returns why the node turns the
// replica away, or admitted. Draining and down nodes accept no new placements
// (existing claims on a draining node survive until their owner moves), and
// exclusive specs — the paper's space-shared parallel workers, which the SP-2
// allocator dedicates whole nodes to — only accept idle machines.
func (d *demand) admits(ns *resource.NodeState, taken bool, free, load float64) rejection {
	host := ns.Node.Hostname
	switch {
	case !d.wildcard && d.pattern != host:
		return rejectName
	case ns.Health != resource.HealthUp:
		return rejectHealth
	case d.wildcard && taken:
		return rejectUsed
	case d.hasOS && d.os != ns.Node.OS:
		return rejectOS
	case d.hasHostname && d.hostname != host:
		return rejectName
	case free < d.grant:
		return rejectMemory
	case d.exclusive && load > 0:
		return rejectBusy
	}
	return admitted
}

// firstFit scans the table's order (least-loaded first) from place from for
// the first machine that admits a replica of the demand, and returns its place
// in order: where the next replica of the same spec resumes. The machine found
// is looked at again then, so a wildcard spec that runs out of machines still
// reports the last one it passed over, as a scan from the front would. When
// there is none it leaves the reason in why, unless why is nil.
func firstFit(t *table, from int, d *demand, used []bool, why *NoFitError) (int, bool) {
	reject, whyAt := rejectName, 0
	for k := from; k < len(t.order); k++ {
		i := int(t.order[k])
		switch r := d.admits(&t.rows[i], used[i], t.free[i], t.load[i]); r {
		case admitted:
			// Charge the call's columns so later replicas in this same Match
			// call see reduced capacity.
			t.free[i] -= d.grant
			if d.exclusive {
				t.load[i] += DefaultCPULoad
			}
			return k, true
		case rejectName:
		default:
			reject, whyAt = r, i
		}
	}
	if why == nil {
		return 0, false
	}
	if reject == rejectName {
		*why = NoFitError{format: "host %[1]s not registered", a: d.pattern}
		if d.wildcard {
			*why = NoFitError{format: "%[1]s", a: "no registered hosts"}
		}
		return 0, false
	}
	ns := &t.rows[whyAt]
	host := ns.Node.Hostname
	switch reject {
	case rejectHealth:
		*why = NoFitError{format: "%[1]s is %[2]s", a: host, b: ns.Health.String()}
	case rejectUsed:
		*why = NoFitError{format: "%[1]s", a: "remaining hosts already used"}
	case rejectOS:
		*why = NoFitError{format: "%[1]s runs %[2]s, need %[3]s", a: host, b: ns.Node.OS, c: d.os}
	case rejectMemory:
		*why = NoFitError{format: "%[1]s has %[4]g MB free, need %[5]g MB", a: host, x: t.free[whyAt], y: d.grant}
	default:
		*why = NoFitError{format: "%[1]s is busy (load %[4]g), spec requires an idle node", a: host, x: t.load[whyAt]}
	}
	return 0, false
}

// MayFit reports whether the plan may fit on the scan's state. false proves
// that Place fails there, and on every state charged further, since a charge
// only takes free memory away and adds load. Each condition it checks is
// implied by a placement: the plan resolved and no spec contradicts itself;
// wildcard replicas, which take distinct hosts across every spec, are no more
// than the healthy rows, and each wildcard spec has as many rows that admit a
// replica as it has replicas (counted once per shape and state); and the host
// of a fixed-host spec admits the first replica and has the memory to stack
// the rest, charged one by one as firstFit charges them. It reads the rows
// whatever the plan, so the scan must be Reset with them.
func (s *Scan) MayFit(p *Plan) bool {
	if !p.resolved() || p.never {
		return false
	}
	if p.wildcards > 0 && p.wildcards > s.healthy() {
		return false
	}
	for i := range p.specs {
		ps := &p.specs[i]
		d := &ps.demand
		if d.wildcard {
			if s.admitting(d) < ps.replicas {
				return false
			}
			continue
		}
		row, ok := s.snap.NodeIndex(d.pattern)
		if !ok {
			return false
		}
		free, load := s.at(row)
		if d.admits(&s.rows[row], false, free, load) != admitted {
			return false
		}
		for r := 1; r < ps.replicas; r++ {
			if free -= d.grant; free < d.grant {
				return false
			}
		}
	}
	return true
}

// at is the free memory and CPU load of a row on the scan's state.
func (s *Scan) at(row int) (free, load float64) {
	return s.cols.FreeMemoryMB[row], s.cols.CPULoad[row]
}

// healthy is the number of rows that accept placements at all.
func (s *Scan) healthy() int {
	if s.up < 0 {
		s.up = 0
		for i := range s.rows {
			if s.rows[i].Health == resource.HealthUp {
				s.up++
			}
		}
	}
	return s.up
}

// admitting counts the rows that admit one replica of a wildcard demand on
// the scan's state, memoized by the demand's shape.
func (s *Scan) admitting(d *demand) int {
	for i := range s.shapes {
		if s.shapes[i].shape == *d {
			return s.shapes[i].n
		}
	}
	n := 0
	for i := range s.rows {
		free, load := s.at(i)
		if d.admits(&s.rows[i], false, free, load) == admitted {
			n++
		}
	}
	s.shapes = append(s.shapes, shapeCount{*d, n})
	return n
}

func replicaCount(spec *rsl.NodeSpec, env rsl.Env) (int, error) {
	if spec.Replicate == nil {
		return 1, nil
	}
	v, err := spec.Replicate.Eval(env)
	if err != nil {
		return 0, fmt.Errorf("replicate: %w", err)
	}
	n := int(math.Round(v))
	if n < 1 {
		return 0, fmt.Errorf("replicate count %g must be >= 1", v)
	}
	return n, nil
}

func memoryRequirement(spec *rsl.NodeSpec, env rsl.Env) (float64, rsl.ConstraintOp, error) {
	tag, ok := spec.Tags["memory"]
	if !ok {
		return 0, rsl.OpExact, nil
	}
	v, err := tag.EvalNum(env)
	if err != nil {
		return 0, tag.Op, fmt.Errorf("memory: %w", err)
	}
	if v < 0 {
		return 0, tag.Op, fmt.Errorf("memory %g is negative", v)
	}
	return v, tag.Op, nil
}

// exclusiveRequirement decodes the optional {exclusive 1} node tag.
func exclusiveRequirement(spec *rsl.NodeSpec, env rsl.Env) (bool, error) {
	tag, ok := spec.Tags["exclusive"]
	if !ok {
		return false, nil
	}
	v, err := tag.EvalNum(env)
	if err != nil {
		return false, fmt.Errorf("exclusive: %w", err)
	}
	return v != 0, nil
}

func secondsRequirement(spec *rsl.NodeSpec, env rsl.Env) (float64, error) {
	tag, ok := spec.Tags["seconds"]
	if !ok {
		return 0, nil
	}
	v, err := tag.EvalNum(env)
	if err != nil {
		return 0, fmt.Errorf("seconds: %w", err)
	}
	if v < 0 {
		return 0, fmt.Errorf("seconds %g is negative", v)
	}
	return v, nil
}
