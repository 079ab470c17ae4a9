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
		hosts := a.Hosts()
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
// That is the form resource.Columns.Reserve takes. What Match recorded is
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
	// ExcludeHosts are machines the matcher must not use (e.g. reserved).
	ExcludeHosts map[string]bool
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

// WithView returns a matcher bound to another view, e.g. a ledger snapshot
// for hypothetical matching.
func (m *Matcher) WithView(view resource.View) *Matcher {
	return &Matcher{ledger: view}
}

// Scan is one state's node table as Match reads it: the rows in hostname
// order, the order first-fit scans them in, and their free memory and load
// as columns. It holds for the state it was aimed at and for no other, so
// whoever owns it resets it whenever that state changes. Between resets any
// number of goroutines may Match over it at once: a call reads the rows
// (health, OS, hostname) where they are and charges the replicas it places to
// its own copy of the two columns, so nothing a call does is seen by another.
// The order is built by the first call whose option has a wildcard spec;
// options that name every host never need it.
type Scan struct {
	snap *resource.Snapshot
	rows []resource.NodeState
	// cols, when set, is where free memory and load are read from in place of
	// the rows' own: the snapshot's state with trial reservations on top.
	cols *resource.Columns

	once   sync.Once
	order  []int32
	free   []float64 // the rows' own, read out when cols is nil
	load   []float64
	builds int
}

// Reset aims the scan at a snapshot. rows must be the snapshot's node table
// (AppendNodes) and must not change while the scan is in use; it is not read
// for options that name every host, so a caller that only matches those may
// pass nil. cols, when not nil, holds the free memory and load to match
// against by node index — the rows then give only what a reservation cannot
// change — and must hold still until the next Reset. Reset must not run beside
// Match.
func (s *Scan) Reset(snap *resource.Snapshot, rows []resource.NodeState, cols *resource.Columns) {
	s.snap, s.rows, s.cols = snap, rows, cols
	s.once = sync.Once{}
}

// Builds reports how many times the scan order has been worked out since the
// scan was made: at most once per Reset.
func (s *Scan) Builds() int { return s.builds }

// build orders the rows: least-loaded first, so concurrent applications spread
// onto idle machines, and by hostname within one load.
func (s *Scan) build() {
	s.builds++
	if s.cols == nil {
		s.free, s.load = s.free[:0], s.load[:0]
		for i := range s.rows {
			s.free = append(s.free, s.rows[i].FreeMemoryMB)
			s.load = append(s.load, s.rows[i].CPULoad)
		}
	}
	_, load := s.columns()
	s.order = scanOrder(load, s.order[:0])
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
	order = append(order, make([]int32, n)...)
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

// columns returns the free memory and load Match starts from, by row.
func (s *Scan) columns() (free, load []float64) {
	if s.cols != nil {
		return s.cols.FreeMemoryMB, s.cols.CPULoad
	}
	return s.free, s.load
}

// table is the node table of one Match call.
type table struct {
	// rows holds the nodes in hostname order. Only what a placement cannot
	// change is read from them: description and health.
	rows []resource.NodeState
	// order lists row numbers in the order first-fit scans them.
	order []int32
	// free and load are the rows' free memory and CPU load, private to the
	// call and charged as replicas are placed.
	free, load []float64
	// pos maps a row to the node's index in the view's table; nil when rows
	// is that table.
	pos []int32
}

// at is the index in the view's node table of the node in the given row.
func (t *table) at(row int32) int32 {
	if t.pos == nil {
		return row
	}
	return t.pos[row]
}

// scratch is the working memory of one Match call, addressed by row. Calls
// take one from the pool and hand it back, so a worker evaluating many
// candidates reuses the same buffers.
type scratch struct {
	free, load []float64
	// rows, order and pos make up the table of an option that names its hosts.
	rows  []resource.NodeState
	order []int32
	pos   []int32
	// used marks rows the request may not take: excluded by the caller, or
	// already given to a wildcard replica of this request.
	used []bool
	// hosts is the node index of each distinct host placed, in placement order.
	hosts []int32
	// plan is the request of a Match call, resolved.
	plan Plan
	// own is the scan of a Match call that was not given one.
	own     Scan
	ownRows []resource.NodeState
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

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
	opt     *rsl.OptionSpec
	env     rsl.Env
	exclude map[string]bool

	specs []planSpec
	nodes int // replicas over all specs
	// fail is why resolving stopped at node spec len(specs). It is reported
	// once every spec before it is placed.
	fail *NoFitError

	links []planLink
	comm  float64
	// linkFail is why resolving stopped at link len(links), or at the
	// communication tag when every link resolved.
	linkFail *NoFitError
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

// NewPlan resolves a request for any number of Place and Misfit calls.
func NewPlan(req Request) *Plan {
	p := new(Plan)
	p.resolve(req)
	return p
}

// resolve makes p the plan of req, reusing p's storage.
func (p *Plan) resolve(req Request) {
	opt := req.Option
	*p = Plan{opt: opt, env: req.Env, exclude: req.ExcludeHosts, specs: p.specs[:0], links: p.links[:0]}

	// CPU demand per node spec is the node's busy fraction of the job:
	// the share of the job's critical-path seconds spent there. A database
	// server doing 1 of a job's 10 seconds is charged 0.1 CPUs, not 1.0.
	maxSeconds := 0.0
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
		if ps.seconds > maxSeconds {
			maxSeconds = ps.seconds
		}
		d := demand{pattern: spec.HostPattern, wildcard: spec.HostPattern == "*", grant: grant, exclusive: exclusive}
		if tag, ok := spec.Tags["os"]; ok && tag.IsString {
			d.os, d.hasOS = tag.Str, true
		}
		if tag, ok := spec.Tags["hostname"]; ok && tag.IsString {
			d.hostname, d.hasHostname = tag.Str, true
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
		if maxSeconds > 0 {
			ps.cpuLoad = p.specs[p.last(ps.local)].seconds / maxSeconds
		}
	}
	if len(opt.Links) > 0 || opt.Communication != nil {
		p.resolveLinks()
	}
}

// Demand is what one node spec of a plan asks of the machine of each of its
// replicas, resolved.
type Demand struct {
	Local     string
	Host      string // the spec's host: a hostname, or "*" for any
	OS        string // the os tag, "" when there is none
	Hostname  string // the hostname tag, "" when there is none
	Replicas  int
	MemoryMB  float64 // the grant
	Seconds   float64
	Exclusive bool
}

// Demands returns what each node spec of the plan asks for, in spec order, or
// false when the request did not resolve — a requirement, link or
// communication expression that fails or is out of range, a grant outside its
// constraint, a link naming a node the option does not have — and so fails
// to place on every state.
func (p *Plan) Demands() ([]Demand, bool) {
	if p.fail != nil || p.linkFail != nil {
		return nil, false
	}
	ds := make([]Demand, len(p.specs))
	for i := range p.specs {
		ps := &p.specs[i]
		ds[i] = Demand{
			Local: ps.local, Host: ps.demand.pattern, OS: ps.demand.os, Hostname: ps.demand.hostname,
			Replicas: ps.replicas, MemoryMB: ps.demand.grant, Seconds: ps.seconds, Exclusive: ps.demand.exclusive,
		}
	}
	return ds, true
}

// Env is what the plan's link and communication expressions were evaluated
// in: the granted memory and the seconds of each node spec (as
// Assignment.MemoryEnv has them) over the request's variables.
func (p *Plan) Env() rsl.Env {
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
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.ownRows = sc.ownRows[:0]
	if !namesEveryHost(req.Option) {
		sc.ownRows = m.ledger.AppendNodes(sc.ownRows)
	}
	sc.own.Reset(m.ledger.Indexed(), sc.ownRows, nil)
	return sc.own.match(req, sc)
}

// Match is Matcher.Match over the scan's state, sharing the scan with every
// other call instead of reading and ordering the table again.
func (s *Scan) Match(req Request) (*Assignment, error) {
	if req.Option == nil {
		return nil, errors.New("match: nil option")
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return s.match(req, sc)
}

func (s *Scan) match(req Request, sc *scratch) (*Assignment, error) {
	sc.plan.resolve(req)
	asg := new(Assignment)
	if err := s.misfit(&sc.plan, asg, sc); err != nil {
		return nil, err
	}
	return asg, nil
}

// Place is Match for a request resolved beforehand, into an assignment the
// caller owns and may hand in again and again: what asg held is overwritten,
// and is of no use when the plan does not fit. That is all Place reports of a
// misfit, which costs it no formatting and no allocation.
func (s *Scan) Place(p *Plan, asg *Assignment) bool {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return s.place(p, asg, sc, nil)
}

// Misfit places the plan once more, asking why it does not fit: the error
// Match would return for the plan's request over the scan's state, nil when
// the plan fits. A search that tried many plans calls it for the one whose
// reason it reports.
func (s *Scan) Misfit(p *Plan) error {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return s.misfit(p, new(Assignment), sc)
}

// misfit places the plan into asg and returns why it does not fit, nil when
// it does.
func (s *Scan) misfit(p *Plan, asg *Assignment, sc *scratch) error {
	var why NoFitError
	if s.place(p, asg, sc, &why) {
		return nil
	}
	why.Option = p.opt.Name
	return &why
}

// place places the plan over the scan's state, leaving in why, when it is not
// nil, the reason it does not fit.
func (s *Scan) place(p *Plan, asg *Assignment, sc *scratch, why *NoFitError) bool {
	misfit := func(e NoFitError) bool {
		if why != nil {
			*why = e
		}
		return false
	}
	opt := p.opt
	snap := s.snap
	*asg = Assignment{Option: opt.Name, Nodes: asg.Nodes[:0], Links: asg.Links[:0], comm: asg.comm[:0]}

	var t table
	if namesEveryHost(opt) {
		t = s.namedTable(sc, opt)
	} else {
		s.once.Do(s.build)
		free, load := s.columns()
		sc.free = append(sc.free[:0], free...)
		sc.load = append(sc.load[:0], load...)
		t = table{rows: s.rows, order: s.order, free: sc.free, load: sc.load}
	}
	sc.used = append(sc.used[:0], make([]bool, len(t.rows))...)
	used := sc.used
	for host, excluded := range p.exclude {
		if i, ok := resource.FindNode(t.rows, host); ok && excluded {
			used[i] = true
		}
	}

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
				pos:       t.at(row),
			})
		}
	}
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
	if opt.Communication != nil {
		// The distinct hosts in placement order: Hosts(), by index.
		hosts := sc.hosts[:0]
		for i := range asg.Nodes {
			if pos := asg.Nodes[i].pos; !slices.Contains(hosts, pos) {
				hosts = append(hosts, pos)
			}
		}
		sc.hosts = hosts
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

// namedTable fills the scratch table for an option that names every host it
// runs on: just those hosts, looked up instead of scanned for — the one time
// their names are looked up, the index found going with the row. A named spec
// only ever considers the row of its own host, so the rest of the cluster and
// the order of the scan cannot change which machine it gets, what capacity a
// stacked replica finds left there, or why it is turned away. The rows stay
// in hostname order, as firstFit's callers expect of the table; a host that
// is not registered has no row, which is how firstFit learns of it.
func (s *Scan) namedTable(sc *scratch, opt *rsl.OptionSpec) table {
	sc.rows, sc.order, sc.pos = sc.rows[:0], sc.order[:0], sc.pos[:0]
	for i := range opt.Nodes {
		host := opt.Nodes[i].HostPattern
		row, dup := resource.FindNode(sc.rows, host)
		if dup {
			continue
		}
		if pos, ok := s.snap.NodeIndex(host); ok {
			sc.rows = slices.Insert(sc.rows, row, s.snap.StateAt(pos))
			sc.pos = slices.Insert(sc.pos, row, int32(pos))
		}
	}
	sc.free, sc.load = sc.free[:0], sc.load[:0]
	for i := range sc.rows {
		sc.order = append(sc.order, int32(i))
		free, load := sc.rows[i].FreeMemoryMB, sc.rows[i].CPULoad
		if s.cols != nil {
			free, load = s.cols.FreeMemoryMB[sc.pos[i]], s.cols.CPULoad[sc.pos[i]]
		}
		sc.free = append(sc.free, free)
		sc.load = append(sc.load, load)
	}
	return table{rows: sc.rows, order: sc.order, free: sc.free, load: sc.load, pos: sc.pos}
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

// ReserveColumns charges the assignment to cols, which hold snap's state or
// what earlier trials made of it, as Reserve charges it to a view: the same
// claims in the same order through the same checks, so a refusal reads the
// same. Nothing records the charge but undo, when it is not nil, for
// Columns.Restore to take it back; otherwise the columns are the caller's to
// discard.
func ReserveColumns(cols *resource.Columns, snap *resource.Snapshot, owner string, asg *Assignment, undo *resource.Undo) error {
	var (
		nodeBuf [32]resource.NodeClaim
		linkBuf [8]resource.LinkClaim
		atBuf   [40]int32
	)
	nodeClaims, linkClaims := asg.appendClaims(nodeBuf[:0], linkBuf[:0])
	if err := cols.Charge(nodeClaims, linkClaims, asg.Places(snap, atBuf[:0]), undo); err != nil {
		return fmt.Errorf("match: reserve %s: %w", owner, err)
	}
	return nil
}

// rejection is why firstFit passed over a node. Only the last one is ever
// reported, so the scan records the kind and the message is put together once,
// on failure, instead of once per node passed over.
type rejection int

const (
	rejectNone rejection = iota
	rejectHealth
	rejectUsed
	rejectOS
	rejectMemory
	rejectBusy // the remaining case: an exclusive spec met a loaded node
)

// firstFit scans the table's order (least-loaded first) from place from for
// the first machine satisfying the demand, and returns its place in order:
// where the next replica of the same spec resumes. The machine found is
// looked at again then, so a wildcard spec that runs out of machines still
// reports the last one it passed over, as a scan from the front would. When
// there is none it leaves the reason in why, unless why is nil. Exclusive
// specs — the paper's space-shared parallel workers, which the SP-2 allocator
// dedicates whole nodes to — only accept idle machines.
func firstFit(t *table, from int, d *demand, used []bool, why *NoFitError) (int, bool) {
	reject, whyAt := rejectNone, 0
	for k := from; k < len(t.order); k++ {
		i := int(t.order[k])
		ns := &t.rows[i]
		host := ns.Node.Hostname
		switch {
		case !d.wildcard && d.pattern != host:
			continue
		case ns.Health != resource.HealthUp:
			// Draining and down nodes accept no new placements; existing
			// claims on a draining node survive until their owner moves.
			reject, whyAt = rejectHealth, i
			continue
		case d.wildcard && used[i]:
			reject, whyAt = rejectUsed, i
			continue
		case d.hasOS && d.os != ns.Node.OS:
			reject, whyAt = rejectOS, i
			continue
		case d.hasHostname && d.hostname != host:
			continue
		case t.free[i] < d.grant:
			reject, whyAt = rejectMemory, i
			continue
		case d.exclusive && t.load[i] > 0:
			reject, whyAt = rejectBusy, i
			continue
		}
		// Found: charge the call's columns so later replicas in this same
		// Match call see reduced capacity.
		t.free[i] -= d.grant
		if d.exclusive {
			t.load[i] += DefaultCPULoad
		}
		return k, true
	}
	if why == nil {
		return 0, false
	}
	if reject == rejectNone {
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
