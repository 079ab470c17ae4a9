// Package resource defines Harmony's resource model: nodes whose computing
// capacity is expressed relative to a reference machine (a 400 MHz
// Pentium II in the paper, Section 3), links with bandwidth and latency, and
// a capacity ledger that tracks allocations so the matcher (Section 4.1)
// can decrease available resources as requirements are placed.
package resource

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
)

// ReferenceMachineDescription documents the abstract machine against which
// all "seconds" requirements are quantified.
const ReferenceMachineDescription = "400 MHz Pentium II (speed 1.0)"

// Node is one machine published to Harmony via harmonyNode.
type Node struct {
	// Hostname uniquely identifies the machine.
	Hostname string
	// Speed scales the reference machine: 2.0 executes reference-seconds
	// twice as fast.
	Speed float64
	// MemoryMB is installed memory.
	MemoryMB float64
	// OS is the operating system name ("linux", "aix", ...).
	OS string
	// CPUs is the processor count.
	CPUs int
}

// Validate checks invariants.
func (n *Node) Validate() error {
	if n.Hostname == "" {
		return errors.New("resource: node needs a hostname")
	}
	if n.Speed <= 0 {
		return fmt.Errorf("resource: node %s speed %g must be positive", n.Hostname, n.Speed)
	}
	if n.MemoryMB < 0 {
		return fmt.Errorf("resource: node %s memory %g must be non-negative", n.Hostname, n.MemoryMB)
	}
	if n.CPUs < 1 {
		return fmt.Errorf("resource: node %s cpus %d must be >= 1", n.Hostname, n.CPUs)
	}
	return nil
}

// NodeHealth is a node's lifecycle state. The zero value is HealthUp, so
// nodes are schedulable unless explicitly marked otherwise.
type NodeHealth int

const (
	// HealthUp accepts new placements.
	HealthUp NodeHealth = iota
	// HealthDraining keeps existing claims but refuses new placements, so
	// the node can be vacated gracefully.
	HealthDraining
	// HealthDown is unreachable: no placements, and claims pinned to the
	// node must be evicted (EvictHost).
	HealthDown
)

// String implements fmt.Stringer.
func (h NodeHealth) String() string {
	switch h {
	case HealthUp:
		return "up"
	case HealthDraining:
		return "draining"
	case HealthDown:
		return "down"
	}
	return fmt.Sprintf("NodeHealth(%d)", int(h))
}

// ParseNodeHealth parses a lifecycle state name ("up", "draining", "down";
// "drain" is accepted as an alias for "draining").
func ParseNodeHealth(s string) (NodeHealth, error) {
	switch s {
	case "up":
		return HealthUp, nil
	case "draining", "drain":
		return HealthDraining, nil
	case "down":
		return HealthDown, nil
	}
	return 0, fmt.Errorf("resource: unknown node health %q (want up, draining or down)", s)
}

// Link is a network connection between two machines.
type Link struct {
	// A and B are the endpoint hostnames; links are undirected.
	A, B string
	// BandwidthMbps is total capacity in megabits per second.
	BandwidthMbps float64
	// LatencyMs is one-way latency in milliseconds.
	LatencyMs float64
}

// Key returns a direction-independent identifier for the link.
func (l *Link) Key() string { return LinkKey(l.A, l.B) }

// LinkKey builds the direction-independent identifier for a node pair.
func LinkKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// NodeClaim records resources reserved on one node for one allocation.
type NodeClaim struct {
	// Hostname is the node charged.
	Hostname string
	// MemoryMB is the reserved memory.
	MemoryMB float64
	// CPULoad is the steady-state CPU demand in reference-machine units
	// (1.0 means it would saturate one reference CPU).
	CPULoad float64
}

// LinkClaim records bandwidth reserved on one link.
type LinkClaim struct {
	// A and B are the endpoint hostnames.
	A, B string
	// BandwidthMbps is the reserved bandwidth.
	BandwidthMbps float64
}

// Claim is a reservation of node and link resources that can be released as
// a unit (when an application ends or is reconfigured to another option).
type Claim struct {
	// ID identifies the claim within its ledger.
	ID uint64
	// Owner is a free-form tag naming the claiming application/option.
	Owner string
	// Nodes lists per-node reservations.
	Nodes []NodeClaim
	// Links lists per-link reservations.
	Links []LinkClaim
}

// Errors reported by the ledger.
var (
	// ErrUnknownNode is returned when a claim names an unregistered node.
	ErrUnknownNode = errors.New("resource: unknown node")
	// ErrUnknownLink is returned when a claim names an unregistered link.
	ErrUnknownLink = errors.New("resource: unknown link")
	// ErrInsufficient is returned when capacity would go negative.
	ErrInsufficient = errors.New("resource: insufficient capacity")
	// ErrUnknownClaim is returned when releasing an id not held.
	ErrUnknownClaim = errors.New("resource: unknown claim")
)

// NodeState is a snapshot of one node's allocation state.
type NodeState struct {
	// Node is the immutable node description.
	Node Node
	// FreeMemoryMB is unreserved memory.
	FreeMemoryMB float64
	// CPULoad is the sum of reference-unit CPU demands placed on the node.
	CPULoad float64
	// Health is the node's lifecycle state; only HealthUp nodes accept new
	// placements.
	Health NodeHealth
}

// EffectiveSpeed reports the per-job execution speed (reference units) the
// node delivers under its current load: with total demand d spread over c
// CPUs of speed s, each unit of demand progresses at min(1, c/d)·s. This is
// the contention model the paper's default predictor relies on ("suitably
// scaled to reflect resource contention", Section 3.1).
func (ns NodeState) EffectiveSpeed() float64 {
	return EffectiveSpeed(ns.Node.Speed, ns.Node.CPUs, ns.CPULoad)
}

// EffectiveSpeed computes contention-scaled speed for arbitrary parameters.
func EffectiveSpeed(speed float64, cpus int, load float64) float64 {
	if load <= float64(cpus) {
		return speed
	}
	return speed * float64(cpus) / load
}

// LinkState is a snapshot of one link's allocation state.
type LinkState struct {
	// Link is the immutable link description.
	Link Link
	// ReservedMbps is the sum of bandwidth reservations.
	ReservedMbps float64
}

// FreeMbps is the unreserved bandwidth (never negative).
func (ls LinkState) FreeMbps() float64 {
	free := ls.Link.BandwidthMbps - ls.ReservedMbps
	if free < 0 {
		return 0
	}
	return free
}

// Utilization is the reserved fraction of the link, >1 when over-subscribed
// by best-effort claims.
func (ls LinkState) Utilization() float64 {
	if ls.Link.BandwidthMbps <= 0 {
		return 0
	}
	return ls.ReservedMbps / ls.Link.BandwidthMbps
}

// FindNode bisects a node table in hostname order, as Nodes returns it, for
// hostname: its index and true, or where it would be inserted and false.
func FindNode(states []NodeState, hostname string) (int, bool) {
	return slices.BinarySearchFunc(states, hostname, func(ns NodeState, h string) int {
		return strings.Compare(ns.Node.Hostname, h)
	})
}

// topology is the cluster's inventory: which nodes and links exist, and
// where each one sits in the tables of the ledger and its snapshots. It holds
// everything reservations never change, so a snapshot shares its ledger's
// topology instead of copying it, and the ledger clones it before the first
// AddNode or AddLink that follows a snapshot.
type topology struct {
	// ids numbers the nodes in order of registration. It is the only table
	// keyed by a string; everything past the API boundary is addressed by
	// index. Node ids exist so that pair never has to move a row when a
	// hostname sorts into the middle.
	ids map[string]int32
	// pos maps a node id to the node's index in hostname order, and byPos
	// maps the index back to the id.
	pos   []int32
	byPos []int32
	// links holds the link descriptors by link id, in order of registration.
	links []Link
	// pair is the lower triangle (diagonal included) of the node-id by
	// node-id matrix of link id + 1; 0 means no link.
	pair []int32
}

func (t *topology) clone() *topology {
	c := &topology{
		ids:   make(map[string]int32, len(t.ids)),
		pos:   slices.Clone(t.pos),
		byPos: slices.Clone(t.byPos),
		links: slices.Clone(t.links),
		pair:  slices.Clone(t.pair),
	}
	for h, id := range t.ids {
		c.ids[h] = id
	}
	return c
}

// node resolves a hostname to its index in hostname order.
func (t *topology) node(hostname string) (int, bool) {
	id, ok := t.ids[hostname]
	if !ok {
		return 0, false
	}
	return int(t.pos[id]), true
}

// pairSlot is where pair keeps the link between two node ids.
func pairSlot(a, b int32) int {
	if a < b {
		a, b = b, a
	}
	return int(a)*(int(a)+1)/2 + int(b)
}

// link resolves a host pair, in either direction, to its link id.
func (t *topology) link(a, b string) (int, bool) {
	ia, ok := t.ids[a]
	if !ok {
		return 0, false
	}
	ib, ok := t.ids[b]
	if !ok {
		return 0, false
	}
	id := t.pair[pairSlot(ia, ib)]
	return int(id) - 1, id != 0
}

// linkAt resolves a pair of node indices, in either direction, to its link id.
func (t *topology) linkAt(a, b int) (int, bool) {
	id := t.pair[pairSlot(t.byPos[a], t.byPos[b])]
	return int(id) - 1, id != 0
}

// Ledger tracks registered nodes/links and outstanding claims. It is safe
// for concurrent use.
type Ledger struct {
	mu sync.Mutex
	// topo indexes the tables below. topoShared is set once a snapshot
	// holds it; the next AddNode or AddLink then works on a clone.
	topo       *topology
	topoShared bool
	// states holds every node in hostname order. The order the matcher
	// scans in is how the table is stored, not a sort applied on the way out.
	states []NodeState
	// reserved is the bandwidth reserved on each link, by link id. It is by
	// far the longest column and most claims leave it alone, so snapshots
	// share it the way they share topo: reservedShared is set once one holds
	// it, and the next write to it works on a clone.
	reserved       []float64
	reservedShared bool
	// claims holds the outstanding claims in id order.
	claims []*Claim
	nextID uint64
	// snapCache is the immutable base shared by snapshots taken since the
	// last mutation; any write to the ledger drops it (see Snapshot).
	snapCache *snapBase
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{topo: &topology{ids: make(map[string]int32)}}
}

// ownTopology returns the topology for writing, cloning it first if a
// snapshot shares it.
func (l *Ledger) ownTopology() *topology {
	if l.topoShared {
		l.topo, l.topoShared = l.topo.clone(), false
	}
	return l.topo
}

// ownReserved returns the reserved column for writing, cloning it first if a
// snapshot shares it. A column a snapshot has seen is therefore never written
// again, which Columns relies on to tell whether its copy is still good.
func (l *Ledger) ownReserved() []float64 {
	if l.reservedShared {
		l.reserved, l.reservedShared = slices.Clone(l.reserved), false
	}
	return l.reserved
}

// AddNode registers (or replaces an unclaimed) node.
func (l *Ledger) AddNode(n Node) error {
	if err := n.Validate(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	fresh := NodeState{Node: n, FreeMemoryMB: n.MemoryMB}
	p, exists := FindNode(l.states, n.Hostname)
	if exists {
		if old := &l.states[p]; old.CPULoad > 0 || old.FreeMemoryMB != old.Node.MemoryMB {
			return fmt.Errorf("resource: node %s has outstanding claims", n.Hostname)
		}
		l.states[p] = fresh
		l.snapCache = nil
		return nil
	}
	t := l.ownTopology()
	l.states = slices.Insert(l.states, p, fresh)
	for id := range t.pos {
		if int(t.pos[id]) >= p {
			t.pos[id]++
		}
	}
	t.byPos = slices.Insert(t.byPos, p, int32(len(t.pos)))
	t.ids[n.Hostname] = int32(len(t.pos))
	t.pos = append(t.pos, int32(p))
	t.pair = append(t.pair, make([]int32, len(t.pos))...)
	l.snapCache = nil
	return nil
}

// AddLink registers a link between two already-registered nodes.
func (l *Ledger) AddLink(lk Link) error {
	if lk.BandwidthMbps <= 0 {
		return fmt.Errorf("resource: link %s-%s bandwidth %g must be positive", lk.A, lk.B, lk.BandwidthMbps)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ia, ok := l.topo.ids[lk.A]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, lk.A)
	}
	ib, ok := l.topo.ids[lk.B]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, lk.B)
	}
	t := l.ownTopology()
	slot := pairSlot(ia, ib)
	if id := t.pair[slot]; id != 0 {
		t.links[id-1] = lk
		l.ownReserved()[id-1] = 0
	} else {
		t.links = append(t.links, lk)
		l.reserved = append(l.ownReserved(), 0)
		t.pair[slot] = int32(len(t.links))
	}
	l.snapCache = nil
	return nil
}

// Node returns the snapshot state of a node.
func (l *Ledger) Node(hostname string) (NodeState, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	p, ok := l.topo.node(hostname)
	if !ok {
		return NodeState{}, fmt.Errorf("%w: %s", ErrUnknownNode, hostname)
	}
	return l.states[p], nil
}

// SetNodeHealth transitions a node's lifecycle state. Claims already placed
// on the node are unaffected; callers that mark a node down should follow up
// with EvictHost to reclaim them.
func (l *Ledger) SetNodeHealth(hostname string, h NodeHealth) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	p, ok := l.topo.node(hostname)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, hostname)
	}
	if l.states[p].Health == h {
		return nil
	}
	l.states[p].Health = h
	l.snapCache = nil
	return nil
}

// NodeHealth reports a node's lifecycle state.
func (l *Ledger) NodeHealth(hostname string) (NodeHealth, error) {
	ns, err := l.Node(hostname)
	return ns.Health, err
}

// ClaimsOn reports the outstanding claims holding resources on hostname,
// sorted by id.
func (l *Ledger) ClaimsOn(hostname string) []*Claim {
	var out []*Claim
	for _, c := range l.Claims() {
		for _, nc := range c.Nodes {
			if nc.Hostname == hostname {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

// EvictHost releases every claim holding resources on hostname (claims are
// released whole, freeing their reservations on surviving nodes too) and
// returns the evicted claims so callers can re-place their owners.
func (l *Ledger) EvictHost(hostname string) []*Claim {
	evicted := l.ClaimsOn(hostname)
	for _, c := range evicted {
		_ = l.Release(c.ID)
	}
	return evicted
}

// Link returns the snapshot state of a link.
func (l *Ledger) Link(a, b string) (LinkState, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	id, ok := l.topo.link(a, b)
	if !ok {
		return LinkState{}, fmt.Errorf("%w: %s-%s", ErrUnknownLink, a, b)
	}
	return LinkState{Link: l.topo.links[id], ReservedMbps: l.reserved[id]}, nil
}

// Indexed implements View: the ledger is read by index through a snapshot of
// it, which costs nothing while the ledger is unchanged.
func (l *Ledger) Indexed() *Snapshot { return l.Snapshot() }

// Nodes returns snapshots of all nodes sorted by hostname.
func (l *Ledger) Nodes() []NodeState { return l.AppendNodes(nil) }

// AppendNodes appends every node's state to dst in hostname order.
func (l *Ledger) AppendNodes(dst []NodeState) []NodeState {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append(dst, l.states...)
}

// Links returns snapshots of all links sorted by key.
func (l *Ledger) Links() []LinkState {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]LinkState, len(l.reserved))
	for id, lk := range l.topo.links {
		out[id] = LinkState{Link: lk, ReservedMbps: l.reserved[id]}
	}
	// Link ids follow registration, not the key order callers are promised.
	sort.Slice(out, func(i, j int) bool { return out[i].Link.Key() < out[j].Link.Key() })
	return out
}

// locate appends each claim's place in the tables to at: the node claims'
// indices in hostname order, then the link claims' ids, -1 standing for a node
// or link that is not registered.
func (t *topology) locate(at []int32, nodes []NodeClaim, links []LinkClaim) []int32 {
	for _, nc := range nodes {
		p, ok := t.node(nc.Hostname)
		if !ok {
			p = -1
		}
		at = append(at, int32(p))
	}
	for _, lc := range links {
		id, ok := t.link(lc.A, lc.B)
		if !ok {
			id = -1
		}
		at = append(at, int32(id))
	}
	return at
}

// checkClaims decides whether node and link claims, at the places locate
// reports for them, may be reserved against the free memory freeMem reports
// per node index. Every claim is judged against the state before any of them
// is applied. Ledger, Snapshot and Columns all reserve through it, so they
// accept and refuse the same claims with the same words.
func checkClaims(at []int32, nodes []NodeClaim, links []LinkClaim, freeMem func(pos int) float64) error {
	for i, nc := range nodes {
		if at[i] < 0 {
			return fmt.Errorf("%w: %s", ErrUnknownNode, nc.Hostname)
		}
		if nc.MemoryMB < 0 || nc.CPULoad < 0 {
			return fmt.Errorf("resource: negative claim on %s", nc.Hostname)
		}
		if free := freeMem(int(at[i])); nc.MemoryMB > free {
			return fmt.Errorf("%w: %s memory (need %g MB, free %g MB)",
				ErrInsufficient, nc.Hostname, nc.MemoryMB, free)
		}
	}
	for i, lc := range links {
		if at[len(nodes)+i] < 0 {
			return fmt.Errorf("%w: %s-%s", ErrUnknownLink, lc.A, lc.B)
		}
		if lc.BandwidthMbps < 0 {
			return fmt.Errorf("resource: negative bandwidth claim on %s-%s", lc.A, lc.B)
		}
	}
	return nil
}

// charge validates the claims and, if every one is acceptable, applies them
// all; Reserve and RestoreClaim differ only in the claim they then record.
func (l *Ledger) charge(nodes []NodeClaim, links []LinkClaim) error {
	var buf [32]int32
	at := l.topo.locate(buf[:0], nodes, links)
	if err := checkClaims(at, nodes, links, func(p int) float64 { return l.states[p].FreeMemoryMB }); err != nil {
		return err
	}
	l.snapCache = nil
	for i, nc := range nodes {
		l.states[at[i]].FreeMemoryMB -= nc.MemoryMB
		l.states[at[i]].CPULoad += nc.CPULoad
	}
	for i, lc := range links {
		l.ownReserved()[at[len(nodes)+i]] += lc.BandwidthMbps
	}
	return nil
}

// Reserve atomically applies every node and link claim, or none on failure.
// Memory claims are hard (fail when free memory is insufficient); CPU load
// and link bandwidth are best-effort (they accumulate and degrade predicted
// performance via contention, matching the paper's model where extra work
// slows everyone rather than being rejected).
func (l *Ledger) Reserve(owner string, nodes []NodeClaim, links []LinkClaim) (*Claim, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.charge(nodes, links); err != nil {
		return nil, err
	}
	l.nextID++
	c := &Claim{ID: l.nextID, Owner: owner}
	c.Nodes = append(c.Nodes, nodes...)
	c.Links = append(c.Links, links...)
	l.claims = append(l.claims, c)
	return c, nil
}

// findClaim locates id in a slice of claims held in id order.
func findClaim(claims []*Claim, id uint64) (int, bool) {
	i := sort.Search(len(claims), func(i int) bool { return claims[i].ID >= id })
	return i, i < len(claims) && claims[i].ID == id
}

// releaseNode returns a node claim's memory and load, clamped at the node's
// installed memory and at an idle CPU.
func releaseNode(freeMem, cpuLoad, installedMB float64, nc NodeClaim) (float64, float64) {
	freeMem += nc.MemoryMB
	cpuLoad -= nc.CPULoad
	if cpuLoad < 1e-12 {
		cpuLoad = 0
	}
	if freeMem > installedMB {
		freeMem = installedMB
	}
	return freeMem, cpuLoad
}

// releaseBandwidth returns a link claim's bandwidth, clamped at zero.
func releaseBandwidth(reserved float64, lc LinkClaim) float64 {
	reserved -= lc.BandwidthMbps
	if reserved < 1e-12 {
		reserved = 0
	}
	return reserved
}

// Release returns a claim's resources to the pool.
func (l *Ledger) Release(id uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	i, ok := findClaim(l.claims, id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownClaim, id)
	}
	c := l.claims[i]
	l.snapCache = nil
	for _, nc := range c.Nodes {
		if p, ok := l.topo.node(nc.Hostname); ok {
			st := &l.states[p]
			st.FreeMemoryMB, st.CPULoad = releaseNode(st.FreeMemoryMB, st.CPULoad, st.Node.MemoryMB, nc)
		}
	}
	for _, lc := range c.Links {
		if lid, ok := l.topo.link(lc.A, lc.B); ok {
			l.ownReserved()[lid] = releaseBandwidth(l.reserved[lid], lc)
		}
	}
	l.claims = slices.Delete(l.claims, i, i+1)
	return nil
}

// Claims returns outstanding claims sorted by id.
func (l *Ledger) Claims() []*Claim {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*Claim, len(l.claims))
	for i, c := range l.claims {
		cp := *c
		out[i] = &cp
	}
	return out
}

// OutstandingFor reports the claims whose Owner equals owner.
func (l *Ledger) OutstandingFor(owner string) []*Claim {
	var out []*Claim
	for _, c := range l.Claims() {
		if c.Owner == owner {
			out = append(out, c)
		}
	}
	return out
}

// TotalMemory reports installed and free memory across all nodes.
func (l *Ledger) TotalMemory() (installed, free float64) {
	for _, ns := range l.Nodes() {
		installed += ns.Node.MemoryMB
		free += ns.FreeMemoryMB
	}
	return installed, free
}

// conservationEpsilon absorbs floating-point drift from repeated
// reserve/release cycles when checking conservation.
const conservationEpsilon = 1e-6

// CheckConservation verifies that the outstanding claims exactly account
// for the capacity missing from every node and link: no resources leaked
// (missing capacity with no claim to show for it) and none double-freed
// (claims exceeding the missing capacity). The chaos soak calls this after
// every churn round to catch eviction/adoption bugs.
func (l *Ledger) CheckConservation() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	wantMem := make([]float64, len(l.states))
	wantLoad := make([]float64, len(l.states))
	wantBw := make([]float64, len(l.reserved))
	for _, c := range l.claims {
		for _, nc := range c.Nodes {
			if p, ok := l.topo.node(nc.Hostname); ok {
				wantMem[p] += nc.MemoryMB
				wantLoad[p] += nc.CPULoad
			}
		}
		for _, lc := range c.Links {
			if id, ok := l.topo.link(lc.A, lc.B); ok {
				wantBw[id] += lc.BandwidthMbps
			}
		}
	}
	for p, st := range l.states {
		h := st.Node.Hostname
		if used := st.Node.MemoryMB - st.FreeMemoryMB; math.Abs(used-wantMem[p]) > conservationEpsilon {
			return fmt.Errorf("resource: node %s memory not conserved: %g MB in use, claims total %g MB", h, used, wantMem[p])
		}
		if math.Abs(st.CPULoad-wantLoad[p]) > conservationEpsilon {
			return fmt.Errorf("resource: node %s load not conserved: %g charged, claims total %g", h, st.CPULoad, wantLoad[p])
		}
	}
	for id, reserved := range l.reserved {
		if math.Abs(reserved-wantBw[id]) > conservationEpsilon {
			return fmt.Errorf("resource: link %s bandwidth not conserved: %g Mbps reserved, claims total %g Mbps",
				l.topo.links[id].Key(), reserved, wantBw[id])
		}
	}
	return nil
}
