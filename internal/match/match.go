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
}

// LinkAssignment binds one link requirement to a concrete host pair.
type LinkAssignment struct {
	// LocalA and LocalB are the option-local endpoint names.
	LocalA, LocalB string
	// HostA and HostB are the chosen machines.
	HostA, HostB string
	// BandwidthMbps is the requirement placed on the link.
	BandwidthMbps float64
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

// NoFitError reports why an option could not be placed.
type NoFitError struct {
	Option string
	Reason string
}

func (e *NoFitError) Error() string {
	return fmt.Sprintf("match: option %q does not fit: %s", e.Option, e.Reason)
}

func noFit(option, format string, args ...any) error {
	return &NoFitError{Option: option, Reason: fmt.Sprintf(format, args...)}
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
	ledger   resource.View
	strategy Strategy
}

// New returns a matcher over the ledger.
func New(ledger *resource.Ledger) *Matcher {
	return &Matcher{ledger: ledger}
}

// NewWithView returns a matcher over an arbitrary resource view.
func NewWithView(view resource.View) *Matcher {
	return &Matcher{ledger: view}
}

// WithView returns a copy of the matcher (same strategy) bound to another
// view, e.g. a ledger snapshot for hypothetical matching.
func (m *Matcher) WithView(view resource.View) *Matcher {
	return &Matcher{ledger: view, strategy: m.strategy}
}

// scratch is the working memory of one Match call, addressed by a node's
// index in the view's hostname-ordered table. Calls take one from the pool
// and hand it back, so a worker evaluating many candidates reuses the same
// buffers instead of building a table and three maps per candidate.
type scratch struct {
	// states is the view's node table; capacity is charged against it as
	// replicas are placed.
	states []resource.NodeState
	// order lists indices into states in the order the strategy scans them.
	order []int32
	// used marks nodes the request may not take: excluded by the caller, or
	// already given to a wildcard replica of this request.
	used []bool
	// seconds is each node spec's CPU requirement, by spec index.
	seconds []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Match computes a first-fit assignment without reserving anything. Use
// Reserve to commit the returned assignment.
func (m *Matcher) Match(req Request) (*Assignment, error) {
	if req.Option == nil {
		return nil, errors.New("match: nil option")
	}
	opt := req.Option
	asg := &Assignment{Option: opt.Name}

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	if namesEveryHost(opt) {
		m.namedTable(sc, opt)
	} else {
		sc.states = m.ledger.AppendNodes(sc.states[:0])
		// Nodes are scanned least-loaded first (so concurrent applications
		// spread onto idle machines), with the configured strategy breaking
		// ties: first-fit by hostname, best-fit by least free memory,
		// worst-fit by most free memory.
		sc.order = m.scanOrder(sc.states, sc.order[:0])
	}
	states := sc.states
	sc.used = append(sc.used[:0], make([]bool, len(states))...)
	used := sc.used
	for host, excluded := range req.ExcludeHosts {
		if i, ok := resource.FindNode(states, host); ok && excluded {
			used[i] = true
		}
	}

	// CPU demand per node spec is the node's busy fraction of the job:
	// the share of the job's critical-path seconds spent there. A database
	// server doing 1 of a job's 10 seconds is charged 0.1 CPUs, not 1.0.
	sc.seconds = sc.seconds[:0]
	maxSeconds := 0.0

	for i := range opt.Nodes {
		spec := &opt.Nodes[i]
		replicas, err := replicaCount(spec, req.Env)
		if err != nil {
			return nil, noFit(opt.Name, "node %s: %v", spec.LocalName, err)
		}
		needMem, memOp, err := memoryRequirement(spec, req.Env)
		if err != nil {
			return nil, noFit(opt.Name, "node %s: %v", spec.LocalName, err)
		}
		grant := needMem
		if g, ok := req.MemoryGrants[spec.LocalName]; ok {
			switch memOp {
			case rsl.OpMin:
				if g < needMem {
					return nil, noFit(opt.Name, "node %s: grant %g MB below minimum %g MB", spec.LocalName, g, needMem)
				}
				grant = g
			case rsl.OpMax:
				if g > needMem {
					return nil, noFit(opt.Name, "node %s: grant %g MB above maximum %g MB", spec.LocalName, g, needMem)
				}
				grant = g
			default:
				if g != needMem {
					return nil, noFit(opt.Name, "node %s: grant %g MB differs from exact requirement %g MB", spec.LocalName, g, needMem)
				}
			}
		}
		seconds, err := secondsRequirement(spec, req.Env)
		if err != nil {
			return nil, noFit(opt.Name, "node %s: %v", spec.LocalName, err)
		}
		exclusive, err := exclusiveRequirement(spec, req.Env)
		if err != nil {
			return nil, noFit(opt.Name, "node %s: %v", spec.LocalName, err)
		}

		sc.seconds = append(sc.seconds, seconds)
		if seconds > maxSeconds {
			maxSeconds = seconds
		}

		if asg.Nodes == nil {
			asg.Nodes = make([]NodeAssignment, 0, replicas)
		}
		// A node that turned one replica of this spec away turns the next
		// away too (capacity only shrinks within a call), so each replica's
		// scan resumes where the last one stopped instead of at the front.
		from := 0
		for r := 0; r < replicas; r++ {
			from, err = firstFit(states, sc.order, from, spec, grant, exclusive, used)
			if err != nil {
				return nil, noFit(opt.Name, "node %s replica %d: %v", spec.LocalName, r+1, err)
			}
			// Fixed-host specs may stack multiple local names on the same
			// machine; wildcard placements take distinct hosts.
			at := sc.order[from]
			if spec.HostPattern == "*" {
				used[at] = true
			}
			asg.Nodes = append(asg.Nodes, NodeAssignment{
				LocalName: spec.LocalName,
				Hostname:  states[at].Node.Hostname,
				Seconds:   seconds,
				MemoryMB:  grant,
			})
		}
	}

	// Assign busy-fraction CPU loads now that the critical path is known.
	for i := range asg.Nodes {
		if maxSeconds > 0 {
			asg.Nodes[i].CPULoad = secondsOf(opt, sc.seconds, asg.Nodes[i].LocalName) / maxSeconds
		} else {
			asg.Nodes[i].CPULoad = DefaultCPULoad
		}
	}
	if len(opt.Links) == 0 && opt.Communication == nil {
		return asg, nil
	}

	// Evaluate links with granted memory visible to the expressions.
	linkEnv := rsl.ChainEnv{asg.MemoryEnv(), req.Env}
	for i := range opt.Links {
		ls := &opt.Links[i]
		hostA, okA := hostFor(asg, ls.A)
		hostB, okB := hostFor(asg, ls.B)
		if !okA || !okB {
			return nil, noFit(opt.Name, "link %s-%s references unknown node name", ls.A, ls.B)
		}
		bw, err := ls.Bandwidth.Eval(linkEnv)
		if err != nil {
			return nil, noFit(opt.Name, "link %s-%s bandwidth: %v", ls.A, ls.B, err)
		}
		if bw < 0 {
			return nil, noFit(opt.Name, "link %s-%s bandwidth %g is negative", ls.A, ls.B, bw)
		}
		if hostA != hostB {
			state, err := m.ledger.Link(hostA, hostB)
			if err != nil {
				return nil, noFit(opt.Name, "no link between %s and %s", hostA, hostB)
			}
			if bw > state.Link.BandwidthMbps {
				return nil, noFit(opt.Name, "link %s-%s needs %g Mbps, capacity %g Mbps",
					hostA, hostB, bw, state.Link.BandwidthMbps)
			}
			if ls.Latency != nil {
				maxLat, err := ls.Latency.Eval(linkEnv)
				if err != nil {
					return nil, noFit(opt.Name, "link %s-%s latency: %v", ls.A, ls.B, err)
				}
				if state.Link.LatencyMs > maxLat {
					return nil, noFit(opt.Name, "link %s-%s latency %g ms exceeds %g ms",
						hostA, hostB, state.Link.LatencyMs, maxLat)
				}
			}
		}
		asg.Links = append(asg.Links, LinkAssignment{
			LocalA: ls.A, LocalB: ls.B,
			HostA: hostA, HostB: hostB,
			BandwidthMbps: bw,
		})
	}

	// Aggregate communication: all assigned hosts must be fully connected
	// (Section 3.3: "communication is general and all nodes must be fully
	// connected").
	if opt.Communication != nil {
		comm, err := opt.Communication.Eval(linkEnv)
		if err != nil {
			return nil, noFit(opt.Name, "communication: %v", err)
		}
		if comm < 0 {
			return nil, noFit(opt.Name, "communication %g is negative", comm)
		}
		hosts := asg.Hosts()
		for i := 0; i < len(hosts); i++ {
			for j := i + 1; j < len(hosts); j++ {
				if _, err := m.ledger.Link(hosts[i], hosts[j]); err != nil {
					return nil, noFit(opt.Name, "communication requires link %s-%s", hosts[i], hosts[j])
				}
			}
		}
		asg.CommunicationMbps = comm
	}

	return asg, nil
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
// runs on: just those hosts, looked up instead of scanned for. A named spec
// only ever considers the row of its own host, so the rest of the cluster and
// the order of the scan cannot change which machine it gets, what capacity a
// stacked replica finds left there, or why it is turned away. The rows stay
// in hostname order, as firstFit's callers expect of the table; a host that
// is not registered has no row, which is how firstFit learns of it.
func (m *Matcher) namedTable(sc *scratch, opt *rsl.OptionSpec) {
	sc.states, sc.order = sc.states[:0], sc.order[:0]
	for i := range opt.Nodes {
		host := opt.Nodes[i].HostPattern
		at, dup := resource.FindNode(sc.states, host)
		if dup {
			continue
		}
		if ns, err := m.ledger.Node(host); err == nil {
			sc.states = slices.Insert(sc.states, at, ns)
		}
	}
	for i := range sc.states {
		sc.order = append(sc.order, int32(i))
	}
}

// Reserve commits an assignment to the ledger, returning the claim to
// release when the option ends or is reconfigured away.
func (m *Matcher) Reserve(owner string, asg *Assignment) (*resource.Claim, error) {
	if asg == nil {
		return nil, errors.New("match: nil assignment")
	}
	nodeClaims := make([]resource.NodeClaim, 0, len(asg.Nodes))
	for _, n := range asg.Nodes {
		nodeClaims = append(nodeClaims, resource.NodeClaim{
			Hostname: n.Hostname,
			MemoryMB: n.MemoryMB,
			CPULoad:  n.CPULoad,
		})
	}
	linkClaims := make([]resource.LinkClaim, 0, len(asg.Links))
	for _, l := range asg.Links {
		if l.HostA == l.HostB {
			continue
		}
		linkClaims = append(linkClaims, resource.LinkClaim{
			A: l.HostA, B: l.HostB, BandwidthMbps: l.BandwidthMbps,
		})
	}
	// Spread aggregate communication evenly over host pairs.
	if asg.CommunicationMbps > 0 {
		hosts := asg.Hosts()
		pairs := len(hosts) * (len(hosts) - 1) / 2
		per := asg.CommunicationMbps / float64(pairs)
		for i := 0; i < len(hosts); i++ {
			for j := i + 1; j < len(hosts); j++ {
				linkClaims = append(linkClaims, resource.LinkClaim{
					A: hosts[i], B: hosts[j], BandwidthMbps: per,
				})
			}
		}
	}
	claim, err := m.ledger.Reserve(owner, nodeClaims, linkClaims)
	if err != nil {
		return nil, fmt.Errorf("match: reserve %s: %w", owner, err)
	}
	return claim, nil
}

// rejection is why firstFit passed over a node. Only the last one is ever
// reported, so the scan records the kind and the text is built once, on
// failure, instead of once per node passed over.
type rejection int

const (
	rejectNone rejection = iota
	rejectHealth
	rejectUsed
	rejectOS
	rejectMemory
	rejectBusy // the remaining case: an exclusive spec met a loaded node
)

// firstFit scans order (least-loaded first) from place from for the first
// machine satisfying the spec with the requested grant, and returns its
// place in order: where the next replica of the same spec resumes. The
// machine found is looked at again then, so a wildcard spec that runs out of
// machines still reports the last one it passed over, as a scan from the
// front would. Exclusive specs — the paper's space-shared parallel workers,
// which the SP-2 allocator dedicates whole nodes to — only accept idle
// machines.
func firstFit(states []resource.NodeState, order []int32, from int, spec *rsl.NodeSpec, grantMem float64, exclusive bool, used []bool) (int, error) {
	wildcard := spec.HostPattern == "*"
	osTag, hasOS := spec.Tags["os"]
	hasOS = hasOS && osTag.IsString
	hnTag, hasHostname := spec.Tags["hostname"]
	hasHostname = hasHostname && hnTag.IsString
	why, whyAt := rejectNone, 0
	for k := from; k < len(order); k++ {
		i := int(order[k])
		ns := &states[i]
		host := ns.Node.Hostname
		switch {
		case !wildcard && spec.HostPattern != host:
			continue
		case ns.Health != resource.HealthUp:
			// Draining and down nodes accept no new placements; existing
			// claims on a draining node survive until their owner moves.
			why, whyAt = rejectHealth, i
			continue
		case wildcard && used[i]:
			why, whyAt = rejectUsed, i
			continue
		case hasOS && osTag.Str != ns.Node.OS:
			why, whyAt = rejectOS, i
			continue
		case hasHostname && hnTag.Str != host:
			continue
		case ns.FreeMemoryMB < grantMem:
			why, whyAt = rejectMemory, i
			continue
		case exclusive && ns.CPULoad > 0:
			why, whyAt = rejectBusy, i
			continue
		}
		// Found: charge the scratch state so later replicas in this same
		// Match call see reduced capacity.
		ns.FreeMemoryMB -= grantMem
		if exclusive {
			ns.CPULoad += DefaultCPULoad
		}
		return k, nil
	}
	if why == rejectNone {
		if !wildcard {
			return 0, fmt.Errorf("host %s not registered", spec.HostPattern)
		}
		return 0, errors.New("no registered hosts")
	}
	ns := &states[whyAt]
	host := ns.Node.Hostname
	switch why {
	case rejectHealth:
		return 0, fmt.Errorf("%s is %s", host, ns.Health)
	case rejectUsed:
		return 0, errors.New("remaining hosts already used")
	case rejectOS:
		return 0, fmt.Errorf("%s runs %s, need %s", host, ns.Node.OS, osTag.Str)
	case rejectMemory:
		return 0, fmt.Errorf("%s has %g MB free, need %g MB", host, ns.FreeMemoryMB, grantMem)
	default:
		return 0, fmt.Errorf("%s is busy (load %g), spec requires an idle node", host, ns.CPULoad)
	}
}

// secondsOf is the CPU requirement of the node spec called local. Two specs
// may share a local name; the later one's requirement stands for both.
func secondsOf(opt *rsl.OptionSpec, seconds []float64, local string) float64 {
	for i := len(opt.Nodes) - 1; i >= 0; i-- {
		if opt.Nodes[i].LocalName == local {
			return seconds[i]
		}
	}
	return 0
}

func hostFor(asg *Assignment, localName string) (string, bool) {
	for _, n := range asg.Nodes {
		if n.LocalName == localName {
			return n.Hostname, true
		}
	}
	return "", false
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
