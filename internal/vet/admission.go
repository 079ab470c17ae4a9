package vet

import (
	"sync"

	"harmony/internal/bounds"
	"harmony/internal/rsl"
)

// Controller is what admission reads of a running controller: the bundles
// it has admitted, in registration order, its cluster as node declarations,
// and a generation that changes whenever a node is declared, so a copy of
// the declarations can tell when it is stale. *core.Controller implements it.
type Controller interface {
	Bundles() []*rsl.BundleSpec
	ClusterNodes() []*rsl.NodeDecl
	NodeGeneration() uint64
}

// Admission vets the scripts arriving at a running controller, as a
// server's bundle_setup does: first the script on its own (Script), then
// the incoming bundle jointly with every admitted one (Workload), both
// against the controller's cluster. Its reports are byte for byte those of
// Script with the cluster as ExtraNodes and of Workload over the specs
// "admitted" (the controller's bundles) and "incoming" (the script's), with
// the cluster and then the script's own harmonyNode lines as ExtraNodes.
//
// What it costs is the arrival's, not the admitted workload's: each
// admitted bundle's demand is computed once and kept beside the bundle, the
// cluster's capacity is summed once per node generation and read by both
// the script's unreachable-option check and the joint check, and the script
// is parsed once. The joint sums still add the demands in registration order
// and then the incoming one, as Workload does, so every float, and with it
// every message, is the one Workload prints. It is safe for concurrent use.
type Admission struct {
	ctrl Controller

	mu      sync.Mutex
	cluster *clusterCapacity
	// demands holds the demand of each bundle the controller had admitted
	// at the last Workload call; round marks the entries that call saw, and
	// the rest are dropped, so a restored controller's fresh bundles replace
	// the old ones instead of piling up beside them.
	demands map[*rsl.BundleSpec]*keptDemand
	round   uint64
}

// clusterCapacity is the controller's cluster at one node generation.
type clusterCapacity struct {
	gen   uint64
	nodes []*rsl.NodeDecl
	capa  bounds.Capacity
}

type keptDemand struct {
	d     demand
	round uint64
}

// NewAdmission returns an admission for ctrl.
func NewAdmission(ctrl Controller) *Admission {
	return &Admission{ctrl: ctrl, demands: make(map[*rsl.BundleSpec]*keptDemand)}
}

// Arrival is a script as Script decoded it, ready for Decode and
// Admission.Workload without being parsed again.
type Arrival struct {
	src     string
	bundles []*rsl.BundleSpec
	decls   []*rsl.NodeDecl
	// strict is set when every command decoded, so bundles and decls are
	// what rsl.DecodeScript returns for src.
	strict bool
	// demands holds each bundle's demand as the vetting computed it, from
	// the one enumeration of the bundle; nil means compute them.
	demands []demand
	// cluster is what Admission.Script vetted the script against; the
	// joint check reads the same one.
	cluster *clusterCapacity
}

// Decode returns the script's bundles as rsl.DecodeScript does, error text
// included. A script that decoded cleanly is not parsed again; for any
// other, the strict decode's verdict is the one returned.
func (ar *Arrival) Decode() ([]*rsl.BundleSpec, error) {
	if !ar.strict {
		bundles, decls, err := rsl.DecodeScript(ar.src)
		if err != nil {
			return nil, err
		}
		ar.bundles, ar.decls, ar.strict, ar.demands = bundles, decls, true, nil
	}
	return ar.bundles, nil
}

// Script vets src on its own against the controller's cluster, as Script
// does with the cluster as ExtraNodes.
func (a *Admission) Script(src string) (*Report, *Arrival) {
	cl := a.clusterNow()
	rep, ar := script(src, cl.nodes, cl.capa)
	ar.cluster = cl
	return rep, ar
}

// Workload judges the arrival's bundles jointly with every bundle the
// controller has admitted. Call it after ar.Decode succeeded.
func (a *Admission) Workload(ar *Arrival) *Report {
	var parts []part
	admitted := a.ctrl.Bundles()
	if kept := a.keep(admitted); len(admitted) > 0 {
		parts = append(parts, part{file: "admitted", bundles: admitted, demands: kept})
	}
	if len(ar.bundles) > 0 {
		parts = append(parts, part{file: "incoming", bundles: ar.bundles, demands: ar.demands})
	}
	return joint(parts, ar.cluster.capa.Add(ar.decls))
}

// clusterNow returns the controller's cluster, read again only when its
// node generation moved. The generation is read first: a node declared
// between the two reads leaves a copy newer than its generation, which the
// next call replaces.
func (a *Admission) clusterNow() *clusterCapacity {
	gen := a.ctrl.NodeGeneration()
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.cluster == nil || a.cluster.gen != gen {
		nodes := a.ctrl.ClusterNodes()
		a.cluster = &clusterCapacity{gen: gen, nodes: nodes, capa: bounds.CapacityOf(nodes)}
	}
	return a.cluster
}

// keep returns the demands of the admitted bundles, in their order,
// computing only those of bundles it has not seen, and forgets every bundle
// no longer admitted.
func (a *Admission) keep(admitted []*rsl.BundleSpec) []demand {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.round++
	out := make([]demand, len(admitted))
	for i, b := range admitted {
		k := a.demands[b]
		if k == nil {
			k = &keptDemand{d: bundleDemand(b)}
			a.demands[b] = k
		}
		k.round = a.round
		out[i] = k.d
	}
	for b, k := range a.demands {
		if k.round != a.round {
			delete(a.demands, b)
		}
	}
	return out
}
