package vet

import (
	"sync"

	"harmony/internal/rsl"
)

// Controller is what admission reads of a running controller: the analyses
// of the bundles it has admitted, in registration order, its cluster as node
// declarations, and a generation that changes whenever a node is declared,
// so a copy of the declarations can tell when it is stale.
// *core.Controller implements it.
type Controller interface {
	Analyses() []*Bundle
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
// admitted bundle's least demand is read from the analysis the controller
// keeps for it (for a bundle a server admitted, the analysis its door made),
// the cluster's capacity is summed once per node generation and read by
// both the script's unreachable-option check and the joint check, and the
// script is parsed once. The joint sums still add the demands in
// registration order and then the incoming one, as Workload does, so every
// float, and with it every message, is the one Workload prints. It is safe
// for concurrent use.
type Admission struct {
	ctrl Controller

	mu      sync.Mutex
	cluster *clusterCapacity
}

// clusterCapacity is the controller's cluster at one node generation.
type clusterCapacity struct {
	gen   uint64
	nodes []*rsl.NodeDecl
	capa  Capacity
}

// NewAdmission returns an admission for ctrl.
func NewAdmission(ctrl Controller) *Admission {
	return &Admission{ctrl: ctrl}
}

// Arrival is a script as Script decoded it, ready for Decode and
// Admission.Workload without being parsed again.
type Arrival struct {
	// bundles and decls are every command that decoded, and err
	// rsl.DecodeScript's error for the script.
	bundles []*rsl.BundleSpec
	decls   []*rsl.NodeDecl
	err     error
	// analyses holds each bundle's analysis, as the vetting made it.
	analyses []*Bundle
	// cluster is what Admission.Script vetted the script against; the
	// joint check reads the same one.
	cluster *clusterCapacity
}

// Decode returns the script's bundles as rsl.DecodeScript does, error text
// included, without parsing the script again.
func (ar *Arrival) Decode() ([]*rsl.BundleSpec, error) {
	if ar.err != nil {
		return nil, ar.err
	}
	return ar.bundles, nil
}

// Analyses returns the analysis the vetting made of each bundle Decode
// returns, in order, for the controller that admits them.
func (ar *Arrival) Analyses() []*Bundle { return ar.analyses }

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
	if admitted := a.ctrl.Analyses(); len(admitted) > 0 {
		parts = append(parts, part{file: "admitted", bundles: admitted})
	}
	if len(ar.bundles) > 0 {
		parts = append(parts, part{file: "incoming", bundles: ar.analyses})
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
		a.cluster = &clusterCapacity{gen: gen, nodes: nodes, capa: CapacityOf(nodes)}
	}
	return a.cluster
}
