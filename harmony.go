// Package harmony is an implementation of Active Harmony as described in
// "Exposing Application Alternatives" (Keleher, Hollingsworth, Perkovic;
// ICDCS 1999): a centralized adaptation controller to which applications
// export tuning alternatives — bundles of mutually exclusive options with
// quantified resource requirements — written in the Harmony resource
// specification language (RSL). The controller matches requirements to
// cluster resources, predicts response times, and reconfigures running
// applications to optimize a global objective function.
//
// The package is a facade over the building blocks in internal/:
//
//   - RSL parsing and decoding (internal/rsl)
//   - the hierarchical namespace (internal/namespace)
//   - resource model, cluster and first-fit matching (internal/resource,
//     internal/cluster, internal/match)
//   - performance prediction and objectives (internal/predict,
//     internal/objective)
//   - the adaptation controller (internal/core)
//   - the TCP server and client runtime library (internal/server,
//     internal/hclient) implementing the paper's Figure 5 API
//   - simulated substrate: virtual clock, processor-sharing resources, a
//     miniature Wisconsin-benchmark database, and a bag-of-tasks
//     application (internal/simclock, internal/procsim, internal/minidb,
//     internal/bag)
//
// Quickstart (see examples/quickstart for the full program):
//
//	cluster, _ := harmony.NewSP2Cluster(4)
//	ctrl, _ := harmony.NewController(harmony.ControllerConfig{
//		Cluster: cluster,
//		Clock:   harmony.NewClock(),
//	})
//	srv, _ := harmony.ListenAndServe("127.0.0.1:0", harmony.ServerConfig{Controller: ctrl})
//	defer srv.Close()
//
//	client, _ := harmony.Dial(srv.Addr())
//	defer client.Close()
//	client.Startup("Simple", true)
//	instance, _ := client.BundleSetup(`harmonyBundle Simple:1 config {
//		{only {node worker * {seconds 300} {memory 32} {replicate 4}}}
//	}`)
package harmony

import (
	"net"
	"time"

	"harmony/internal/bounds"
	"harmony/internal/cluster"
	"harmony/internal/core"
	"harmony/internal/hclient"
	"harmony/internal/metric"
	"harmony/internal/namespace"
	"harmony/internal/objective"
	"harmony/internal/protocol"
	"harmony/internal/rsl"
	"harmony/internal/server"
	"harmony/internal/simclock"
	"harmony/internal/vet"
)

// Core controller types.
type (
	// Controller is the Harmony adaptation controller (Section 2).
	Controller = core.Controller
	// ControllerConfig parameterizes NewController.
	ControllerConfig = core.Config
	// Choice is one concrete configuration of a bundle.
	Choice = core.Choice
	// Event describes a reconfiguration decision.
	Event = core.Event
	// Snapshot describes one application's current state.
	Snapshot = core.Snapshot
)

// Cluster and clock types.
type (
	// Cluster is the set of managed machines.
	Cluster = cluster.Cluster
	// ClusterConfig parameterizes NewCluster.
	ClusterConfig = cluster.Config
	// Clock is the discrete-event virtual clock driving adaptation.
	Clock = simclock.Clock
)

// RSL types.
type (
	// BundleSpec is a decoded harmonyBundle.
	BundleSpec = rsl.BundleSpec
	// OptionSpec is one mutually exclusive alternative.
	OptionSpec = rsl.OptionSpec
	// NodeDecl is a decoded harmonyNode resource declaration.
	NodeDecl = rsl.NodeDecl
)

// Client/server types (the paper's Figure 5/6 prototype).
type (
	// Server is the Harmony server process.
	Server = server.Server
	// ServerConfig parameterizes ListenAndServe.
	ServerConfig = server.Config
	// Client is the application-side runtime library.
	Client = hclient.Client
	// DialConfig tunes client dialing, deadlines and reconnection.
	DialConfig = hclient.DialConfig
	// ClientStats counts a client's reconnects, resumes and replays.
	ClientStats = hclient.Stats
	// Variable is a Harmony variable handle.
	Variable = hclient.Variable
	// VarValue is a Harmony variable value.
	VarValue = protocol.VarValue
	// AppStatus is one application's state in a status reply.
	AppStatus = protocol.AppStatus
)

// Replication types (the replicated controller state machine).
type (
	// Replica is one member of a replicated controller cluster.
	Replica = server.Replica
	// ReplicaConfig parameterizes NewReplica.
	ReplicaConfig = server.ReplicaConfig
	// ReplicaStatus is one replica's replication state.
	ReplicaStatus = protocol.ReplicaStatus
)

// NewReplica starts a replica listening for peer traffic on peerAddr.
// Attach it to a client-facing server via ServerConfig.Replica.
func NewReplica(peerAddr string, cfg ReplicaConfig) (*Replica, error) {
	return server.NewReplica(peerAddr, cfg)
}

// Supporting types.
type (
	// Namespace is the hierarchical controller/application namespace.
	Namespace = namespace.Tree
	// MetricBus is the metric interface's sample bus.
	MetricBus = metric.Bus
	// ObjectiveFunc reduces per-job predictions to one value to minimize.
	ObjectiveFunc = objective.Func
)

// Static-analysis types (package vet): validating RSL specs before they
// reach the controller.
type (
	// VetReport is the result of analyzing one RSL script.
	VetReport = vet.Report
	// VetDiagnostic is one finding with check ID, severity and position.
	VetDiagnostic = vet.Diagnostic
	// VetOptions parameterizes an analysis run.
	VetOptions = vet.Options
	// VetCheckInfo documents one registered check.
	VetCheckInfo = vet.CheckInfo
	// VetSeverity classifies a diagnostic.
	VetSeverity = vet.Severity
	// VetWorkloadSpec is one spec in a joint workload analysis.
	VetWorkloadSpec = vet.WorkloadSpec
	// VetMode selects how the server treats vet findings on registration.
	VetMode = server.VetMode
)

// Vet severities and server vet modes.
const (
	// VetInfo is advisory.
	VetInfo = vet.SevInfo
	// VetWarning marks legal but suspicious constructs.
	VetWarning = vet.SevWarn
	// VetError marks specs that can never work as written.
	VetError = vet.SevError

	// VetModeWarn logs findings but accepts every bundle (the default).
	VetModeWarn = server.VetWarn
	// VetModeOff skips analysis.
	VetModeOff = server.VetOff
	// VetModeReject refuses bundles with error-severity findings.
	VetModeReject = server.VetReject
)

// Bound-vector analysis types (package bounds): interval facts about
// options that hold for every variable binding and grant.
type (
	// AnalyzeBundleReport is one bundle's bound vectors, dominance partial
	// order and unreachability verdicts.
	AnalyzeBundleReport = bounds.BundleReport
	// AnalyzeOptionReport is one option's entry in an AnalyzeBundleReport.
	AnalyzeOptionReport = bounds.OptionReport
)

// AnalyzeBundle computes a bundle's per-option bound vectors and dominance
// partial order; with cluster declarations it additionally proves options
// unreachable against declared capacity (harmonyctl analyze).
func AnalyzeBundle(b *BundleSpec, decls []*NodeDecl) *AnalyzeBundleReport {
	return bounds.Analyze(b, decls)
}

// VetScript statically analyzes an RSL script.
func VetScript(src string, opts VetOptions) *VetReport { return vet.Script(src, opts) }

// VetWorkload jointly analyzes a set of specs against one cluster,
// reporting workloads that provably cannot fit even in their best case.
func VetWorkload(specs []VetWorkloadSpec, opts VetOptions) *VetReport {
	return vet.Workload(specs, opts)
}

// VetSARIF renders reports as a SARIF 2.1.0 log for code-review tooling.
func VetSARIF(reports []*VetReport) ([]byte, error) { return vet.SARIF(reports) }

// VetChecks enumerates the registered static checks.
func VetChecks() []VetCheckInfo { return vet.Checks() }

// ParseVetMode parses a server vet mode name ("warn", "reject", "off").
func ParseVetMode(s string) (VetMode, error) { return server.ParseVetMode(s) }

// DefaultPort is the Harmony server's well-known TCP port.
const DefaultPort = protocol.DefaultPort

// NewClock returns a virtual clock starting at zero.
func NewClock() *Clock { return simclock.New() }

// NewController builds an adaptation controller.
func NewController(cfg ControllerConfig) (*Controller, error) { return core.New(cfg) }

// NewCluster builds a cluster from harmonyNode declarations.
func NewCluster(cfg ClusterConfig, decls []*NodeDecl) (*Cluster, error) {
	return cluster.New(cfg, decls)
}

// NewSP2Cluster builds an n-node simulated IBM SP-2, the paper's testbed.
func NewSP2Cluster(n int) (*Cluster, error) { return cluster.NewSP2(n) }

// NewMetricBus builds a metric bus retaining up to limit samples per metric
// (a default limit when limit <= 0).
func NewMetricBus(limit int) *MetricBus { return metric.NewBus(limit) }

// MetricSensor samples one quantity into the bus when polled.
type MetricSensor = metric.Sensor

// ClusterSensors builds the standard node/link/switch sensor set for a
// cluster (the paper's Figure 1 metric interface inputs).
func ClusterSensors(cl *Cluster) ([]MetricSensor, error) { return metric.ClusterSensors(cl) }

// PollSensors records one observation from each sensor at virtual time now.
func PollSensors(bus *MetricBus, now time.Duration, sensors []MetricSensor) error {
	return metric.Poll(bus, now, sensors)
}

// ListenAndServe starts a Harmony server on addr.
func ListenAndServe(addr string, cfg ServerConfig) (*Server, error) {
	return server.Listen(addr, cfg)
}

// Serve runs a Harmony server on an existing listener (for tests and
// fault-injection wrappers).
func Serve(ln net.Listener, cfg ServerConfig) (*Server, error) {
	return server.Serve(ln, cfg)
}

// Dial connects an application to a Harmony server (harmony_startup and
// friends live on the returned Client).
func Dial(addr string) (*Client, error) { return hclient.Dial(addr) }

// DialWith connects like Dial with explicit dial timeouts, write deadlines,
// heartbeats and automatic reconnection (see DialConfig).
func DialWith(addr string, cfg DialConfig) (*Client, error) {
	return hclient.DialWith(addr, cfg)
}

// DecodeScript parses an RSL script into bundles and node declarations.
func DecodeScript(src string) ([]*BundleSpec, []*NodeDecl, error) {
	return rsl.DecodeScript(src)
}

// ObjectiveByName resolves a built-in objective function ("mean", "total",
// "throughput", "max", "weighted").
func ObjectiveByName(name string) (ObjectiveFunc, error) { return objective.ByName(name) }

// NumVar builds a numeric Harmony variable value.
func NumVar(v float64) VarValue { return protocol.NumVar(v) }

// StrVar builds a string Harmony variable value.
func StrVar(s string) VarValue { return protocol.StrVar(s) }
