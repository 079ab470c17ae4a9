// Package cluster assembles Harmony's view of the machines it manages: a
// resource ledger populated from harmonyNode declarations plus a network
// topology. The paper's experiments ran on an IBM SP-2 whose nodes share a
// 320 Mbps high-performance switch; NewSP2 builds the equivalent simulated
// topology, and New builds arbitrary clusters from RSL declarations.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"harmony/internal/resource"
	"harmony/internal/rsl"
)

// DefaultSwitchBandwidthMbps mirrors the SP-2 high-performance switch used
// in the paper's evaluation (Section 6).
const DefaultSwitchBandwidthMbps = 320

// DefaultSwitchLatencyMs is the assumed one-way latency of the simulated
// switch.
const DefaultSwitchLatencyMs = 0.5

// Topology selects how nodes are interconnected when links are not declared
// explicitly.
type Topology int

const (
	// FullMesh links every node pair with a dedicated link.
	FullMesh Topology = iota + 1
	// SharedSwitch links every node pair through one shared capacity pool,
	// like the SP-2 switch: a claim on any pair draws from the same budget.
	SharedSwitch
)

// Config parameterizes cluster construction.
type Config struct {
	// Topology selects the interconnect; default SharedSwitch.
	Topology Topology
	// LinkBandwidthMbps is each link's (or the switch's) capacity; default
	// DefaultSwitchBandwidthMbps.
	LinkBandwidthMbps float64
	// LinkLatencyMs is each link's latency; default DefaultSwitchLatencyMs.
	LinkLatencyMs float64
}

func (c Config) withDefaults() Config {
	if c.Topology == 0 {
		c.Topology = SharedSwitch
	}
	if c.LinkBandwidthMbps == 0 {
		c.LinkBandwidthMbps = DefaultSwitchBandwidthMbps
	}
	if c.LinkLatencyMs == 0 {
		c.LinkLatencyMs = DefaultSwitchLatencyMs
	}
	return c
}

// Cluster is a set of machines with an interconnect, backed by a capacity
// ledger. It is safe for concurrent use.
type Cluster struct {
	cfg    Config
	ledger *resource.Ledger

	mu    sync.Mutex
	hosts []string
	// switchPool tracks shared-switch bandwidth reservations by claim id.
	switchReserved float64
}

// New builds a cluster from node declarations.
func New(cfg Config, decls []*rsl.NodeDecl) (*Cluster, error) {
	cfg = cfg.withDefaults()
	c := &Cluster{cfg: cfg, ledger: resource.NewLedger()}
	for _, d := range decls {
		if err := c.AddNode(d); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// NewSP2 builds an n-node simulated SP-2: uniform nodes named sp2-01..n,
// speed 1.0, 128 MB each, linux, one CPU, all behind a shared 320 Mbps
// switch.
func NewSP2(n int) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: SP-2 size %d must be >= 1", n)
	}
	decls := make([]*rsl.NodeDecl, n)
	for i := range decls {
		decls[i] = &rsl.NodeDecl{
			Hostname: "sp2-" + pad2(i+1),
			Speed:    1.0,
			MemoryMB: 128,
			OS:       "linux",
			CPUs:     1,
		}
	}
	return New(Config{Topology: SharedSwitch}, decls)
}

func pad2(i int) string {
	s := strconv.Itoa(i)
	if len(s) < 2 {
		return "0" + s
	}
	return s
}

// AddNode registers one declared machine and links it into the topology.
func (c *Cluster) AddNode(d *rsl.NodeDecl) error {
	if d == nil {
		return errors.New("cluster: nil node declaration")
	}
	n := resource.Node{
		Hostname: d.Hostname,
		Speed:    d.Speed,
		MemoryMB: d.MemoryMB,
		OS:       d.OS,
		CPUs:     d.CPUs,
	}
	if err := c.ledger.AddNode(n); err != nil {
		return fmt.Errorf("cluster: add node: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, other := range c.hosts {
		if other == d.Hostname {
			continue
		}
		lk := resource.Link{
			A:             d.Hostname,
			B:             other,
			BandwidthMbps: c.cfg.LinkBandwidthMbps,
			LatencyMs:     c.cfg.LinkLatencyMs,
		}
		if err := c.ledger.AddLink(lk); err != nil {
			return fmt.Errorf("cluster: add link: %w", err)
		}
	}
	c.hosts = append(c.hosts, d.Hostname)
	sort.Strings(c.hosts)
	return nil
}

// Ledger exposes the capacity ledger for matching and claims.
func (c *Cluster) Ledger() *resource.Ledger { return c.ledger }

// Hosts returns the sorted hostnames.
func (c *Cluster) Hosts() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.hosts))
	copy(out, c.hosts)
	return out
}

// Size reports the number of machines.
func (c *Cluster) Size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.hosts)
}

// SharedSwitchUtilization reports total reserved bandwidth across all links
// divided by the switch capacity; meaningful under the SharedSwitch
// topology where every pair draws from the same physical budget.
func (c *Cluster) SharedSwitchUtilization() float64 {
	total := 0.0
	for _, ls := range c.ledger.Links() {
		total += ls.ReservedMbps
	}
	if c.cfg.LinkBandwidthMbps <= 0 {
		return 0
	}
	return total / c.cfg.LinkBandwidthMbps
}
