package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"harmony/internal/cluster"
	"harmony/internal/match"
	"harmony/internal/replog"
	"harmony/internal/resource"
	"harmony/internal/simclock"
)

// The hashes below were recorded on the commit before internal/resource
// moved from hostname-keyed maps to dense indices (PR 14's parent), by
// running this very test there; the crowd hashes on the commit before
// candidate evaluation stopped reading the ledger by hostname (PR 19's
// parent), the widecomm hashes on the commit before a greedy candidate's
// trial reservation moved from a snapshot fork to index-addressed columns
// (PR 20's parent), the squeeze hashes on the commit before the joint search
// stopped forking a snapshot per trial, and the sharedlink hashes on the
// commit before greedy evaluation moved onto one trial state with lazily
// computed, footprint-shared resident predictions, the same way.
// TestPruningBitIdentical compares the current code with itself; this test
// compares it with what the map-based ledger decided. A hash changes only when a decision, placement, claim or prediction
// changes, so a mismatch after a representation change is a behaviour change.

// goldenDBRSL is the Figure 3 client with a wildcard client host and a
// memory grant ladder, so free memory differs between nodes and the
// best-fit and worst-fit orders part from first-fit.
func goldenDBRSL(i int) string {
	return fmt.Sprintf(`
harmonyBundle DBclient%d:%d where {
	{QS
		{node server sp2-01 {seconds 5} {memory 20}}
		{node client * {os linux} {seconds 1} {memory 2}}
		{link client server 2}
	}
	{DS
		{node server sp2-01 {seconds 1} {memory 20}}
		{node client * {os linux} {memory >=17} {seconds 10}}
		{link client server {44 + (client.memory > 24 ? 24 : client.memory) - 17}}
	}
}`, i, i)
}

// goldenCacheRSL places a memory-only node: it charges no CPU load, so idle
// nodes end up with different free memory, the case where the three
// strategies scan in different orders.
func goldenCacheRSL(i int) string {
	return fmt.Sprintf(`
harmonyBundle Cache%d:%d tier {
	{small
		{node store * {memory 40}}
		{node front * {seconds 4} {memory 8}}
	}
	{large
		{node store * {memory >=64}}
		{node front * {seconds 3} {memory 8}}
	}
}`, i, i)
}

// goldenCommRSL is a bag whose workers talk all to all: a wildcard spec under
// a communication tag, so a candidate's trial reservation charges every link
// between its hosts and the prediction reads reserved bandwidth as well as
// load. Two bags sharing a host pair over-subscribe the link.
func goldenCommRSL(i int, work float64) string {
	return fmt.Sprintf(`
harmonyBundle Comm%d:%d parallelism {
	{workers
		{variable workerNodes {1 2 3 4 5 6 7 8}}
		{node worker * {os linux} {seconds {%g / workerNodes}} {memory 24} {replicate workerNodes}}
		{communication {90 * workerNodes ^ 2}}
	}
}`, i, i, work)
}

// goldenShareRSL is a Figure-3 client on one of a few common hosts whose
// traffic to the server is a communication tag, so clients on the same host
// load the same link. On the memory-grant ladder the link's load either
// follows the grant (every rung charges the shared link differently) or not
// (the rungs charge the server and the link alike and differ only in the
// client's own memory).
func goldenShareRSL(i int, host string, perGrant bool) string {
	comm := "150"
	if perGrant {
		comm = "{60 + client.memory * 4}"
	}
	return fmt.Sprintf(`
harmonyBundle Share%d:%d where {
	{QS
		{node server sp2-01 {seconds 5} {memory 20}}
		{node client %s {os linux} {seconds 1} {memory 2}}
		{communication 120}
	}
	{DS
		{node server sp2-01 {seconds 1} {memory 20}}
		{node client %s {os linux} {memory >=17} {seconds 10}}
		{communication %s}
	}
}`, i, i, host, host, comm)
}

// goldenModelRSL is an application under an explicit performance model beside
// the shared clients: one option on its host and the server, over a link.
func goldenModelRSL(i int, host string) string {
	return fmt.Sprintf(`
harmonyBundle Model%d:%d fit {
	{pair
		{node a %s {seconds 4} {memory 8}}
		{node b sp2-01 {seconds 2} {memory 4}}
		{link a b 90}
		{performance {{1 20} {2 14}}}
	}
	{solo
		{node a %s {seconds 12} {memory 8}}
		{performance {{1 15}}}
	}
}`, i, i, host, host)
}

// goldenScript is one seeded churn log over a cluster of the given size.
type goldenScript struct {
	name    string
	nodes   int
	entries int
	maxLive int
	// rsl renders the i-th registration.
	rsl func(rng *rand.Rand, i int, hosts []string) string
	// workers bounds the forced workerNodes value.
	workers int
	// serverMB, when set, is sp2-01's installed memory in place of the
	// SP-2's 128 MB, so the shared server admits maxLive clients.
	serverMB float64
	// pinUp offers rsl only the hosts that are up. An arrival pinned to a
	// down host fits nowhere, which sends Register into the joint search
	// over every resident's choices: exponential, fine at maxLive 4 only.
	pinUp bool
}

var goldenScripts = []goldenScript{
	{
		name: "fig4", nodes: 6, entries: 60, maxLive: 4, workers: 3,
		rsl: func(rng *rand.Rand, i int, _ []string) string {
			if rng.Intn(3) == 0 {
				return goldenCacheRSL(i)
			}
			return replayBagRSL(i)
		},
	},
	{
		name: "fig7", nodes: 6, entries: 60, maxLive: 4, workers: 3,
		rsl: func(rng *rand.Rand, i int, hosts []string) string {
			switch rng.Intn(4) {
			case 0:
				return goldenDBRSL(i)
			case 1:
				return goldenCacheRSL(i)
			}
			return replayDBRSL(i, hosts[rng.Intn(len(hosts))])
		},
	},
	{
		name: "wide", nodes: 256, entries: 40, maxLive: 8, workers: 32,
		rsl: func(rng *rand.Rand, i int, _ []string) string {
			if rng.Intn(4) == 0 {
				return goldenCacheRSL(i)
			}
			return wideBagRSL(fmt.Sprintf("Bag%d", i), i, 270+float64(rng.Intn(601))/10)
		},
	},
	{
		// The db-crowd shape: every resident names its two hosts outright
		// and all of them read sp2-01's load.
		name: "crowd", nodes: 48, entries: 120, maxLive: 32, workers: 3, serverMB: 1024, pinUp: true,
		rsl: func(rng *rand.Rand, i int, hosts []string) string {
			return replayDBRSL(i, hosts[rng.Intn(len(hosts))])
		},
	},
	{
		// Wildcard specs whose placement also loads links: communicating
		// bags beside Figure-3 clients with a wildcard client host.
		name: "widecomm", nodes: 48, entries: 100, maxLive: 16, workers: 8,
		rsl: func(rng *rand.Rand, i int, _ []string) string {
			if rng.Intn(4) == 0 {
				return goldenDBRSL(i)
			}
			return goldenCommRSL(i, 40+float64(rng.Intn(401))/10)
		},
	},
	{
		// The squeeze shape: Figure-4 bags on exclusive nodes fill the
		// machine, so most arrivals fit nowhere and Register's joint search
		// shrinks the residents to accommodate them, or finds that it cannot.
		// The memory-only caches leave idle nodes with different free memory,
		// which is what parts the three strategies.
		name: "squeeze", nodes: 10, entries: 120, maxLive: 8, workers: 8,
		rsl: func(rng *rand.Rand, i int, _ []string) string {
			if rng.Intn(5) == 0 {
				return goldenCacheRSL(i)
			}
			return bagRSL(fmt.Sprintf("Bag%d", i), i, 8, 270+float64(rng.Intn(601))/10)
		},
	},
	{
		// Clients that share their hosts and the links from them to the
		// server, so a candidate's trial load reaches another resident through
		// a link as well as through a node, beside an explicitly modelled app.
		name: "sharedlink", nodes: 6, entries: 100, maxLive: 6, workers: 3, serverMB: 512, pinUp: true,
		rsl: func(rng *rand.Rand, i int, hosts []string) string {
			host := hosts[rng.Intn(min(2, len(hosts)))]
			if rng.Intn(4) == 0 {
				return goldenModelRSL(i, host)
			}
			return goldenShareRSL(i, host, rng.Intn(2) == 0)
		},
	},
}

// log generates the script's entries: the genReplayLog mix of registrations,
// departures, node lifecycle changes, forced choices and re-evaluations.
func (s goldenScript) log(hosts []string) []replog.Entry {
	rng := rand.New(rand.NewSource(int64(len(s.name)*1000 + s.nodes)))
	var entries []replog.Entry
	now := time.Duration(0)
	nextReg := 0
	var live []int
	down := map[string]bool{}
	for i := 0; i < s.entries; i++ {
		now += time.Duration(rng.Intn(5000)) * time.Millisecond
		e := replog.Entry{Index: uint64(i + 1), Term: 1, Time: now}
		k := rng.Intn(10)
		if len(live) < s.maxLive/2 {
			k = 0 // fill the machine first so the later churn has residents
		} else if k < 4 && len(live) >= s.maxLive {
			k = 4
		}
		switch {
		case k < 4:
			nextReg++
			offered := hosts
			if s.pinUp {
				offered = nil
				for _, h := range hosts {
					if !down[h] {
						offered = append(offered, h)
					}
				}
			}
			e.Op, e.RSL = replog.OpRegister, s.rsl(rng, nextReg, offered)
			live = append(live, nextReg)
		case k < 6:
			e.Op = replog.OpUnregister
			j := rng.Intn(len(live))
			e.Instance = live[j]
			live = append(live[:j], live[j+1:]...)
		case k < 7:
			h := hosts[rng.Intn(len(hosts))]
			e.Op, e.Hostname = replog.OpNodeState, h
			if down[h] {
				e.State = "up"
				delete(down, h)
			} else {
				e.State = []string{"down", "drain"}[rng.Intn(2)]
				down[h] = true
			}
		case k < 8:
			e.Op = replog.OpForceChoice
			e.Instance = live[rng.Intn(len(live))]
			e.Choice = &replog.Choice{
				Option: "workers",
				Vars:   map[string]float64{"workerNodes": float64(1 + rng.Intn(s.workers))},
			}
		default:
			e.Op = replog.OpReevaluate
		}
		entries = append(entries, e)
	}
	return entries
}

// run applies the script on a fresh controller and returns the SHA-256 over
// EncodeState after every entry, so a transient divergence that a later
// entry happens to heal still changes the hash.
func (s goldenScript) run(t *testing.T, strategy match.Strategy) string {
	t.Helper()
	cl, err := cluster.NewSP2(s.nodes)
	if err != nil {
		t.Fatal(err)
	}
	if s.serverMB > 0 {
		server := resource.Node{Hostname: "sp2-01", Speed: 1, MemoryMB: s.serverMB, OS: "linux", CPUs: 1}
		if err := cl.Ledger().AddNode(server); err != nil {
			t.Fatal(err)
		}
	}
	clock := simclock.New()
	defer clock.Stop()
	ctrl, err := New(Config{Cluster: cl, Clock: clock, Strategy: strategy})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Stop()
	hosts := cl.Hosts()[1:] // sp2-01 is the shared database server
	h := sha256.New()
	for _, e := range s.log(hosts) {
		e := e
		_, _ = ctrl.Apply(&e) // failures are part of the script; state shows them
		data, err := ctrl.EncodeState()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
	}
	if err := ctrl.Ledger().CheckConservation(); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenStateHashes(t *testing.T) {
	golden := map[string]string{
		"fig4/first-fit": "2f2b5d19da00658c46e5002721950942f991112cb31ad219a6e8918980148dc1",
		"fig4/best-fit":  "3eda62ded47db3b0986d9179b924a4b89a0a58a8538d7a70fdcb1eb130b3ab1f",
		"fig4/worst-fit": "8b5295da2eaf5d6c2d38e9e0ff0909979b1f2734460971a86bb71b2de0ea6584",
		"fig7/first-fit": "aa7845dbb913d6028d60eba7ee04b9a01237e165b2304db7ab972d3b86dd05b8",
		"fig7/best-fit":  "aa7845dbb913d6028d60eba7ee04b9a01237e165b2304db7ab972d3b86dd05b8",
		"fig7/worst-fit": "26c48ec1d6fe0268fcaed8df950e9f6a9d2d82c668f432d46634632d62e3d1af",
		"wide/first-fit": "4b2eaf701afe4be2658a137ae77aa744e9530eb1f4e3bdfba651003dc920ef6c",
		"wide/best-fit":  "487e347df7c2c56db4c6686600ad4cb6fa867d2e8b454699ba6aa86c559a602e",
		"wide/worst-fit": "12b3942dd5d9811c4ebea6868ea43cbf94d5cf0db3448d1f05160237b903708a",
		// Every crowd host is named, so the strategy has nothing to order.
		"crowd/first-fit":    "2c6789f4bed6c659752a73b49a11ce20f7305ed4fa47ea49a4fd1dacbf5aafd2",
		"crowd/best-fit":     "2c6789f4bed6c659752a73b49a11ce20f7305ed4fa47ea49a4fd1dacbf5aafd2",
		"crowd/worst-fit":    "2c6789f4bed6c659752a73b49a11ce20f7305ed4fa47ea49a4fd1dacbf5aafd2",
		"widecomm/first-fit": "27266c93b3e700ea59626b7ecd3c429e5b1a8a6802248c3b781628c1e4c5bc60",
		"widecomm/best-fit":  "50463f666b32287126cec23c15b4f214ab8ca14b5dee16fdb0438c5ca8326caa",
		"widecomm/worst-fit": "bb48a12d7d668ff749f0b6fba04a72ef15b4273815d843ca2eb312935ea040aa",
		"squeeze/first-fit":  "ec444a96d4f09ed4ccdf420a0da976a3deb1a6f316746fa3910a052002872f1e",
		"squeeze/best-fit":   "7566bb797191f0596ceb1a2e5289c76abd2a70cd139f835ad4d24f8c49b6a5ff",
		"squeeze/worst-fit":  "19551d91addca36b29321d51eb2fbfadd897269b99e1524bd6851539535540ec",
		// Every sharedlink host is named too.
		"sharedlink/first-fit": "83bf3148e75ee0418b9702c30ad873a8b153031a3c7f0dacec11ffaa823491bd",
		"sharedlink/best-fit":  "83bf3148e75ee0418b9702c30ad873a8b153031a3c7f0dacec11ffaa823491bd",
		"sharedlink/worst-fit": "83bf3148e75ee0418b9702c30ad873a8b153031a3c7f0dacec11ffaa823491bd",
	}
	for _, s := range goldenScripts {
		for _, strategy := range []match.Strategy{match.FirstFit, match.BestFit, match.WorstFit} {
			s, strategy := s, strategy
			name := s.name + "/" + strategy.String()
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				if got := s.run(t, strategy); got != golden[name] {
					t.Errorf("EncodeState hash = %s, want %s (recorded on the parent commit)", got, golden[name])
				}
			})
		}
	}
}
