// Command harmonyd runs the Harmony server process (Section 5 of the
// paper): it builds the managed cluster from an RSL resource file (or a
// simulated SP-2), starts the adaptation controller, and listens on the
// well-known port for Harmony-aware applications.
//
// Usage:
//
//	harmonyd [-addr :9989] [-sp2 8 | -resources cluster.rsl]
//	         [-objective mean] [-exhaustive]
//	         [-vet warn|reject|off]
//	         [-lease-ttl 30s] [-lease-grace 1m]
//	         [-data-dir /var/lib/harmony] [-snapshot-every 64]
//	         [-peer-addr :9990] [-peers host2:9990,host3:9990]
//	         [-advertise host1:9989] [-election-timeout 300ms]
//
// The resource file contains harmonyNode declarations, e.g.
//
//	harmonyNode fast.cs.umd.edu {speed 2.5} {memory 256} {os linux}
//	harmonyNode slow.cs.umd.edu {speed 0.8} {memory 64} {os linux}
//
// With -vet reject, each incoming bundle is analyzed both on its own and
// jointly with the bundles already admitted: a spec whose best-case
// demand provably cannot fit next to the running workload is refused at
// the front door instead of failing inside the controller.
//
// Every daemon is a member of a replicated controller cluster (see
// docs/REPLICATION.md) and acknowledges a ledger mutation once a majority of
// the cluster holds it in its log. Without -peer-addr the cluster is this
// daemon alone; with -data-dir it then recovers its ledger and sessions from
// that log after a crash. -peer-addr and -peers name the other members, and
// clients given every member in their address list survive this daemon's
// death. The leader drives the cluster's virtual clock through the log — one
// replicated tick per second, which is also the periodic re-evaluation — and
// polls the cluster sensors; live metrics are leader-local and never enter
// the log.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"harmony"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal("harmonyd: ", err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("harmonyd", flag.ContinueOnError)
	addr := fs.String("addr", fmt.Sprintf(":%d", harmony.DefaultPort), "listen address")
	sp2 := fs.Int("sp2", 0, "build a simulated n-node SP-2 cluster")
	resources := fs.String("resources", "", "RSL file of harmonyNode declarations")
	objectiveName := fs.String("objective", "mean", "objective function: mean|total|throughput|max|weighted")
	exhaustive := fs.Bool("exhaustive", false, "use the exhaustive optimizer instead of greedy")
	vetFlag := fs.String("vet", "warn", "static-analyze incoming bundles: warn (log findings), reject (refuse error-severity specs, judged jointly with the admitted workload), off")
	leaseTTL := fs.Duration("lease-ttl", 0, "drop connections silent for this long; clients renew with heartbeats (0 disables)")
	leaseGrace := fs.Duration("lease-grace", 0, "keep a disconnected client's registration parked this long for session resume (0 unregisters immediately)")
	peerAddr := fs.String("peer-addr", "", "replication listen address (needed to have -peers)")
	peers := fs.String("peers", "", "comma-separated -peer-addr addresses of the other cluster members")
	advertise := fs.String("advertise", "", "client address advertised for leader redirects (default: -addr)")
	dataDir := fs.String("data-dir", "", "directory for the durable log and snapshots (default: in memory only)")
	snapshotEvery := fs.Int("snapshot-every", 0, "fold the log into a snapshot every n applied entries (0: default, negative: never)")
	electionTimeout := fs.Duration("election-timeout", 0, "replication election timeout (0: default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	vetMode, err := harmony.ParseVetMode(*vetFlag)
	if err != nil {
		return err
	}
	if *peerAddr == "" {
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"-peers", *peers != ""}, {"-advertise", *advertise != ""}, {"-election-timeout", *electionTimeout != 0},
		} {
			if f.set {
				return fmt.Errorf("%s requires -peer-addr", f.name)
			}
		}
	}

	var cl *harmony.Cluster
	switch {
	case *sp2 > 0 && *resources != "":
		return fmt.Errorf("use either -sp2 or -resources, not both")
	case *sp2 > 0:
		var err error
		cl, err = harmony.NewSP2Cluster(*sp2)
		if err != nil {
			return err
		}
	case *resources != "":
		src, err := os.ReadFile(*resources)
		if err != nil {
			return err
		}
		bundles, decls, err := harmony.DecodeScript(string(src))
		if err != nil {
			return err
		}
		if len(bundles) > 0 {
			return fmt.Errorf("%s: resource files may only contain harmonyNode declarations", *resources)
		}
		if len(decls) == 0 {
			return fmt.Errorf("%s: no harmonyNode declarations", *resources)
		}
		cl, err = harmony.NewCluster(harmony.ClusterConfig{}, decls)
		if err != nil {
			return err
		}
	default:
		var err error
		cl, err = harmony.NewSP2Cluster(8)
		if err != nil {
			return err
		}
		log.Print("harmonyd: no cluster given; using a simulated 8-node SP-2")
	}

	obj, err := harmony.ObjectiveByName(*objectiveName)
	if err != nil {
		return err
	}
	clock := harmony.NewClock()
	defer clock.Stop()
	ctrl, err := harmony.NewController(harmony.ControllerConfig{
		Cluster:    cl,
		Clock:      clock,
		Objective:  obj,
		Bus:        harmony.NewMetricBus(0),
		Exhaustive: *exhaustive,
	})
	if err != nil {
		return err
	}
	defer ctrl.Stop()

	// The controller is a state machine driven by the replicated log: its own
	// periodic scheduler stays off (mutations may only enter through
	// committed entries), and the leader re-harmonizes through replicated
	// clock ticks instead.
	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	clientAddr := *advertise
	if clientAddr == "" {
		clientAddr = *addr
	}
	rep, err := harmony.NewReplica(*peerAddr, harmony.ReplicaConfig{
		Peers:           peerList,
		ClientAddr:      clientAddr,
		Controller:      ctrl,
		DataDir:         *dataDir,
		SnapshotEvery:   *snapshotEvery,
		ElectionTimeout: *electionTimeout,
		Logf:            log.Printf,
	})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := rep.Close(); cerr != nil {
			log.Printf("harmonyd: replica close: %v", cerr)
		}
	}()
	if *peerAddr != "" {
		log.Printf("harmonyd: replica on %s (%d peer(s))", *peerAddr, len(peerList))
	}
	if err := ctrl.Subscribe(func(ev harmony.Event) {
		kind := "reconfigured"
		if ev.Initial {
			kind = "admitted"
		}
		log.Printf("harmonyd: %s %s.%d -> %s (predicted %.2fs)",
			kind, ev.App, ev.Instance, ev.Choice, ev.PredictedSeconds)
	}); err != nil {
		return err
	}

	bus := harmony.NewMetricBus(0)
	sensors, err := harmony.ClusterSensors(cl)
	if err != nil {
		return err
	}
	srv, err := harmony.ListenAndServe(*addr, harmony.ServerConfig{
		Controller: ctrl,
		Replica:    rep,
		Bus:        bus,
		Vet:        vetMode,
		LeaseTTL:   *leaseTTL,
		LeaseGrace: *leaseGrace,
		Logf:       log.Printf,
	})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := srv.Close(); cerr != nil {
			log.Printf("harmonyd: close: %v", cerr)
		}
	}()
	log.Printf("harmonyd: managing %d nodes, listening on %s", cl.Size(), srv.Addr())

	// The controller runs on virtual time; in the daemon, wall time drives
	// it one-to-one, which fires periodic re-evaluation and granularity
	// windows ("updates in Harmony are on the order of seconds not
	// micro-seconds", Section 3.1). Only the leader maps wall time in, and it
	// does so through the log: Advance replicates the tick so every member's
	// clock moves in step, and a deposed leader simply stops ticking. The
	// leader also polls the cluster sensors.
	stopTicker := make(chan struct{})
	tickerDone := make(chan struct{})
	go func() {
		defer close(tickerDone)
		start := time.Now()
		ticker := time.NewTicker(time.Second)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				if !rep.IsLeader() {
					continue
				}
				now := time.Since(start)
				if err := rep.Advance(now); err != nil {
					log.Printf("harmonyd: advance: %v", err)
				}
				if err := harmony.PollSensors(bus, now, sensors); err != nil {
					log.Printf("harmonyd: sensors: %v", err)
				}
			case <-stopTicker:
				return
			}
		}
	}()
	defer func() {
		close(stopTicker)
		<-tickerDone
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("harmonyd: shutting down")
	return nil
}
