// Command harmonyctl inspects and pokes a running Harmony server, and
// statically analyzes RSL specs offline.
//
// Usage:
//
//	harmonyctl [-addr host:9989] [-timeout 10s] status      # list applications + objective
//	harmonyctl [-addr host:9989] [-timeout 10s] reevaluate  # force an optimizer pass
//	harmonyctl [-addr host:9989] node down|drain|up <host>  # node lifecycle
//	harmonyctl [-addr a,b,c] cluster status [-json]         # replication status
//	harmonyctl vet [-json|-sarif] <file.rsl>...    # static-analyze specs (offline)
//	harmonyctl lint [-json|-sarif] -cluster <cluster.rsl> <file.rsl>...
//	harmonyctl analyze [-json] [-cluster <cluster.rsl>] <file.rsl>...  # bounds over enumerated choices
//
// node marks a machine failed (down: evict and re-place its applications),
// draining (migrate applications off but accept none back) or healthy
// again (up: re-admit anything the failure degraded).
//
// cluster status dials every comma-separated -addr member individually and
// prints each replica's role, term, commit/last log index, snapshot age and
// last known leader; unreachable members are reported inline rather than
// failing the whole command.
//
// vet analyzes each spec on its own; lint additionally judges the specs
// jointly against the cluster's declared capacity (can this workload ever
// fit?). Passing "-" as a file reads RSL from standard input. Both exit
// non-zero when any error-severity diagnostic is found.
//
// analyze prints each bundle's per-option bound vectors (the least and
// greatest node count, memory, bandwidth and model time over the choices
// the controller enumerates: every variable binding times the grant ladder),
// its dominance partial order, and, when -cluster is given, options provably
// unable to ever match the declared capacity. A bundle over the 4096 choices
// the controller enumerates is reported as refused.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"harmony"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "harmonyctl:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("harmonyctl", flag.ContinueOnError)
	addr := fs.String("addr", fmt.Sprintf("127.0.0.1:%d", harmony.DefaultPort), "Harmony server address")
	timeout := fs.Duration("timeout", 10*time.Second, "dial and per-write timeout for server commands")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cmd := "status"
	if fs.NArg() > 0 {
		cmd = fs.Arg(0)
	}

	// vet, lint and analyze are fully offline; the remaining commands talk
	// to a server.
	switch cmd {
	case "vet":
		return runVet(fs.Args()[1:], stdin, stdout)
	case "lint":
		return runLint(fs.Args()[1:], stdin, stdout)
	case "analyze":
		return runAnalyze(fs.Args()[1:], stdin, stdout)
	case "cluster":
		// cluster dials each member itself, one address at a time.
		return runClusterStatus(*addr, *timeout, fs.Args()[1:], stdout)
	case "status", "reevaluate", "node":
	default:
		return fmt.Errorf("unknown command %q (want status, reevaluate, node, cluster, vet, lint or analyze)", cmd)
	}

	client, err := harmony.DialWith(*addr, harmony.DialConfig{
		Timeout:       *timeout,
		WriteDeadline: *timeout,
	})
	if err != nil {
		return err
	}
	defer client.Close()

	switch cmd {
	case "status":
		apps, objective, err := client.Status()
		if err != nil {
			return err
		}
		if len(apps) == 0 {
			fmt.Fprintln(stdout, "no applications registered")
			return nil
		}
		fmt.Fprintf(stdout, "%-10s %-12s %-10s %-8s %10s %8s  %s\n",
			"instance", "app", "bundle", "option", "predicted", "switches", "hosts")
		for _, a := range apps {
			fmt.Fprintf(stdout, "%-10d %-12s %-10s %-8s %9.2fs %8d  %v\n",
				a.Instance, a.App, a.Bundle, a.Option, a.PredictedSeconds, a.Switches, a.Hosts)
		}
		fmt.Fprintf(stdout, "objective: %.3f\n", objective)
		return nil
	case "reevaluate":
		if err := client.Reevaluate(); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "re-evaluation triggered")
		return nil
	case "node":
		if fs.NArg() != 3 {
			return errors.New("usage: harmonyctl node down|drain|up <host>")
		}
		state, host := fs.Arg(1), fs.Arg(2)
		switch state {
		case "down", "drain", "draining", "up":
		default:
			return fmt.Errorf("unknown node state %q (want down, drain or up)", state)
		}
		if err := client.NodeState(host, state); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "node %s marked %s\n", host, state)
		return nil
	}
	panic("unreachable")
}

// clusterRow is one member's answer in a cluster status report.
type clusterRow struct {
	// Addr is the client address the member was asked on.
	Addr string `json:"addr"`
	// Error reports an unreachable or non-replicated member.
	Error string `json:"error,omitempty"`
	*harmony.ReplicaStatus
}

// runClusterStatus asks every comma-separated member for its replication
// state. Unreachable members become error rows; the command only fails when
// no member answered at all.
func runClusterStatus(addrList string, timeout time.Duration, args []string, stdout io.Writer) error {
	if len(args) == 0 || args[0] != "status" {
		return errors.New("usage: harmonyctl [-addr a,b,c] cluster status [-json]")
	}
	fs := flag.NewFlagSet("harmonyctl cluster status", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit replica statuses as a JSON array")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	var rows []clusterRow
	answered := 0
	for _, a := range strings.Split(addrList, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		row := clusterRow{Addr: a}
		st, err := askReplica(a, timeout)
		if err != nil {
			row.Error = err.Error()
		} else {
			row.ReplicaStatus = st
			answered++
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return errors.New("cluster status: no addresses given")
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(stdout, "%-22s %-12s %-10s %6s %8s %6s %10s %9s  %s\n",
			"address", "id", "role", "term", "commit", "last", "snapshot", "snap-age", "leader")
		for _, row := range rows {
			if row.Error != "" {
				fmt.Fprintf(stdout, "%-22s %s\n", row.Addr, row.Error)
				continue
			}
			st := row.ReplicaStatus
			age := "-"
			if st.SnapshotAgeSeconds >= 0 {
				age = fmt.Sprintf("%.1fs", st.SnapshotAgeSeconds)
			}
			leader := st.Leader
			if leader == "" {
				leader = "-"
			}
			fmt.Fprintf(stdout, "%-22s %-12s %-10s %6d %8d %6d %10d %9s  %s\n",
				row.Addr, st.ID, st.Role, st.Term, st.CommitIndex, st.LastIndex, st.SnapshotIndex, age, leader)
		}
	}
	if answered == 0 {
		return fmt.Errorf("cluster status: no member of %q answered", addrList)
	}
	return nil
}

// askReplica asks one member for its replication status.
func askReplica(addr string, timeout time.Duration) (*harmony.ReplicaStatus, error) {
	client, err := harmony.DialWith(addr, harmony.DialConfig{Timeout: timeout, WriteDeadline: timeout})
	if err != nil {
		return nil, err
	}
	defer client.Close()
	return client.ClusterStatus()
}

// readSpec loads one spec argument; "-" reads standard input (at most
// once per invocation) and reports itself as "<stdin>".
func readSpec(file string, stdin io.Reader, stdinUsed *bool) (name, src string, err error) {
	if file == "-" {
		if *stdinUsed {
			return "", "", errors.New(`"-" (stdin) may be given only once`)
		}
		*stdinUsed = true
		b, err := io.ReadAll(stdin)
		if err != nil {
			return "", "", fmt.Errorf("stdin: %w", err)
		}
		return "<stdin>", string(b), nil
	}
	b, err := os.ReadFile(file)
	if err != nil {
		return "", "", err
	}
	return file, string(b), nil
}

// emitReports renders reports as text (file-prefixed diagnostics), JSON,
// or SARIF.
func emitReports(reports []*harmony.VetReport, jsonOut, sarifOut bool, stdout io.Writer) error {
	switch {
	case sarifOut:
		b, err := harmony.VetSARIF(reports)
		if err != nil {
			return err
		}
		_, err = stdout.Write(b)
		return err
	case jsonOut:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(reports)
	default:
		for _, rep := range reports {
			for _, d := range rep.Diags {
				if d.File != "" {
					fmt.Fprintln(stdout, d)
				} else {
					fmt.Fprintf(stdout, "%s:%s\n", rep.File, d)
				}
			}
		}
		return nil
	}
}

// runVet analyzes each file on its own and prints its diagnostics,
// prefixed by the filename (or as JSON / SARIF). It fails when any file
// carries an error-severity finding.
func runVet(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("harmonyctl vet", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array of reports")
	sarifOut := fs.Bool("sarif", false, "emit diagnostics as a SARIF 2.1.0 log")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return errors.New("vet: no files given (usage: harmonyctl vet [-json|-sarif] <file.rsl>...)")
	}
	reports := make([]*harmony.VetReport, 0, fs.NArg())
	errFiles := 0
	stdinUsed := false
	for _, file := range fs.Args() {
		name, src, err := readSpec(file, stdin, &stdinUsed)
		if err != nil {
			return fmt.Errorf("vet: %w", err)
		}
		rep := harmony.VetScript(src, harmony.VetOptions{})
		rep.File = name
		reports = append(reports, rep)
		if rep.HasErrors() {
			errFiles++
		}
	}
	if err := emitReports(reports, *jsonOut, *sarifOut, stdout); err != nil {
		return err
	}
	if errFiles > 0 {
		return fmt.Errorf("vet: errors in %d of %d file(s)", errFiles, len(reports))
	}
	return nil
}

// runAnalyze prints each bundle's bound vectors and dominance partial
// order (text or JSON); with -cluster it additionally reports options
// provably unreachable against the declared capacity.
func runAnalyze(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("harmonyctl analyze", flag.ContinueOnError)
	clusterFile := fs.String("cluster", "", "RSL file declaring harmonyNodes to prove options unreachable against")
	jsonOut := fs.Bool("json", false, "emit the analysis as a JSON array of bundle reports")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return errors.New("analyze: no files given (usage: harmonyctl analyze [-json] [-cluster <cluster.rsl>] <file.rsl>...)")
	}
	stdinUsed := false
	var decls []*harmony.NodeDecl
	if *clusterFile != "" {
		name, src, err := readSpec(*clusterFile, stdin, &stdinUsed)
		if err != nil {
			return fmt.Errorf("analyze: %w", err)
		}
		_, decls, err = harmony.DecodeScript(src)
		if err != nil {
			return fmt.Errorf("analyze: cluster %s: %w", name, err)
		}
		if len(decls) == 0 {
			return fmt.Errorf("analyze: cluster %s declares no harmonyNodes", name)
		}
	}
	var reports []*harmony.AnalyzeBundleReport
	for _, file := range fs.Args() {
		name, src, err := readSpec(file, stdin, &stdinUsed)
		if err != nil {
			return fmt.Errorf("analyze: %w", err)
		}
		bundles, extra, err := harmony.DecodeScript(src)
		if err != nil {
			return fmt.Errorf("analyze: %s: %w", name, err)
		}
		// harmonyNode declarations inside the analyzed files extend the
		// cluster, matching how the server would see them.
		decls = append(decls, extra...)
		for _, b := range bundles {
			reports = append(reports, harmony.AnalyzeBundle(b, decls))
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(reports)
	}
	for _, rep := range reports {
		rep.WriteText(stdout)
	}
	return nil
}

// runLint vets a set of specs jointly against one cluster: each spec is
// analyzed alone (with the cluster's nodes in scope), then the whole set
// is checked for aggregate feasibility — combined best-case memory,
// exclusive nodes, per-host pinned memory and bandwidth.
func runLint(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("harmonyctl lint", flag.ContinueOnError)
	clusterFile := fs.String("cluster", "", "RSL file declaring the cluster's harmonyNodes (required)")
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array of reports")
	sarifOut := fs.Bool("sarif", false, "emit diagnostics as a SARIF 2.1.0 log")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *clusterFile == "" {
		return errors.New("lint: -cluster is required (usage: harmonyctl lint -cluster <cluster.rsl> <file.rsl>...)")
	}
	if fs.NArg() == 0 {
		return errors.New("lint: no spec files given")
	}
	stdinUsed := false
	clusterName, clusterSrc, err := readSpec(*clusterFile, stdin, &stdinUsed)
	if err != nil {
		return fmt.Errorf("lint: %w", err)
	}
	_, decls, err := harmony.DecodeScript(clusterSrc)
	if err != nil {
		return fmt.Errorf("lint: cluster %s: %w", clusterName, err)
	}
	if len(decls) == 0 {
		return fmt.Errorf("lint: cluster %s declares no harmonyNodes", clusterName)
	}

	var specs []harmony.VetWorkloadSpec
	for _, file := range fs.Args() {
		name, src, err := readSpec(file, stdin, &stdinUsed)
		if err != nil {
			return fmt.Errorf("lint: %w", err)
		}
		specs = append(specs, harmony.VetWorkloadSpec{File: name, Src: src})
	}
	reports, joint := harmony.VetLint(specs, harmony.VetOptions{ExtraNodes: decls})
	reports = append(reports, joint)
	hadErrors := false
	for _, rep := range reports {
		hadErrors = hadErrors || rep.HasErrors()
	}
	if err := emitReports(reports, *jsonOut, *sarifOut, stdout); err != nil {
		return err
	}
	if hadErrors {
		return errors.New("lint: the workload cannot run as specified")
	}
	return nil
}
