// Command bench is the repository's benchmark: it drives real harmonyd child
// processes over loopback TCP through the public harmony client, reports the
// client-visible metrics named in BENCHMARK.json for one of four workloads,
// and checks every output against an in-process oracle. See README.md.
//
// The benchmark contract's invocation is
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// whose last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With no arguments every workload
// runs untraced and traced.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

// runTimeout bounds one run, set-up and oracle included; the contract allows
// 180 s.
const runTimeout = 170 * time.Second

func main() {
	os.Exit(realMain())
}

func realMain() int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "input generator seed; harmonyd sees only the generated RSL")
	seconds := fs.Float64("seconds", 10, "measured window per run")
	trace := fs.String("trace", "both", "0: end-to-end metrics, 1: traced run with per-layer metrics, both")
	runs := fs.Int("runs", 1, "runs per workload and mode, with seeds seed, seed+1, ...")
	out := fs.String("out", "", "write every run's result to this JSON file (input of -compare)")
	traceOut := fs.String("trace-out", "", "write the traced run's spans to this JSON file")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	benchmarkJSON := fs.String("benchmark", "BENCHMARK.json", "benchmark definition, for -compare's bounds")
	harmonyd := fs.String("harmonyd", ".bench_build/bin/harmonyd", "built harmonyd binary")
	workDir := fs.String("workdir", ".bench_build/tmp", "directory for run temp dirs")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(*benchmarkJSON, fs.Arg(0), fs.Arg(1))
	}

	var selected []Workload
	if *workload == "all" {
		selected = workloads
	} else if w, ok := workloadByName(*workload); ok {
		selected = []Workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	var modes []bool
	switch *trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		fmt.Fprintf(os.Stderr, "bench: -trace must be 0, 1 or both\n")
		return 2
	}
	if *seconds < 1 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -runs must be at least 1")
		return 2
	}
	if _, err := os.Stat(*harmonyd); err != nil {
		fmt.Fprintf(os.Stderr, "bench: harmonyd binary: %v (bench/run.sh builds it)\n", err)
		return 2
	}

	// Ctrl-C and SIGTERM cancel the run; every child is killed and the temp
	// directory removed on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var results []*Result
	ok := true
	for _, w := range selected {
		for _, traced := range modes {
			for i := 0; i < *runs; i++ {
				rctx, cancel := context.WithTimeout(ctx, runTimeout)
				res, err := run(rctx, RunConfig{
					Workload: w, Seed: *seed + int64(i), Seconds: *seconds, Trace: traced,
					Harmonyd: *harmonyd, WorkDir: *workDir, TraceOut: *traceOut,
				})
				cancel()
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
					return 1
				}
				printResult(res)
				results = append(results, res)
				ok = ok && res.Correct
			}
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(results, "", " ")
		if err == nil {
			err = os.WriteFile(*out, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: write %s: %v\n", *out, err)
			return 1
		}
	}
	// The contract's result line: the last run's, with exactly these keys.
	last := results[len(results)-1]
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{last.Correct, last.Attempted, last.Failed, last.Metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !ok {
		return 1
	}
	return 0
}

// printResult prints every metric by name with its unit and sample count.
func printResult(r *Result) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Printf("== %s seed=%d %s: attempted=%d failed=%d fail_ratio=%g\n",
		r.Workload, r.Seed, mode, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		if c, ok := r.Counts[n]; ok {
			fmt.Printf("  %-32s %14.4f %-6s n=%d\n", n, m.Value, m.Unit, c)
		} else {
			fmt.Printf("  %-32s %14.4f %s\n", n, m.Value, m.Unit)
		}
	}
	for _, n := range r.Notes {
		fmt.Printf("  ! %s\n", n)
	}
}
