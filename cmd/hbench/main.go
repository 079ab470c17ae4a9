// Command hbench regenerates the paper's tables and figures on the
// simulated substrate and prints the rows/series each reports, together
// with PASS/FAIL shape checks. It also benchmarks the controller's
// evaluation hot path and emits a machine-readable report for CI gating.
//
// Usage:
//
//	hbench            # run every experiment (T1 F2a F2b F3 F4 F7 A1 A2 A3)
//	hbench F7 A1      # run selected experiments
//	hbench -list      # list experiment ids
//	hbench -json BENCH_35.json -bench-nodes 64,256,1024,fig4:4096,accommodate:2,accommodate:4
//	                  # run the hot-path bench (fig4 and fig7 at three sizes,
//	                  # fig4 alone at a fourth, the joint search making room
//	                  # beside 2 and 4 residents), write report
//	hbench -json out.json -baseline BENCH_35.json -tolerance 15
//	                  # ...and fail if a point's counts differ from the
//	                  # baseline's, or its time regressed >15%
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"harmony/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hbench", flag.ContinueOnError)
	list := fs.Bool("list", false, "list experiment ids and exit")
	jsonOut := fs.String("json", "", "run the optimizer hot-path benchmark and write the JSON report to this path")
	baseline := fs.String("baseline", "", "compare the benchmark against this committed report")
	tolerance := fs.Float64("tolerance", 15, "allowed hot-path slowdown vs baseline, percent")
	benchNodes := fs.String("bench-nodes", "8,64,256", "comma-separated cluster sizes for the benchmark; shape:size (fig4:4096) measures that shape only, accommodate:N the joint search beside N residents")
	benchMin := fs.Duration("bench-min", 200*time.Millisecond, "minimum measurement time per benchmark point")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Println(strings.Join(experiments.IDs(), " "))
		return nil
	}
	if *jsonOut != "" {
		return runBench(*jsonOut, *baseline, *tolerance, *benchNodes, *benchMin)
	}
	ids := fs.Args()
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	failed := 0
	for _, id := range ids {
		res, err := experiments.ByID(id)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		fmt.Println(res.Format())
		if !res.Passed() {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) had failing shape checks", failed)
	}
	return nil
}

// runBench measures the hot path, writes the report, and (with a baseline)
// gates on regressions.
func runBench(outPath, baselinePath string, tolerancePct float64, nodesCSV string, minMeasure time.Duration) error {
	nodes, shapeNodes, err := parseNodes(nodesCSV)
	if err != nil {
		return err
	}
	cfg := experiments.DefaultOptBenchConfig()
	cfg.NodeCounts, cfg.ShapeNodeCounts = nodes, shapeNodes
	cfg.MinMeasure = minMeasure
	report, err := experiments.RunOptBench(cfg)
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	fmt.Println(experiments.OptBenchResult(report).Format())
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: write report: %w", err)
	}
	fmt.Printf("wrote %s (%d points)\n", outPath, len(report.Points))
	if baselinePath == "" {
		return nil
	}
	return compareBaseline(report, baselinePath, tolerancePct)
}

// parseNodes splits the -bench-nodes list into the sizes every shape is
// measured at and the sizes written shape:size, measured for that shape only.
func parseNodes(csv string) (all []int, byShape map[string][]int, err error) {
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		shape, size, only := strings.Cut(part, ":")
		if !only {
			shape, size = "", part
		}
		n, err := strconv.Atoi(size)
		if err != nil || n < 1 || (only && shape == "") {
			return nil, nil, fmt.Errorf("bench: bad node count %q", part)
		}
		if !only {
			all = append(all, n)
			continue
		}
		if byShape == nil {
			byShape = make(map[string][]int)
		}
		byShape[shape] = append(byShape[shape], n)
	}
	if len(all)+len(byShape) == 0 {
		return nil, nil, fmt.Errorf("bench: no node counts in %q", csv)
	}
	return all, byShape, nil
}

// compareBaseline fails when a point's exact counts differ from the
// baseline's, in any environment (compareCounts), and when its
// re-evaluation or accommodation time regressed more than tolerancePct
// against the baseline. Absolute timings only transfer between runs of the
// same environment (GOMAXPROCS, OS, arch); when the environments differ,
// timing deltas are reported as informational only.
func compareBaseline(report *experiments.OptBenchReport, baselinePath string, tolerancePct float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("bench: read baseline: %w", err)
	}
	var base experiments.OptBenchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("bench: parse baseline: %w", err)
	}
	enforce := report.EnvMatches(&base)
	if !enforce {
		fmt.Printf("baseline environment differs (%s/%s procs=%d vs %s/%s procs=%d): deltas are informational\n",
			base.GOOS, base.GOARCH, base.GoMaxProcs, report.GOOS, report.GOARCH, report.GoMaxProcs)
	}
	type key struct {
		shape                 string
		nodes, procs, choices int
	}
	// took is what a point is judged by: a pass, or an accommodation.
	took := func(p experiments.OptBenchPoint) float64 {
		if p.Shape == "accommodate" {
			return p.NsPerAccommodation
		}
		return p.NsPerReeval
	}
	baseByKey := make(map[key]experiments.OptBenchPoint, len(base.Points))
	for _, p := range base.Points {
		baseByKey[key{p.Shape, p.Nodes, p.Procs, p.Choices}] = p
	}
	regressed := 0
	for _, p := range report.Points {
		b, ok := baseByKey[key{p.Shape, p.Nodes, p.Procs, p.Choices}]
		base := took(b)
		if !ok || base <= 0 {
			continue
		}
		pct := (took(p) - base) / base * 100
		status := "ok"
		if pct > tolerancePct {
			if enforce {
				status = "REGRESSED"
				regressed++
			} else {
				status = "slower (not enforced)"
			}
		}
		if p.Shape == "accommodate" {
			fmt.Printf("%-5s n=%-4d procs=%-2d choices=%d accommodation %+6.1f%% [%s]\n", "accom", p.Nodes, p.Procs, p.Choices, pct, status)
			continue
		}
		fmt.Printf("%-5s n=%-4d procs=%-2d pass %+6.1f%% [%s]\n", p.Shape, p.Nodes, p.Procs, pct, status)
	}
	changed := compareCounts(report.Points, base.Points)
	if changed > 0 {
		return fmt.Errorf("bench: %d point(s) changed their counts vs %s, and %d regressed more than %.0f%%", changed, baselinePath, regressed, tolerancePct)
	}
	if regressed > 0 {
		return fmt.Errorf("bench: %d point(s) regressed more than %.0f%% vs %s", regressed, tolerancePct, baselinePath)
	}
	return nil
}

// compareCounts reports and counts the points whose predictions or choices
// per pass, trials per accommodation or budget hit differ from the baseline
// point of the same shape, nodes, residents and choices. The counts depend on
// the workload alone, not on GOMAXPROCS or the machine, so a change to one is
// a change to what the optimizer computes; a PR that makes one re-records
// the baseline.
func compareCounts(points, base []experiments.OptBenchPoint) (changed int) {
	type key struct {
		shape                     string
		nodes, residents, choices int
	}
	want := make(map[key]experiments.OptBenchPoint, len(base))
	for _, b := range base {
		if k := (key{b.Shape, b.Nodes, b.Residents, b.Choices}); want[k].Shape == "" {
			want[k] = b
		}
	}
	for _, p := range points {
		b, ok := want[key{p.Shape, p.Nodes, p.Residents, p.Choices}]
		if !ok || p.PredictionsPerPass == b.PredictionsPerPass && p.ChoicesPerPass == b.ChoicesPerPass &&
			p.TrialsPerAccommodation == b.TrialsPerAccommodation && p.BudgetHit == b.BudgetHit {
			continue
		}
		changed++
		fmt.Printf("%-5s n=%-4d procs=%-2d residents=%d choices=%d counts changed: predictions %d -> %d, choices %d -> %d, trials %d -> %d, budget hit %v -> %v [CHANGED]\n",
			p.Shape, p.Nodes, p.Procs, p.Residents, p.Choices, b.PredictionsPerPass, p.PredictionsPerPass,
			b.ChoicesPerPass, p.ChoicesPerPass, b.TrialsPerAccommodation, p.TrialsPerAccommodation, b.BudgetHit, p.BudgetHit)
	}
	return changed
}
