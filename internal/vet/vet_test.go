package vet

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"harmony/internal/rsl"
)

var update = flag.Bool("update", false, "rewrite golden files")

// wantChecks lists, per testdata spec, check IDs that must appear in its
// report. Golden files pin the exact output; this table documents intent.
var wantChecks = map[string][]string{
	"unbound.rsl":     {"unbound-var"},
	"endpoint.rsl":    {"link-endpoint"},
	"badmem.rsl":      {"node-unsatisfiable"},
	"replicate.rsl":   {"replicate-unsatisfiable"},
	"perf.rsl":        {"perf-unsorted", "perf-point"},
	"deadopt.rsl":     {"dominated-option", "empty-option"},
	"reldom.rsl":      {"dominated-option"},
	"unreachable.rsl": {"unreachable-option"},
	"expr.rsl":        {"const-ternary", "div-zero"},
	"negative.rsl":    {"negative-tag"},
	"syntax.rsl":      {"parse"},
	"decode.rsl":      {"decode"},
	"dupnode.rsl":     {"dup-node-decl", "node-decl-capacity"},
	"bandwidth.rsl":   {"link-bandwidth"},
	"toomany.rsl":     {"too-many-choices"},
	"perfrange.rsl":   {"perf-model-range"},
	"ladder.rsl":      {"div-zero", "negative-tag"},
	"overflow.rsl":    {"negative-tag"},
	"nonfinite.rsl":   {"decode"},
	"hugeseconds.rsl": {"infinite-prediction"},
	"noeval.rsl":      {"negative-tag"},
	"fraction.rsl":    {},
	"clean.rsl":       {},
}

func TestGolden(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.rsl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 9 {
		t.Fatalf("testdata corpus has %d specs, want at least 9", len(files))
	}
	registered := make(map[string]bool)
	for _, c := range Checks() {
		registered[c.ID] = true
	}
	for _, file := range files {
		base := filepath.Base(file)
		t.Run(strings.TrimSuffix(base, ".rsl"), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			rep := Script(string(src), Options{})

			want, ok := wantChecks[base]
			if !ok {
				t.Errorf("spec %s has no wantChecks entry", base)
			}
			got := make(map[string]bool)
			for _, d := range rep.Diags {
				got[d.Check] = true
				if !registered[d.Check] {
					t.Errorf("diagnostic uses unregistered check %q", d.Check)
				}
				if d.Line <= 0 {
					t.Errorf("diagnostic %s has no line position", d)
				}
			}
			for _, id := range want {
				if !got[id] {
					t.Errorf("expected a %q diagnostic, got %v", id, rep.Diags)
				}
			}
			if len(want) == 0 && len(rep.Diags) > 0 {
				t.Errorf("expected a clean report, got %v", rep.Diags)
			}

			var sb strings.Builder
			for _, d := range rep.Diags {
				sb.WriteString(d.String())
				sb.WriteByte('\n')
			}
			golden := strings.TrimSuffix(file, ".rsl") + ".golden"
			if *update {
				if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantOut, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run go test -run Golden -update): %v", err)
			}
			if sb.String() != string(wantOut) {
				t.Errorf("report mismatch for %s\n--- got ---\n%s--- want ---\n%s", base, sb.String(), wantOut)
			}
		})
	}
}

// workloadCorpus loads a joint-analysis corpus from a directory under
// testdata: a cluster declaration plus bundle specs that are individually
// fine but jointly infeasible.
func workloadCorpus(t *testing.T, dir string) []WorkloadSpec {
	t.Helper()
	var specs []WorkloadSpec
	for _, name := range []string{"cluster.rsl", "a.rsl", "b.rsl"} {
		src, err := os.ReadFile(filepath.Join("testdata", dir, name))
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, WorkloadSpec{File: name, Src: string(src)})
	}
	return specs
}

func TestWorkloadGolden(t *testing.T) {
	for _, tc := range []struct {
		dir  string
		want []string
	}{
		{"workload", []string{"workload-bandwidth", "workload-host", "workload-memory", "workload-nodes"}},
		// Each bundle stacks replicate 2 x 30 MB on the fixed host db, where
		// the matcher puts every replica: together they pin 120 of its 100 MB.
		{filepath.Join("workload", "fixedhost"), []string{"workload-host"}},
	} {
		t.Run(tc.dir, func(t *testing.T) {
			specs := workloadCorpus(t, tc.dir)

			// Each bundle spec alone must vet clean against the cluster — the
			// whole point of the corpus is that only the joint analysis objects.
			_, decls := decodeAll(t, specs[0].Src)
			for _, s := range specs[1:] {
				if rep := Script(s.Src, Options{ExtraNodes: decls}); len(rep.Diags) != 0 {
					t.Errorf("%s alone should be clean, got %v", s.File, rep.Diags)
				}
			}

			rep := Workload(specs, Options{})
			var got []string
			for _, d := range rep.Diags {
				got = append(got, d.Check)
				if d.File == "" || d.Line <= 0 {
					t.Errorf("workload diagnostic lacks file or line: %+v", d)
				}
			}
			if strings.Join(got, " ") != strings.Join(tc.want, " ") {
				t.Errorf("checks %v, want %v", got, tc.want)
			}

			var sb strings.Builder
			for _, d := range rep.Diags {
				sb.WriteString(d.String())
				sb.WriteByte('\n')
			}
			golden := filepath.Join("testdata", tc.dir, "workload.golden")
			if *update {
				if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantOut, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run go test -run Workload -update): %v", err)
			}
			if sb.String() != string(wantOut) {
				t.Errorf("workload report mismatch\n--- got ---\n%s--- want ---\n%s", sb.String(), wantOut)
			}
		})
	}
}

// TestReplicateJudgedRounded: the matcher rounds a replica count before it
// requires at least one, so negative-tag flags a count, constant or per
// binding, only where it rounds below 1.
func TestReplicateJudgedRounded(t *testing.T) {
	for _, tc := range []struct{ rep, want string }{
		{"0.5", ""},
		{"0.4", `error: [negative-tag] b/o: node "w" replicate is 0.4; it must be at least 1`},
		{"{n / 4}", `warning: [negative-tag] b/o: node "w" replicate evaluates to 0.25 when n=1; it must be at least 1`},
		{"{n / 8}", `error: [negative-tag] b/o: node "w" replicate is at most 0.375 for every admissible binding; it must be at least 1`},
		{"{n / 2}", ""},
	} {
		src := "harmonyBundle a:1 b {{o {variable n {1 3}} {node w * {memory 8} {replicate " + tc.rep + "}}}}"
		var got []string
		for _, d := range Script(src, Options{}).Diags {
			if d.Check == "negative-tag" {
				_, msg, _ := strings.Cut(d.String(), " ")
				got = append(got, msg)
			}
		}
		if strings.Join(got, "\n") != tc.want {
			t.Errorf("replicate %s: got %q, want %q", tc.rep, got, tc.want)
		}
	}
}

// TestLintMatchesScriptAndWorkload: Lint's reports are Script's of each spec
// and Workload's of the set, in text and JSON, over the workload corpora
// with their cluster as a spec and as ExtraNodes, and over every
// single-script spec at once beside a declared cluster.
func TestLintMatchesScriptAndWorkload(t *testing.T) {
	type lintCase struct {
		name  string
		specs []WorkloadSpec
		opts  Options
	}
	var cases []lintCase
	for _, dir := range []string{"workload", filepath.Join("workload", "fixedhost")} {
		specs := workloadCorpus(t, dir)
		_, decls := decodeAll(t, specs[0].Src)
		cases = append(cases,
			lintCase{dir + " with its cluster as a spec", specs, Options{}},
			lintCase{dir + " with its cluster as ExtraNodes", specs[1:], Options{ExtraNodes: decls}})
	}
	files, _ := filepath.Glob(filepath.Join("testdata", "*.rsl"))
	var corpus []WorkloadSpec
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, WorkloadSpec{File: filepath.Base(f), Src: string(src)})
	}
	_, decls := decodeAll(t, workloadCorpus(t, "workload")[0].Src)
	cases = append(cases, lintCase{"every single-script spec", corpus, Options{ExtraNodes: decls}})

	same := func(what string, got, want *Report) {
		t.Helper()
		if g, w := render(t, got), render(t, want); g != w {
			t.Errorf("%s: lint reports\n%s\nwant\n%s", what, g, w)
		}
	}
	for _, tc := range cases {
		scripts, workload := Lint(tc.specs, tc.opts)
		if len(scripts) != len(tc.specs) {
			t.Fatalf("%s: %d script reports for %d specs", tc.name, len(scripts), len(tc.specs))
		}
		for i, s := range tc.specs {
			want := Script(s.Src, tc.opts)
			want.File = s.File
			same(tc.name+": "+s.File, scripts[i], want)
		}
		same(tc.name+": joint", workload, Workload(tc.specs, tc.opts))
	}
}

// decodeAll leniently decodes a script's bundles and declarations for
// test setup.
func decodeAll(t *testing.T, src string) ([]*rsl.BundleSpec, []*rsl.NodeDecl) {
	t.Helper()
	ar, _ := decode(src, &Report{})
	return ar.bundles, ar.decls
}

// TestWorkloadPreDecoded exercises the server path: bundles supplied
// directly instead of source text.
func TestWorkloadPreDecoded(t *testing.T) {
	specs := workloadCorpus(t, "workload")
	_, decls := decodeAll(t, specs[0].Src)
	var pre []WorkloadSpec
	for _, s := range specs[1:] {
		bundles, _ := decodeAll(t, s.Src)
		pre = append(pre, WorkloadSpec{File: s.File, Bundles: bundles})
	}
	rep := Workload(pre, Options{ExtraNodes: decls})
	if !rep.HasErrors() {
		t.Fatalf("pre-decoded workload should report errors, got %v", rep.Diags)
	}
}

// TestWorkloadEmpty: no declarations in scope means no joint verdicts.
func TestWorkloadEmpty(t *testing.T) {
	specs := workloadCorpus(t, "workload")
	if rep := Workload(specs[1:], Options{}); len(rep.Diags) != 0 {
		t.Errorf("workload without a cluster should be silent, got %v", rep.Diags)
	}
	if rep := Workload(nil, Options{}); len(rep.Diags) != 0 {
		t.Errorf("empty workload should be silent, got %v", rep.Diags)
	}
}

// TestRegistryCovered verifies the two corpora (single-script goldens and
// the workload corpus) jointly exercise every registered check.
func TestRegistryCovered(t *testing.T) {
	covered := make(map[string]bool)
	files, err := filepath.Glob(filepath.Join("testdata", "*.rsl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range Script(string(src), Options{}).Diags {
			covered[d.Check] = true
		}
	}
	for _, d := range Workload(workloadCorpus(t, "workload"), Options{}).Diags {
		covered[d.Check] = true
	}
	for _, c := range Checks() {
		if !covered[c.ID] {
			t.Errorf("check %q is exercised by no testdata spec", c.ID)
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Check: "unbound-var", Severity: SevError, Line: 3, Col: 14,
		Bundle: "where", Option: "DS", Message: "boom",
	}
	want := `3:14: error: [unbound-var] where/DS: boom`
	if got := d.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestSeverityTextRoundTrip(t *testing.T) {
	for _, sev := range []Severity{SevInfo, SevWarn, SevError} {
		b, err := sev.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Severity
		if err := back.UnmarshalText(b); err != nil {
			t.Fatal(err)
		}
		if back != sev {
			t.Errorf("round trip %v -> %s -> %v", sev, b, back)
		}
	}
	var s Severity
	if err := s.UnmarshalText([]byte("nope")); err == nil {
		t.Error("UnmarshalText accepted an unknown severity")
	}
}

func TestReportJSON(t *testing.T) {
	rep := Script("harmonyBundle a:1 b {\n\t{o\n\t\t{node n * {memory x}}\n\t}\n}\n", Options{})
	if !rep.HasErrors() {
		t.Fatalf("expected an error report, got %v", rep.Diags)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"severity":"error"`) {
		t.Errorf("JSON %s does not spell out the severity", b)
	}
}

// TestExtraNodes verifies the capacity checks run against an externally
// supplied cluster when the script declares no nodes itself (the server's
// registration hook).
func TestExtraNodes(t *testing.T) {
	src := "harmonyBundle a:1 b {\n\t{o {node n * {memory >=512}}}\n}\n"
	if rep := Script(src, Options{}); rep.HasErrors() {
		t.Fatalf("no declarations in scope, got %v", rep.Diags)
	}
	rep := Script(src, Options{ExtraNodes: []*rsl.NodeDecl{{Hostname: "h1", MemoryMB: 64}}})
	d, ok := rep.FirstError()
	if !ok || d.Check != "node-unsatisfiable" {
		t.Fatalf("want node-unsatisfiable, got %v", rep.Diags)
	}
}

// TestSwitchBandwidthOption: the link-bandwidth check holds a link to the
// interconnect the cluster package models, the SP-2 switch's 320 Mbps. A link
// over it is an error when its ends are always two hosts — two wildcard
// specs, whose replicas matching puts on distinct hosts, or two different
// fixed hosts — and a warning when they may share one.
func TestSwitchBandwidthOption(t *testing.T) {
	link := func(hostX, hostY string, mbps int) string {
		return fmt.Sprintf("harmonyBundle a:1 b {\n\t{o\n\t\t{node x %s {memory 1}}\n\t\t{node y %s {memory 1}}\n\t\t{link x y %d}\n\t}\n}\n", hostX, hostY, mbps)
	}
	nodes := []*rsl.NodeDecl{{Hostname: "h1", MemoryMB: 64}, {Hostname: "h2", MemoryMB: 64}}
	if rep := Script(link("*", "*", 320), Options{ExtraNodes: nodes}); len(rep.Diags) != 0 {
		t.Fatalf("320 Mbps fits the switch, got %v", rep.Diags)
	}
	for _, tc := range []struct {
		x, y string
		want Severity
	}{
		{"*", "*", SevError},
		{"h1", "h2", SevError},
		{"*", "h2", SevWarn},
		{"h1", "*", SevWarn},
		{"h1", "h1", SevWarn},
	} {
		rep := Script(link(tc.x, tc.y, 321), Options{ExtraNodes: nodes})
		if len(rep.Diags) != 1 || rep.Diags[0].Check != "link-bandwidth" || rep.Diags[0].Severity != tc.want ||
			!strings.Contains(rep.Diags[0].Message, "the interconnect provides 320 Mbps") {
			t.Errorf("link between %s and %s: want one link-bandwidth %v against the 320 Mbps switch, got %v", tc.x, tc.y, tc.want, rep.Diags)
		}
	}
}

// TestChecksDocumented keeps the "Static checks" section of docs/RSL.md
// in sync with the registry: every check ID must appear there.
func TestChecksDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "RSL.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range Checks() {
		if !strings.Contains(string(doc), "`"+c.ID+"`") {
			t.Errorf("check %q is not documented in docs/RSL.md", c.ID)
		}
	}
}

// TestRegistryDistinct guards against copy-paste check IDs.
func TestRegistryDistinct(t *testing.T) {
	seen := make(map[string]bool)
	for _, c := range Checks() {
		if seen[c.ID] {
			t.Errorf("check ID %q registered twice", c.ID)
		}
		seen[c.ID] = true
		if c.Doc == "" {
			t.Errorf("check %q has no doc line", c.ID)
		}
	}
}
