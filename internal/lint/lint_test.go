package lint

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// sharedLoader builds one Loader for the whole test binary: NewLoader shells
// out to `go list -deps -export`, which is the expensive step.
var (
	loaderOnce sync.Once
	loaderVal  *Loader
	loaderErr  error
)

func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loaderVal, loaderErr = NewLoader(moduleRoot())
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loaderVal
}

func moduleRoot() string {
	abs, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		panic(err)
	}
	return abs
}

func analyzerByName(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer named %q", name)
	return nil
}

var wantRE = regexp.MustCompile(`// want "([^"]*)"`)

// wantsIn parses the `// want "regex"` expectations from every corpus file,
// keyed by file:line.
func wantsIn(t *testing.T, dir string) map[string]*regexp.Regexp {
	t.Helper()
	out := map[string]*regexp.Regexp{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRE.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regex %q: %v", path, line, m[1], err)
			}
			out[fmt.Sprintf("%s:%d", path, line)] = re
		}
		f.Close()
	}
	return out
}

// TestGoldenCorpora runs each analyzer over its testdata corpus and matches
// the findings against the corpus's want comments, in both directions: every
// finding must be expected, and every expectation must fire.
func TestGoldenCorpora(t *testing.T) {
	for _, a := range Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			dir := filepath.Join("testdata", a.Name)
			pkg, err := sharedLoader(t).LoadDir(dir)
			if err != nil {
				t.Fatalf("LoadDir(%s): %v", dir, err)
			}
			rep, err := Run([]*Package{pkg}, []*Analyzer{a})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			wants := wantsIn(t, dir)
			matched := map[string]bool{}
			for _, d := range rep.Unsuppressed() {
				key := fmt.Sprintf("%s:%d", d.Position.Filename, d.Position.Line)
				re, ok := wants[key]
				if !ok {
					t.Errorf("unexpected diagnostic: %s", d)
					continue
				}
				if !re.MatchString(d.Message) {
					t.Errorf("%s: diagnostic %q does not match want %q", key, d.Message, re)
				}
				matched[key] = true
			}
			for key, re := range wants {
				if !matched[key] {
					t.Errorf("%s: expected a diagnostic matching %q, got none", key, re)
				}
			}
		})
	}
}

// TestSuppressionDirectives drives the //harmonylint:allow machinery over a
// dedicated corpus: a justified directive suppresses its finding, a
// reasonless one suppresses nothing and is flagged, and a stale one is
// flagged as unused.
func TestSuppressionDirectives(t *testing.T) {
	dir := filepath.Join("testdata", "suppression")
	pkg, err := sharedLoader(t).LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	rep, err := Run([]*Package{pkg}, Analyzers())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	var suppressed, open, directives []Diagnostic
	for _, d := range rep.Diags {
		switch {
		case d.Suppressed:
			suppressed = append(suppressed, d)
		case d.Check == "suppression":
			directives = append(directives, d)
		default:
			open = append(open, d)
		}
	}

	if len(suppressed) != 1 {
		t.Fatalf("suppressed = %v, want exactly the justified flush() finding", suppressed)
	}
	if got := suppressed[0].SuppressReason; !strings.Contains(got, "drains a closed channel") {
		t.Errorf("suppress reason = %q, want the directive's justification", got)
	}
	if len(open) != 1 || open[0].Check != "goroutinelife" {
		t.Fatalf("open findings = %v, want only the reasonless() goroutine (a directive without a reason must not suppress)", open)
	}
	wantDirectives := map[string]bool{"carries no reason": false, "matches no diagnostic": false}
	for _, d := range directives {
		for frag := range wantDirectives {
			if strings.Contains(d.Message, frag) {
				wantDirectives[frag] = true
			}
		}
	}
	if len(directives) != 2 {
		t.Errorf("directive diagnostics = %v, want exactly 2", directives)
	}
	for frag, seen := range wantDirectives {
		if !seen {
			t.Errorf("no suppression diagnostic containing %q", frag)
		}
	}
}

// TestRepoCleanUnderSuite is the self-check the lint CI gate relies on: the
// whole module must carry zero unsuppressed diagnostics, and any suppression
// must state its reason.
func TestRepoCleanUnderSuite(t *testing.T) {
	pkgs, err := sharedLoader(t).Load("./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) < 5 {
		t.Fatalf("loaded only %d packages; the sweep is not seeing the module", len(pkgs))
	}
	rep, err := Run(pkgs, Analyzers())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range rep.Unsuppressed() {
		t.Errorf("unsuppressed: %s", d)
	}
	for _, d := range rep.Diags {
		if d.Suppressed && d.SuppressReason == "" {
			t.Errorf("suppression without a reason: %s", d)
		}
	}
}

// TestReportOutputs pins the JSON and SARIF envelopes the CI artifact
// pipeline consumes.
func TestReportOutputs(t *testing.T) {
	rep := &Report{Diags: []Diagnostic{
		{Check: "goroutinelife", Package: "p", Message: "leak"},
		{Check: "replaydeterminism", Package: "p", Message: "ok", Suppressed: true, SuppressReason: "because"},
	}}

	jb, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Diagnostics []Diagnostic `json:"diagnostics"`
	}
	if err := json.Unmarshal(jb, &decoded); err != nil {
		t.Fatalf("JSON output does not round-trip: %v", err)
	}
	if len(decoded.Diagnostics) != 2 {
		t.Fatalf("JSON diagnostics = %d, want 2", len(decoded.Diagnostics))
	}

	sb, err := rep.SARIF()
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID       string `json:"ruleId"`
				Suppressions []struct {
					Kind string `json:"kind"`
				} `json:"suppressions"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(sb, &log); err != nil {
		t.Fatalf("SARIF output does not parse: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("SARIF envelope = version %q, %d runs", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "harmonylint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	// One rule per analyzer plus the suppression meta-rule.
	if want := len(Analyzers()) + 1; len(run.Tool.Driver.Rules) != want {
		t.Errorf("rules = %d, want %d", len(run.Tool.Driver.Rules), want)
	}
	if len(run.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(run.Results))
	}
	if len(run.Results[1].Suppressions) != 1 || run.Results[1].Suppressions[0].Kind != "inSource" {
		t.Errorf("suppressed finding must carry an inSource suppression record: %+v", run.Results[1])
	}
}

// TestAnalyzerRegistry pins the registry invariants the docs and SARIF rules
// depend on.
func TestAnalyzerRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing a name, doc or run function", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Name == "suppression" {
			t.Errorf("%q collides with the reserved directive check name", a.Name)
		}
	}
	if len(Analyzers()) < 3 {
		t.Errorf("suite has %d analyzers, want at least 3", len(Analyzers()))
	}
}

// TestDocsInSync keeps docs/ANALYZERS.md aligned with the registered suite:
// every analyzer has a `## name` section, no section names an unregistered
// analyzer, and the suppression directive is documented.
func TestDocsInSync(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join(moduleRoot(), "docs", "ANALYZERS.md"))
	if err != nil {
		t.Fatalf("docs/ANALYZERS.md: %v", err)
	}
	headings := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		name, ok := strings.CutPrefix(line, "## ")
		if !ok {
			continue
		}
		name = strings.TrimSpace(name)
		// Single-word lowercase headings are analyzer sections; prose
		// headings ("Suppressing a finding") are not.
		if !strings.Contains(name, " ") {
			headings[name] = true
		}
	}
	for _, name := range AnalyzerNames() {
		if !headings[name] {
			t.Errorf("docs/ANALYZERS.md has no `## %s` section", name)
		}
		delete(headings, name)
	}
	for name := range headings {
		t.Errorf("docs/ANALYZERS.md documents %q, which is not a registered analyzer", name)
	}
	if !strings.Contains(string(doc), "//harmonylint:allow") {
		t.Error("docs/ANALYZERS.md does not document the //harmonylint:allow directive")
	}
}
