// Package lint implements harmonylint: a suite of project-specific static
// analyzers that prove the Go implementation's own concurrency and replay
// invariants — the conventions that keep the controller correct but that no
// compiler checks (see docs/ANALYZERS.md):
//
//   - goroutinelife: every spawned goroutine has a shutdown path (stop/done
//     channel, context, or WaitGroup registration).
//   - protoexhaustive: switches over registered wire-message enums cover
//     every registered value or carry an explicit non-empty default.
//   - replaydeterminism: the replicated state-machine apply path reads no
//     wall clock, uses no math/rand, and makes no map-iteration-order-
//     dependent writes, so every replica replays the log identically.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, Diagnostic) so the suite can migrate onto the upstream multichecker
// mechanically; it is implemented on the standard library alone because this
// module carries no third-party dependencies. Packages are loaded from
// source and type-checked against export data from the build cache (see
// Loader), so the analyzers see full type information, not just syntax.
//
// Diagnostics are suppressed by a directive on the flagged line or the line
// above it:
//
//	//harmonylint:allow <check> <reason>
//
// The reason is mandatory: an allow directive without one is itself reported
// (check "suppression"), so every suppression in the tree carries its
// justification.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant check, mirroring the shape of
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the check in diagnostics and allow directives.
	Name string
	// Doc is a one-line statement of the invariant the check proves.
	Doc string
	// Run analyzes one package, reporting findings via pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset resolves token positions for the package's files.
	Fset *token.FileSet
	// Files are the package's parsed source files (tests excluded).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's results for the files.
	Info *types.Info

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Check:    p.Analyzer.Name,
		Package:  p.Pkg.Path(),
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	// Check names the analyzer that produced the finding.
	Check string `json:"check"`
	// Package is the import path of the analyzed package.
	Package string `json:"package"`
	// Position locates the finding (Filename, Line, Column).
	Position token.Position `json:"position"`
	// Message describes the violated invariant at this site.
	Message string `json:"message"`
	// Suppressed marks findings matched by a //harmonylint:allow directive.
	Suppressed bool `json:"suppressed,omitempty"`
	// SuppressReason is the directive's justification text.
	SuppressReason string `json:"suppressReason,omitempty"`
}

// String renders the diagnostic in the familiar file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Check, d.Message)
}

// Analyzers returns the registered suite in its stable reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		GoroutineLife,
		ProtoExhaustive,
		ReplayDeterminism,
	}
}

// AnalyzerNames returns the registered check names, sorted.
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return names
}
