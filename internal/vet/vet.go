// Package vet statically analyzes Harmony RSL specifications before they
// reach the controller. The paper's premise is that applications export
// their tuning alternatives as RSL bundles (Figures 2-3, Table 1), which
// makes the controller's decisions only as good as the specs it is fed: an
// expression referencing an unbound namespace variable, a memory demand no
// declared harmonyNode can satisfy, or an out-of-order performance table is
// otherwise only discovered deep inside matching (Section 4.1) or
// prediction (Section 4.2) — or never. This package rejects such specs at
// the front door.
//
// The analyzer runs a registry of checks over a parsed and decoded script
// and reports diagnostics with a stable check ID, a severity, and a
// line:col source position. Error-severity findings mean the spec can never
// behave as written (matching or evaluation is guaranteed to fail);
// warnings flag constructs that are legal but almost certainly mistakes.
// Every check reads one analysis per bundle (Bundle): its choices and their
// plans, the ones the controller that admits the bundle decides with.
package vet

import (
	"fmt"
	"sort"
	"strings"

	"harmony/internal/rsl"
)

// Severity classifies a diagnostic.
type Severity int

const (
	// SevInfo is advisory.
	SevInfo Severity = iota + 1
	// SevWarn marks legal but suspicious constructs.
	SevWarn
	// SevError marks specs that can never work as written.
	SevError
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarn:
		return "warning"
	case SevError:
		return "error"
	}
	return "unknown"
}

// MarshalText renders the severity for JSON output.
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a severity name.
func (s *Severity) UnmarshalText(b []byte) error {
	switch string(b) {
	case "info":
		*s = SevInfo
	case "warning":
		*s = SevWarn
	case "error":
		*s = SevError
	default:
		return fmt.Errorf("vet: unknown severity %q", b)
	}
	return nil
}

// Diagnostic is one finding: a check ID, severity, message and source
// position, plus the bundle/option context when applicable.
type Diagnostic struct {
	// Check is the stable check identifier (e.g. "unbound-var").
	Check string `json:"check"`
	// File names the source spec for diagnostics that aggregate several
	// files (the workload checks); empty in single-script reports, where
	// Report.File already identifies the source.
	File string `json:"file,omitempty"`
	// Severity classifies the finding.
	Severity Severity `json:"severity"`
	// Line and Col locate the finding in the source (1-based; Col may be 0
	// when only the line is known).
	Line int `json:"line"`
	Col  int `json:"col"`
	// Bundle and Option name the enclosing spec scope, when applicable.
	Bundle string `json:"bundle,omitempty"`
	Option string `json:"option,omitempty"`
	// Message describes the finding.
	Message string `json:"message"`
}

// Pos returns the diagnostic's source position.
func (d Diagnostic) Pos() rsl.Pos { return rsl.Pos{Line: d.Line, Col: d.Col} }

// String renders the diagnostic in the canonical single-line form
//
//	3:14: error: [unbound-var] where/DS: expression references unbound name "x"
func (d Diagnostic) String() string {
	var sb strings.Builder
	if d.File != "" {
		sb.WriteString(d.File)
		sb.WriteString(":")
	}
	sb.WriteString(d.Pos().String())
	sb.WriteString(": ")
	sb.WriteString(d.Severity.String())
	sb.WriteString(": [")
	sb.WriteString(d.Check)
	sb.WriteString("] ")
	switch {
	case d.Bundle != "" && d.Option != "":
		sb.WriteString(d.Bundle + "/" + d.Option + ": ")
	case d.Bundle != "":
		sb.WriteString(d.Bundle + ": ")
	}
	sb.WriteString(d.Message)
	return sb.String()
}

// Report is the result of analyzing one script.
type Report struct {
	// File is the source filename, when known (set by callers).
	File string `json:"file,omitempty"`
	// Diags holds the findings ordered by source position.
	Diags []Diagnostic `json:"diagnostics"`
}

// HasErrors reports whether any diagnostic is error-severity.
func (r *Report) HasErrors() bool { return r.Count(SevError) > 0 }

// Count reports how many diagnostics carry the given severity.
func (r *Report) Count(sev Severity) int {
	n := 0
	for _, d := range r.Diags {
		if d.Severity == sev {
			n++
		}
	}
	return n
}

// FirstError returns the first error-severity diagnostic, if any.
func (r *Report) FirstError() (Diagnostic, bool) {
	for _, d := range r.Diags {
		if d.Severity == SevError {
			return d, true
		}
	}
	return Diagnostic{}, false
}

// Sort orders diagnostics by file, position, then check ID.
func (r *Report) Sort() {
	sort.SliceStable(r.Diags, func(i, j int) bool {
		a, b := r.Diags[i], r.Diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
}

func (r *Report) add(d Diagnostic) { r.Diags = append(r.Diags, d) }

// Options parameterizes an analysis run.
type Options struct {
	// ExtraNodes supplies harmonyNode declarations from outside the script
	// (e.g. the server's managed cluster), enabling the capacity checks even
	// for bundle-only scripts.
	ExtraNodes []*rsl.NodeDecl
}

// CheckInfo describes one registered check for documentation and tooling.
type CheckInfo struct {
	// ID is the stable identifier reported in diagnostics.
	ID string
	// Severity is the check's usual severity (some checks downgrade to a
	// warning when the finding depends on variable instantiation).
	Severity Severity
	// Doc is a one-line description.
	Doc string
}

// Checks enumerates every registered check.
func Checks() []CheckInfo {
	out := make([]CheckInfo, len(checkRegistry))
	copy(out, checkRegistry)
	return out
}

var checkRegistry = []CheckInfo{
	{"parse", SevError, "the script has a syntax error (unterminated brace, stray '}')"},
	{"decode", SevError, "a command violates the RSL grammar of Table 1 (unknown tag, malformed pair, duplicate option)"},
	{"unbound-var", SevError, "an expression references a name resolvable in no evaluation context: not a declared variable, and not a granted-resource name (local.memory, local.seconds) where those are visible"},
	{"link-endpoint", SevError, "a link names an endpoint that is not a declared node of the option"},
	{"node-unsatisfiable", SevError, "no declared harmonyNode can satisfy a node request's hostname, os and memory demands (Section 4.1 matching can never succeed)"},
	{"replicate-unsatisfiable", SevError, "a wildcard node's replica count exceeds the number of distinct eligible hosts"},
	{"link-bandwidth", SevError, "a link demand exceeds the interconnect capacity even in the best case between ends that are always two hosts — two wildcard specs, or two different fixed hosts — so it can never be matched (or, as a warning, a link whose ends may share a host, or a communication demand, which matching spreads over the pairs without refusing it)"},
	{"perf-point", SevError, "a performance point has a node count below one or a negative time (piecewise-linear interpolation misbehaves)"},
	{"perf-unsorted", SevWarn, "performance points were listed out of ascending node order (the decoder sorts them; the order given is likely a typo)"},
	{"dominated-option", SevWarn, "an option is dominated by an earlier sibling at every choice the controller enumerates — identical or subsumed requirements with a prediction that is never better — so the controller can never choose it"},
	{"unreachable-option", SevError, "an option's least total memory, distinct host count, or per-host pinned memory over the choices the controller enumerates exceeds the declared cluster's capacity even when idle, so it can never be matched"},
	{"empty-option", SevWarn, "an option requests no nodes, so it never consumes or releases resources"},
	{"const-ternary", SevWarn, "a ternary conditional's condition is constant, so one branch is dead"},
	{"div-zero", SevError, "a division or modulo whose divisor is the constant zero (or, as a warning, may be zero for some variable value)"},
	{"negative-tag", SevError, "a quantity that must be non-negative (seconds, memory, communication, granularity, friction, bandwidth) or at least one (replicate) is constant and out of range (or, as a warning, is out of range for some variable value)"},
	{"dup-node-decl", SevError, "the same hostname is declared by more than one harmonyNode"},
	{"node-decl-capacity", SevWarn, "a harmonyNode declares no memory, so every memory-bearing request will fail to match on it"},
	{"too-many-choices", SevError, "a bundle's options, variable domains and memory grant ladders expand to more choices than the controller enumerates (4096); the server and the controller refuse it, and no check that needs a binding runs"},
	{"infinite-prediction", SevError, "a node's seconds over the fastest declared node's speed is an infinity, so the default model predicts no finite time and the controller refuses the choice (or, as a warning, some of the option's choices)"},
	{"perf-model-range", SevWarn, "a performance model's node-count span is disjoint from every node count the option can request, so predictions always extrapolate"},
	{"workload-memory", SevError, "the bundles' combined best-case memory demand exceeds the cluster's total memory, so no allocation of the whole workload can succeed"},
	{"workload-nodes", SevError, "the bundles' combined best-case exclusive-node demand exceeds the cluster's node count"},
	{"workload-host", SevError, "the memory the bundles pin to one specific host exceeds that host's capacity"},
	{"workload-bandwidth", SevWarn, "the bundles' combined best-case bandwidth demand exceeds the interconnect capacity"},
}

// Script parses, decodes and analyzes an RSL script, returning every
// finding. Unlike rsl.DecodeScript it keeps going after a bad command, so
// one malformed bundle does not hide findings in the rest of the script.
func Script(src string, opts Options) *Report {
	rep, _ := script(src, opts.ExtraNodes, CapacityOf(opts.ExtraNodes))
	return rep
}

// script is Script against the cluster extra, whose capacity is capa, also
// handing back what it decoded.
func script(src string, extra []*rsl.NodeDecl, capa Capacity) (*Report, *Arrival) {
	rep := &Report{}
	ar, err := decode(src, rep)
	if err != nil {
		rep.add(diagFromErr("parse", err))
		return rep, ar
	}
	a := &analysis{
		rep:   rep,
		decls: append(append([]*rsl.NodeDecl(nil), ar.decls...), extra...),
		capa:  capa.Add(ar.decls),
	}
	a.checkDecls(ar.decls)
	for _, b := range ar.bundles {
		an := NewBundle(b)
		ar.analyses = append(ar.analyses, an)
		a.checkBundle(an)
	}
	rep.Sort()
	return rep, ar
}

// decode parses and decodes a script as rsl.DecodeScript does, keeping
// every bundle and node declaration that decodes and adding a diagnostic
// to rep for each command that does not. A script that does not parse
// yields no commands and the parse error.
func decode(src string, rep *Report) (*Arrival, error) {
	ar := &Arrival{}
	cmds, err := rsl.ParseScript(src)
	if err != nil {
		ar.err = err
		return ar, err
	}
	var errs []error
	ar.bundles, ar.decls, errs = rsl.DecodeCommands(cmds)
	for _, err := range errs {
		rep.add(diagFromErr("decode", err))
	}
	if len(errs) > 0 {
		ar.err = errs[0]
	}
	return ar, nil
}

// diagFromErr converts an rsl parse/decode error into a positioned
// diagnostic.
func diagFromErr(check string, err error) Diagnostic {
	d := Diagnostic{Check: check, Severity: SevError, Message: err.Error()}
	switch e := err.(type) {
	case *rsl.ParseError:
		d.Line, d.Col, d.Message = e.Line, e.Col, e.Msg
	case *rsl.DecodeError:
		d.Line, d.Col, d.Message = e.Line, e.Col, e.Msg
	}
	return d
}
