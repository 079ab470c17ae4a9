package rsl

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file decodes parsed RSL lists into the typed specifications used by
// the Harmony controller. The grammar follows the paper's Figures 2-3 and
// Table 1:
//
//	harmonyBundle <app>:<instance> <bundleName> { {opt ...} {opt ...} }
//	harmonyNode <hostname> {speed S} {memory M} {os NAME} [{cpus N}] [{latency L}]
//
// inside an option:
//
//	{node <localName> <hostPattern> {tag value}...}   tags: seconds, memory,
//	                                                  os, hostname, replicate
//	{link <a> <b> <bandwidthExpr> [latencyExpr]}
//	{communication <expr>}
//	{performance {{nodes time} ...}}
//	{granularity <expr>}            switching rate limit, virtual seconds
//	{friction <expr>}               frictional cost of switching to the option
//	{variable <name> {v1 v2 ...}}   values Harmony may instantiate
//
// Numeric tag values may be full expressions over namespace variables, and
// may carry a constraint prefix such as >=17 (minimum; Harmony may allocate
// more, per Section 3.5 of the paper).

// ConstraintOp states how a requested quantity constrains the allocation.
type ConstraintOp int

const (
	// OpExact requires exactly the requested quantity.
	OpExact ConstraintOp = iota + 1
	// OpMin requires at least the requested quantity; more may be allocated
	// profitably (the ">= 17" memory tag of Figure 3).
	OpMin
	// OpMax requires at most the requested quantity.
	OpMax
)

// String implements fmt.Stringer.
func (op ConstraintOp) String() string {
	switch op {
	case OpExact:
		return "=="
	case OpMin:
		return ">="
	case OpMax:
		return "<="
	}
	return "?"
}

// TagValue is the value of a resource tag: either a string (os, hostname)
// or a numeric expression with a constraint operator.
type TagValue struct {
	// Pos is the source position of the tag name.
	Pos Pos
	// IsString marks string-valued tags such as os and hostname.
	IsString bool
	// Str is the string value when IsString.
	Str string
	// Op is the constraint operator for numeric tags.
	Op ConstraintOp
	// Expr computes the numeric quantity, possibly referencing variables.
	Expr Expr
}

// EvalNum evaluates a numeric tag value under env.
func (tv TagValue) EvalNum(env Env) (float64, error) {
	if tv.IsString {
		return 0, fmt.Errorf("rsl: tag is a string (%q), not numeric", tv.Str)
	}
	if tv.Expr == nil {
		return 0, fmt.Errorf("rsl: numeric tag has no expression")
	}
	return tv.Expr.Eval(env)
}

// NodeSpec requests one node (or several identical nodes via Replicate).
type NodeSpec struct {
	// Pos is the source position of the node tag.
	Pos Pos
	// LocalName names the node within the option namespace ("server",
	// "client", "worker").
	LocalName string
	// HostPattern is "*" for any host or a specific hostname.
	HostPattern string
	// Tags holds requirements: seconds (reference-machine CPU seconds),
	// memory (MB), os, hostname, and any application-defined tags.
	Tags map[string]TagValue
	// Replicate is how many identical nodes to match (Figure 2a's
	// "replicate 4"); nil means 1. It may reference variables.
	Replicate Expr
	// ReplicatePos is the source position of the replicate tag.
	ReplicatePos Pos
}

// LinkSpec requests bandwidth between two named nodes of the option.
type LinkSpec struct {
	// Pos is the source position of the link tag.
	Pos Pos
	// A and B are local node names within the option.
	A, B string
	// Bandwidth is the total requirement in Mbits (expression).
	Bandwidth Expr
	// Latency is an optional maximum latency requirement in ms.
	Latency Expr
}

// PerfPoint is one data point of an explicit performance model: expected
// running time Y when using X nodes (Section 3.4).
type PerfPoint struct {
	X, Y float64
}

// VariableSpec declares a Harmony-instantiable variable and its admissible
// values (Figure 2b's workerNodes {1 2 4 8}).
type VariableSpec struct {
	// Pos is the source position of the variable tag.
	Pos    Pos
	Name   string
	Values []float64
}

// OptionSpec is one mutually exclusive alternative within a bundle.
type OptionSpec struct {
	// Pos is the source position of the option's name word.
	Pos Pos
	// Name identifies the option within the bundle namespace (QS, DS, ...).
	Name string
	// Nodes lists requested nodes.
	Nodes []NodeSpec
	// Links lists requested point-to-point bandwidth.
	Links []LinkSpec
	// Communication is the aggregate all-pairs bandwidth requirement used
	// when explicit endpoints are not given (Figure 2's communication tag).
	Communication Expr
	// CommunicationPos is the source position of the communication tag.
	CommunicationPos Pos
	// Performance holds the explicit response-time model data points; empty
	// means Harmony's default model applies.
	Performance []PerfPoint
	// PerformancePos is the source position of the performance tag.
	PerformancePos Pos
	// PerformanceUnsorted records that the source listed the points out of
	// ascending node order (the decoder sorts them; analyzers may warn).
	PerformanceUnsorted bool
	// Granularity is the minimum virtual seconds between option switches.
	Granularity Expr
	// GranularityPos is the source position of the granularity tag.
	GranularityPos Pos
	// Friction is the one-time cost (virtual seconds) of switching TO this
	// option.
	Friction Expr
	// FrictionPos is the source position of the friction tag.
	FrictionPos Pos
	// Variables lists instantiable variables scoped to this option.
	Variables []VariableSpec
}

// Variable returns the named VariableSpec, or nil.
func (o *OptionSpec) Variable(name string) *VariableSpec {
	for i := range o.Variables {
		if o.Variables[i].Name == name {
			return &o.Variables[i]
		}
	}
	return nil
}

// BundleSpec is a full application bundle: a set of mutually exclusive
// options exported to Harmony.
type BundleSpec struct {
	// Pos is the source position of the harmonyBundle command.
	Pos Pos
	// App is the application name (e.g. "DBclient").
	App string
	// Instance is the application-proposed instance id; the controller may
	// assign its own.
	Instance int
	// Name is the bundle name (e.g. "where").
	Name string
	// Options holds the alternatives in declaration order (the paper
	// evaluates bundles in lexical definition order).
	Options []OptionSpec
}

// Option returns the named option, or nil.
func (b *BundleSpec) Option(name string) *OptionSpec {
	for i := range b.Options {
		if b.Options[i].Name == name {
			return &b.Options[i]
		}
	}
	return nil
}

// OptionNames lists option names in declaration order.
func (b *BundleSpec) OptionNames() []string {
	names := make([]string, len(b.Options))
	for i := range b.Options {
		names[i] = b.Options[i].Name
	}
	return names
}

// NodeDecl is a resource published with harmonyNode: one machine and its
// capacities, with speed relative to the reference machine (a 400 MHz
// Pentium II per Section 3).
type NodeDecl struct {
	// Pos is the source position of the harmonyNode command.
	Pos Pos
	// Hostname uniquely names the machine.
	Hostname string
	// Speed is the scaling factor vs the reference machine.
	Speed float64
	// MemoryMB is installed memory in MB.
	MemoryMB float64
	// OS is the operating system name.
	OS string
	// CPUs is the processor count (default 1).
	CPUs int
	// Extra holds any additional published numeric attributes.
	Extra map[string]float64
}

// DecodeError reports a semantic decoding problem with source position.
type DecodeError struct {
	Line int
	Col  int
	Msg  string
}

// Pos returns the error's source position.
func (e *DecodeError) Pos() Pos { return Pos{Line: e.Line, Col: e.Col} }

func (e *DecodeError) Error() string {
	if e.Col > 0 {
		return fmt.Sprintf("rsl: line %d:%d: %s", e.Line, e.Col, e.Msg)
	}
	return fmt.Sprintf("rsl: line %d: %s", e.Line, e.Msg)
}

func decodeErrf(pos Pos, format string, args ...any) error {
	return &DecodeError{Line: pos.Line, Col: pos.Col, Msg: fmt.Sprintf(format, args...)}
}

// DecodeBundleCommand decodes a `harmonyBundle` command.
func DecodeBundleCommand(cmd Command) (*BundleSpec, error) {
	if len(cmd) != 4 {
		return nil, decodeErrf(cmdPos(cmd), "harmonyBundle expects 3 arguments (app:instance, name, options), got %d", len(cmd)-1)
	}
	if cmd[0].IsList || cmd[0].Word != "harmonyBundle" {
		return nil, decodeErrf(cmdPos(cmd), "not a harmonyBundle command")
	}
	if cmd[1].IsList || cmd[2].IsList {
		return nil, decodeErrf(cmdPos(cmd), "harmonyBundle app and bundle names must be words")
	}
	app, instance, err := splitAppInstance(cmd[1].Word)
	if err != nil {
		return nil, decodeErrf(cmd[1].Pos(), "%v", err)
	}
	if !cmd[3].IsList {
		return nil, decodeErrf(cmd[3].Pos(), "harmonyBundle options must be a braced list")
	}
	b := &BundleSpec{Pos: cmdPos(cmd), App: app, Instance: instance, Name: cmd[2].Word}
	seen := make(map[string]bool)
	for _, optNode := range cmd[3].List {
		if !optNode.IsList || len(optNode.List) == 0 {
			return nil, decodeErrf(optNode.Pos(), "each option must be a braced list starting with its name")
		}
		opt, err := decodeOption(optNode.List)
		if err != nil {
			return nil, err
		}
		if seen[opt.Name] {
			return nil, decodeErrf(optNode.Pos(), "duplicate option %q", opt.Name)
		}
		seen[opt.Name] = true
		b.Options = append(b.Options, *opt)
	}
	if len(b.Options) == 0 {
		return nil, decodeErrf(cmd[3].Pos(), "bundle %q has no options", b.Name)
	}
	return b, nil
}

func cmdPos(cmd Command) Pos {
	if len(cmd) > 0 {
		return cmd[0].Pos()
	}
	return Pos{}
}

func splitAppInstance(word string) (string, int, error) {
	app, instStr, found := strings.Cut(word, ":")
	if !found {
		return word, 0, nil
	}
	inst, err := strconv.Atoi(instStr)
	if err != nil {
		return "", 0, fmt.Errorf("bad instance id in %q: %w", word, err)
	}
	return app, inst, nil
}

func decodeOption(nodes []Node) (*OptionSpec, error) {
	head := nodes[0]
	if head.IsList {
		return nil, decodeErrf(head.Pos(), "option name must be a word")
	}
	opt := &OptionSpec{Pos: head.Pos(), Name: head.Word}
	for _, item := range nodes[1:] {
		if !item.IsList || len(item.List) == 0 {
			return nil, decodeErrf(item.Pos(), "option body entries must be braced tag lists")
		}
		tag := item.List[0]
		if tag.IsList {
			return nil, decodeErrf(tag.Pos(), "tag name must be a word")
		}
		var err error
		switch tag.Word {
		case "node":
			err = decodeNodeTag(opt, item.List)
		case "link":
			err = decodeLinkTag(opt, item.List)
		case "communication":
			opt.CommunicationPos = tag.Pos()
			err = decodeSingleExprTag(item.List, &opt.Communication)
		case "performance":
			opt.PerformancePos = tag.Pos()
			err = decodePerformanceTag(opt, item.List)
		case "granularity":
			opt.GranularityPos = tag.Pos()
			err = decodeSingleExprTag(item.List, &opt.Granularity)
		case "friction":
			opt.FrictionPos = tag.Pos()
			err = decodeSingleExprTag(item.List, &opt.Friction)
		case "variable":
			err = decodeVariableTag(opt, item.List)
		default:
			err = decodeErrf(tag.Pos(), "unknown option tag %q", tag.Word)
		}
		if err != nil {
			return nil, err
		}
	}
	return opt, nil
}

func decodeNodeTag(opt *OptionSpec, items []Node) error {
	if len(items) < 3 {
		return decodeErrf(items[0].Pos(), "node tag expects: node <localName> <hostPattern> {tag value}...")
	}
	if items[1].IsList || items[2].IsList {
		return decodeErrf(items[0].Pos(), "node local name and host pattern must be words")
	}
	ns := NodeSpec{
		Pos:         items[0].Pos(),
		LocalName:   items[1].Word,
		HostPattern: items[2].Word,
		Tags:        make(map[string]TagValue),
	}
	for _, pair := range items[3:] {
		if !pair.IsList || len(pair.List) != 2 {
			return decodeErrf(pair.Pos(), "node attribute must be a {tag value} pair")
		}
		name := pair.List[0]
		if name.IsList {
			return decodeErrf(name.Pos(), "node attribute name must be a word")
		}
		val := pair.List[1]
		if name.Word == "replicate" {
			e, err := ExprFromNode(val)
			if err != nil {
				return decodeErrf(val.Pos(), "replicate: %v", err)
			}
			ns.Replicate = e
			ns.ReplicatePos = name.Pos()
			continue
		}
		tv, err := decodeTagValue(name.Word, val)
		if err != nil {
			return err
		}
		tv.Pos = name.Pos()
		if _, dup := ns.Tags[name.Word]; dup {
			return decodeErrf(name.Pos(), "duplicate node attribute %q", name.Word)
		}
		ns.Tags[name.Word] = tv
	}
	opt.Nodes = append(opt.Nodes, ns)
	return nil
}

// stringTags are tags whose values are strings, not expressions.
var stringTags = map[string]bool{"os": true, "hostname": true, "arch": true}

func decodeTagValue(tagName string, val Node) (TagValue, error) {
	if stringTags[tagName] {
		if val.IsList {
			return TagValue{}, decodeErrf(val.Pos(), "%s value must be a word", tagName)
		}
		return TagValue{IsString: true, Str: val.Word}, nil
	}
	op := OpExact
	src := nodeExprSource(val)
	trimmed := strings.TrimSpace(src)
	switch {
	case strings.HasPrefix(trimmed, ">="):
		op = OpMin
		trimmed = trimmed[2:]
	case strings.HasPrefix(trimmed, "<="):
		op = OpMax
		trimmed = trimmed[2:]
	}
	e, err := ParseExpr(trimmed)
	if err != nil {
		return TagValue{}, decodeErrf(val.Pos(), "tag %s: %v", tagName, err)
	}
	return TagValue{Op: op, Expr: e}, nil
}

func decodeLinkTag(opt *OptionSpec, items []Node) error {
	if len(items) < 4 || len(items) > 5 {
		return decodeErrf(items[0].Pos(), "link tag expects: link <a> <b> <bandwidth> [latency]")
	}
	if items[1].IsList || items[2].IsList {
		return decodeErrf(items[0].Pos(), "link endpoints must be words")
	}
	bw, err := ExprFromNode(items[3])
	if err != nil {
		return decodeErrf(items[3].Pos(), "link bandwidth: %v", err)
	}
	ls := LinkSpec{Pos: items[0].Pos(), A: items[1].Word, B: items[2].Word, Bandwidth: bw}
	if len(items) == 5 {
		lat, err := ExprFromNode(items[4])
		if err != nil {
			return decodeErrf(items[4].Pos(), "link latency: %v", err)
		}
		ls.Latency = lat
	}
	opt.Links = append(opt.Links, ls)
	return nil
}

func decodeSingleExprTag(items []Node, dst *Expr) error {
	if len(items) != 2 {
		return decodeErrf(items[0].Pos(), "%s tag expects exactly one value", items[0].Word)
	}
	e, err := ExprFromNode(items[1])
	if err != nil {
		return decodeErrf(items[1].Pos(), "%s: %v", items[0].Word, err)
	}
	*dst = e
	return nil
}

func decodePerformanceTag(opt *OptionSpec, items []Node) error {
	if len(items) != 2 || !items[1].IsList {
		return decodeErrf(items[0].Pos(), "performance tag expects a braced list of {nodes time} points")
	}
	var pts []PerfPoint
	for _, p := range items[1].List {
		if !p.IsList || len(p.List) != 2 {
			return decodeErrf(p.Pos(), "performance point must be {nodes time}")
		}
		x, err := wordFloat(p.List[0])
		if err != nil {
			return err
		}
		y, err := wordFloat(p.List[1])
		if err != nil {
			return err
		}
		pts = append(pts, PerfPoint{X: x, Y: y})
	}
	if len(pts) == 0 {
		return decodeErrf(items[1].Pos(), "performance model needs at least one point")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X {
			opt.PerformanceUnsorted = true
			break
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
	for i := 1; i < len(pts); i++ {
		if pts[i].X == pts[i-1].X {
			return decodeErrf(items[1].Pos(), "duplicate performance point x=%g", pts[i].X)
		}
	}
	opt.Performance = pts
	return nil
}

func decodeVariableTag(opt *OptionSpec, items []Node) error {
	if len(items) != 3 || items[1].IsList || !items[2].IsList {
		return decodeErrf(items[0].Pos(), "variable tag expects: variable <name> {v1 v2 ...}")
	}
	vs := VariableSpec{Pos: items[1].Pos(), Name: items[1].Word}
	for _, v := range items[2].List {
		f, err := wordFloat(v)
		if err != nil {
			return err
		}
		vs.Values = append(vs.Values, f)
	}
	if len(vs.Values) == 0 {
		return decodeErrf(items[2].Pos(), "variable %q has no values", vs.Name)
	}
	if opt.Variable(vs.Name) != nil {
		return decodeErrf(items[1].Pos(), "duplicate variable %q", vs.Name)
	}
	opt.Variables = append(opt.Variables, vs)
	return nil
}

// wordFloat reads a number word. NaN and the infinities are refused: no
// quantity a spec or a node declares may be one.
func wordFloat(n Node) (float64, error) {
	if n.IsList {
		return 0, decodeErrf(n.Pos(), "expected number, found list")
	}
	v, err := strconv.ParseFloat(n.Word, 64)
	if err != nil {
		return 0, decodeErrf(n.Pos(), "bad number %q", n.Word)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, decodeErrf(n.Pos(), "%q is not a finite number", n.Word)
	}
	return v, nil
}

// DecodeNodeCommand decodes a `harmonyNode` resource-availability command.
func DecodeNodeCommand(cmd Command) (*NodeDecl, error) {
	if len(cmd) < 2 {
		return nil, decodeErrf(cmdPos(cmd), "harmonyNode expects a hostname")
	}
	if cmd[0].IsList || cmd[0].Word != "harmonyNode" {
		return nil, decodeErrf(cmdPos(cmd), "not a harmonyNode command")
	}
	if cmd[1].IsList {
		return nil, decodeErrf(cmd[1].Pos(), "hostname must be a word")
	}
	nd := &NodeDecl{Pos: cmdPos(cmd), Hostname: cmd[1].Word, Speed: 1.0, CPUs: 1, Extra: make(map[string]float64)}
	for _, pair := range cmd[2:] {
		if !pair.IsList || len(pair.List) != 2 || pair.List[0].IsList {
			return nil, decodeErrf(pair.Pos(), "harmonyNode attribute must be a {tag value} pair")
		}
		name := pair.List[0].Word
		val := pair.List[1]
		switch name {
		case "os":
			if val.IsList {
				return nil, decodeErrf(val.Pos(), "os must be a word")
			}
			nd.OS = val.Word
		case "speed":
			f, err := wordFloat(val)
			if err != nil {
				return nil, err
			}
			if f <= 0 {
				return nil, decodeErrf(val.Pos(), "speed must be positive, got %g", f)
			}
			nd.Speed = f
		case "memory":
			f, err := wordFloat(val)
			if err != nil {
				return nil, err
			}
			nd.MemoryMB = f
		case "cpus":
			f, err := wordFloat(val)
			if err != nil {
				return nil, err
			}
			if f < 1 {
				return nil, decodeErrf(val.Pos(), "cpus must be >= 1, got %g", f)
			}
			nd.CPUs = int(f)
		default:
			f, err := wordFloat(val)
			if err != nil {
				return nil, err
			}
			nd.Extra[name] = f
		}
	}
	return nd, nil
}

// DecodeScript parses src and decodes every harmonyBundle and harmonyNode
// command, ignoring none: unknown commands are an error, and the first
// command that does not decode is the script's error.
func DecodeScript(src string) ([]*BundleSpec, []*NodeDecl, error) {
	cmds, err := ParseScript(src)
	if err != nil {
		return nil, nil, err
	}
	bundles, decls, errs := DecodeCommands(cmds)
	if len(errs) > 0 {
		return nil, nil, errs[0]
	}
	return bundles, decls, nil
}

// DecodeCommands decodes parsed commands, keeping every bundle and node
// declaration that decodes and, in order, the error of each command that
// does not.
func DecodeCommands(cmds []Command) (bundles []*BundleSpec, decls []*NodeDecl, errs []error) {
	for _, cmd := range cmds {
		if len(cmd) == 0 || cmd[0].IsList {
			errs = append(errs, decodeErrf(cmdPos(cmd), "command must start with a word"))
			continue
		}
		switch cmd[0].Word {
		case "harmonyBundle":
			b, err := DecodeBundleCommand(cmd)
			if err != nil {
				errs = append(errs, err)
				continue
			}
			bundles = append(bundles, b)
		case "harmonyNode":
			n, err := DecodeNodeCommand(cmd)
			if err != nil {
				errs = append(errs, err)
				continue
			}
			decls = append(decls, n)
		default:
			errs = append(errs, decodeErrf(cmdPos(cmd), "unknown command %q", cmd[0].Word))
		}
	}
	return bundles, decls, errs
}
