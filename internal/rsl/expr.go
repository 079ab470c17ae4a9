package rsl

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
)

// Expr is an arithmetic/logical expression appearing as an RSL tag value,
// e.g. the data-shipping link bandwidth in Figure 3 of the paper:
//
//	44 + (client.memory > 24 ? 24 : client.memory) - 17
//
// Expressions may reference namespace variables (dotted identifiers such as
// client.memory or workerNodes) resolved at evaluation time through an Env.
type Expr interface {
	// Eval computes the expression's value under env.
	Eval(env Env) (float64, error)
	// Vars appends the free variable names referenced by the expression.
	Vars(dst []string) []string
	// String renders the expression in RSL syntax.
	String() string
}

// Env resolves free variables during expression evaluation.
type Env interface {
	// Lookup returns the value bound to name, and whether it is bound.
	Lookup(name string) (float64, bool)
}

// MapEnv is an Env backed by a map. A nil MapEnv resolves nothing.
type MapEnv map[string]float64

// Lookup implements Env.
func (m MapEnv) Lookup(name string) (float64, bool) {
	v, ok := m[name]
	return v, ok
}

// ChainEnv resolves through each Env in order, first binding wins.
type ChainEnv []Env

// Lookup implements Env.
func (c ChainEnv) Lookup(name string) (float64, bool) {
	for _, e := range c {
		if e == nil {
			continue
		}
		if v, ok := e.Lookup(name); ok {
			return v, true
		}
	}
	return 0, false
}

// UnboundVarError reports a free variable with no binding in the Env.
type UnboundVarError struct {
	Name string
}

func (e *UnboundVarError) Error() string {
	return fmt.Sprintf("rsl: unbound variable %q", e.Name)
}

// ErrNonFinite is wrapped by the error of an evaluation whose value is NaN or
// an infinity, such as an overflowing {10 ^ 400}.
var ErrNonFinite = errors.New("not a finite number")

// finite is what an operator that can overflow returns: its value v, or an
// error when v is NaN or an infinity. No other operator makes one from the
// finite numbers literals and bindings hold.
func finite(e Expr, v float64) (float64, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("rsl: %s is %g, %w", e, v, ErrNonFinite)
	}
	return v, nil
}

// NumberExpr is a literal constant.
type NumberExpr struct {
	Value float64
}

// Eval implements Expr.
func (e *NumberExpr) Eval(Env) (float64, error) { return e.Value, nil }

// Vars implements Expr.
func (e *NumberExpr) Vars(dst []string) []string { return dst }

func (e *NumberExpr) String() string {
	return strconv.FormatFloat(e.Value, 'g', -1, 64)
}

// VarExpr references a (possibly dotted) namespace variable.
type VarExpr struct {
	Name string
}

// Eval implements Expr.
func (e *VarExpr) Eval(env Env) (float64, error) {
	if env != nil {
		if v, ok := env.Lookup(e.Name); ok {
			return v, nil
		}
	}
	return 0, &UnboundVarError{Name: e.Name}
}

// Vars implements Expr.
func (e *VarExpr) Vars(dst []string) []string { return append(dst, e.Name) }

func (e *VarExpr) String() string { return e.Name }

// UnaryExpr applies a prefix operator ("-" or "!").
type UnaryExpr struct {
	Op string
	X  Expr
}

// Eval implements Expr.
func (e *UnaryExpr) Eval(env Env) (float64, error) {
	x, err := e.X.Eval(env)
	if err != nil {
		return 0, err
	}
	switch e.Op {
	case "-":
		return -x, nil
	case "!":
		if x == 0 {
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("rsl: unknown unary operator %q", e.Op)
}

// Vars implements Expr.
func (e *UnaryExpr) Vars(dst []string) []string { return e.X.Vars(dst) }

func (e *UnaryExpr) String() string { return e.Op + e.X.String() }

// BinaryExpr applies an infix operator.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

// Eval implements Expr.
func (e *BinaryExpr) Eval(env Env) (float64, error) {
	l, err := e.L.Eval(env)
	if err != nil {
		return 0, err
	}
	// Short-circuit logical operators.
	switch e.Op {
	case "&&":
		if l == 0 {
			return 0, nil
		}
		r, err := e.R.Eval(env)
		if err != nil {
			return 0, err
		}
		return boolVal(r != 0), nil
	case "||":
		if l != 0 {
			return 1, nil
		}
		r, err := e.R.Eval(env)
		if err != nil {
			return 0, err
		}
		return boolVal(r != 0), nil
	}
	r, err := e.R.Eval(env)
	if err != nil {
		return 0, err
	}
	switch e.Op {
	case "+":
		return finite(e, l+r)
	case "-":
		return finite(e, l-r)
	case "*":
		return finite(e, l*r)
	case "/":
		if r == 0 {
			return 0, fmt.Errorf("rsl: division by zero in %s", e.String())
		}
		return finite(e, l/r)
	case "%":
		if r == 0 {
			return 0, fmt.Errorf("rsl: modulo by zero in %s", e.String())
		}
		return math.Mod(l, r), nil
	case "^":
		return finite(e, math.Pow(l, r))
	case "<":
		return boolVal(l < r), nil
	case "<=":
		return boolVal(l <= r), nil
	case ">":
		return boolVal(l > r), nil
	case ">=":
		return boolVal(l >= r), nil
	case "==":
		return boolVal(l == r), nil
	case "!=":
		return boolVal(l != r), nil
	}
	return 0, fmt.Errorf("rsl: unknown operator %q", e.Op)
}

// Vars implements Expr.
func (e *BinaryExpr) Vars(dst []string) []string { return e.R.Vars(e.L.Vars(dst)) }

func (e *BinaryExpr) String() string {
	return "(" + e.L.String() + " " + e.Op + " " + e.R.String() + ")"
}

// CondExpr is the ternary conditional cond ? then : else.
type CondExpr struct {
	Cond, Then, Else Expr
}

// Eval implements Expr.
func (e *CondExpr) Eval(env Env) (float64, error) {
	c, err := e.Cond.Eval(env)
	if err != nil {
		return 0, err
	}
	if c != 0 {
		return e.Then.Eval(env)
	}
	return e.Else.Eval(env)
}

// Vars implements Expr.
func (e *CondExpr) Vars(dst []string) []string {
	return e.Else.Vars(e.Then.Vars(e.Cond.Vars(dst)))
}

func (e *CondExpr) String() string {
	return "(" + e.Cond.String() + " ? " + e.Then.String() + " : " + e.Else.String() + ")"
}

// CallExpr invokes one of the built-in functions: min, max, abs, floor,
// ceil, sqrt, pow, log2.
type CallExpr struct {
	Fn   string
	Args []Expr
}

// Eval implements Expr.
func (e *CallExpr) Eval(env Env) (float64, error) {
	args := make([]float64, len(e.Args))
	for i, a := range e.Args {
		v, err := a.Eval(env)
		if err != nil {
			return 0, err
		}
		args[i] = v
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("rsl: %s expects %d args, got %d", e.Fn, n, len(args))
		}
		return nil
	}
	switch e.Fn {
	case "min":
		if len(args) == 0 {
			return 0, fmt.Errorf("rsl: min expects at least 1 arg")
		}
		v := args[0]
		for _, a := range args[1:] {
			v = math.Min(v, a)
		}
		return v, nil
	case "max":
		if len(args) == 0 {
			return 0, fmt.Errorf("rsl: max expects at least 1 arg")
		}
		v := args[0]
		for _, a := range args[1:] {
			v = math.Max(v, a)
		}
		return v, nil
	case "abs":
		if err := need(1); err != nil {
			return 0, err
		}
		return math.Abs(args[0]), nil
	case "floor":
		if err := need(1); err != nil {
			return 0, err
		}
		return math.Floor(args[0]), nil
	case "ceil":
		if err := need(1); err != nil {
			return 0, err
		}
		return math.Ceil(args[0]), nil
	case "sqrt":
		if err := need(1); err != nil {
			return 0, err
		}
		if args[0] < 0 {
			return 0, fmt.Errorf("rsl: sqrt of negative value %g", args[0])
		}
		return math.Sqrt(args[0]), nil
	case "pow":
		if err := need(2); err != nil {
			return 0, err
		}
		return finite(e, math.Pow(args[0], args[1]))
	case "log2":
		if err := need(1); err != nil {
			return 0, err
		}
		if args[0] <= 0 {
			return 0, fmt.Errorf("rsl: log2 of non-positive value %g", args[0])
		}
		return math.Log2(args[0]), nil
	}
	return 0, fmt.Errorf("rsl: unknown function %q", e.Fn)
}

// Vars implements Expr.
func (e *CallExpr) Vars(dst []string) []string {
	for _, a := range e.Args {
		dst = a.Vars(dst)
	}
	return dst
}

func (e *CallExpr) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Fn + "(" + strings.Join(parts, ", ") + ")"
}

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Walk visits e and every subexpression in prefix order. Static analyses
// (package vet) use it to inspect expression trees without reimplementing
// the traversal.
func Walk(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch n := e.(type) {
	case *UnaryExpr:
		Walk(n.X, fn)
	case *BinaryExpr:
		Walk(n.L, fn)
		Walk(n.R, fn)
	case *CondExpr:
		Walk(n.Cond, fn)
		Walk(n.Then, fn)
		Walk(n.Else, fn)
	case *CallExpr:
		for _, a := range n.Args {
			Walk(a, fn)
		}
	}
}

// --- expression tokenizer + parser (precedence climbing) ---

type exprToken struct {
	kind exprTokenKind
	text string
	num  float64
}

type exprTokenKind int

const (
	tokNumber exprTokenKind = iota + 1
	tokIdent
	tokOp
	tokLParen
	tokRParen
	tokComma
	tokQuestion
	tokColon
	tokEOF
)

type exprLexer struct {
	src  []rune
	pos  int
	toks []exprToken
}

func lexExpr(src string) ([]exprToken, error) {
	l := &exprLexer{src: []rune(src)}
	for l.pos < len(l.src) {
		ch := l.src[l.pos]
		switch {
		case ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r':
			l.pos++
		case unicode.IsDigit(ch) || (ch == '.' && l.pos+1 < len(l.src) && unicode.IsDigit(l.src[l.pos+1])):
			if err := l.lexNumber(); err != nil {
				return nil, err
			}
		case unicode.IsLetter(ch) || ch == '_':
			l.lexIdent()
		case ch == '(':
			l.emit(tokLParen, "(")
		case ch == ')':
			l.emit(tokRParen, ")")
		case ch == ',':
			l.emit(tokComma, ",")
		case ch == '?':
			l.emit(tokQuestion, "?")
		case ch == ':':
			l.emit(tokColon, ":")
		case strings.ContainsRune("+-*/%^", ch):
			l.emit(tokOp, string(ch))
		case ch == '<' || ch == '>' || ch == '=' || ch == '!':
			op := string(ch)
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
				op += "="
				l.pos++
			}
			if op == "=" {
				return nil, fmt.Errorf("rsl: unexpected '=' (use '==')")
			}
			l.emit(tokOp, op)
		case ch == '&' || ch == '|':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == ch {
				l.emit(tokOp, string(ch)+string(ch))
				l.pos++ // emit advanced once; consume the second rune
			} else {
				return nil, fmt.Errorf("rsl: unexpected %q", string(ch))
			}
		default:
			return nil, fmt.Errorf("rsl: unexpected character %q in expression", string(ch))
		}
	}
	l.toks = append(l.toks, exprToken{kind: tokEOF})
	return l.toks, nil
}

func (l *exprLexer) emit(kind exprTokenKind, text string) {
	l.toks = append(l.toks, exprToken{kind: kind, text: text})
	l.pos++
}

func (l *exprLexer) lexNumber() error {
	start := l.pos
	seenDot := false
	for l.pos < len(l.src) {
		ch := l.src[l.pos]
		if unicode.IsDigit(ch) {
			l.pos++
			continue
		}
		if ch == '.' && !seenDot {
			// A dot followed by a letter means a dotted identifier-ish
			// mistake like 3.x; reject later via ParseFloat.
			seenDot = true
			l.pos++
			continue
		}
		if ch == 'e' || ch == 'E' {
			// scientific notation with optional sign
			if l.pos+1 < len(l.src) && (unicode.IsDigit(l.src[l.pos+1]) || l.src[l.pos+1] == '+' || l.src[l.pos+1] == '-') {
				l.pos += 2
				continue
			}
		}
		break
	}
	text := string(l.src[start:l.pos])
	v, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return fmt.Errorf("rsl: bad number %q: %w", text, err)
	}
	l.toks = append(l.toks, exprToken{kind: tokNumber, text: text, num: v})
	return nil
}

func (l *exprLexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) {
		ch := l.src[l.pos]
		if unicode.IsLetter(ch) || unicode.IsDigit(ch) || ch == '_' || ch == '.' {
			l.pos++
			continue
		}
		break
	}
	l.toks = append(l.toks, exprToken{kind: tokIdent, text: string(l.src[start:l.pos])})
}

type exprParser struct {
	toks []exprToken
	pos  int
}

// ParseExpr parses an RSL expression string into an Expr tree.
func ParseExpr(src string) (Expr, error) {
	toks, err := lexExpr(src)
	if err != nil {
		return nil, err
	}
	p := &exprParser{toks: toks}
	e, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("rsl: trailing tokens after expression at %q", p.peek().text)
	}
	return e, nil
}

// MustParseExpr is ParseExpr for statically known-good expressions; it
// panics on error and is intended for package-level defaults and tests.
func MustParseExpr(src string) Expr {
	e, err := ParseExpr(src)
	if err != nil {
		panic(err)
	}
	return e
}

func (p *exprParser) peek() exprToken { return p.toks[p.pos] }

func (p *exprParser) advance() exprToken {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *exprParser) expect(kind exprTokenKind, what string) error {
	if p.peek().kind != kind {
		return fmt.Errorf("rsl: expected %s, found %q", what, p.peek().text)
	}
	p.advance()
	return nil
}

func (p *exprParser) parseTernary() (Expr, error) {
	cond, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokQuestion {
		return cond, nil
	}
	p.advance()
	thenE, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokColon, "':'"); err != nil {
		return nil, err
	}
	elseE, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	return &CondExpr{Cond: cond, Then: thenE, Else: elseE}, nil
}

// binding powers, loosest first
var exprPrecedence = map[string]int{
	"||": 1,
	"&&": 2,
	"==": 3, "!=": 3,
	"<": 4, "<=": 4, ">": 4, ">=": 4,
	"+": 5, "-": 5,
	"*": 6, "/": 6, "%": 6,
	"^": 7,
}

func (p *exprParser) parseBinary(minPrec int) (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokOp {
			return left, nil
		}
		prec, ok := exprPrecedence[t.text]
		if !ok || prec < minPrec {
			return left, nil
		}
		p.advance()
		// ^ is right-associative, everything else left.
		nextMin := prec + 1
		if t.text == "^" {
			nextMin = prec
		}
		right, err := p.parseBinary(nextMin)
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: t.text, L: left, R: right}
	}
}

func (p *exprParser) parseUnary() (Expr, error) {
	t := p.peek()
	if t.kind == tokOp && (t.text == "-" || t.text == "!") {
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: t.text, X: x}, nil
	}
	return p.parsePrimary()
}

func (p *exprParser) parsePrimary() (Expr, error) {
	t := p.advance()
	switch t.kind {
	case tokNumber:
		return &NumberExpr{Value: t.num}, nil
	case tokIdent:
		if p.peek().kind == tokLParen {
			p.advance()
			var args []Expr
			if p.peek().kind != tokRParen {
				for {
					a, err := p.parseTernary()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.peek().kind != tokComma {
						break
					}
					p.advance()
				}
			}
			if err := p.expect(tokRParen, "')'"); err != nil {
				return nil, err
			}
			return &CallExpr{Fn: t.text, Args: args}, nil
		}
		return &VarExpr{Name: t.text}, nil
	case tokLParen:
		e, err := p.parseTernary()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	case tokEOF:
		return nil, fmt.Errorf("rsl: unexpected end of expression")
	}
	return nil, fmt.Errorf("rsl: unexpected token %q in expression", t.text)
}

// nodeExprSource renders a parsed RSL node (word or braced group) back into
// an expression source string for the expression parser. A braced group
// {44 + x} parses as nodes ["44","+","x"] which we rejoin with spaces.
func nodeExprSource(n Node) string {
	if n.IsWord() {
		return n.Word
	}
	parts := make([]string, len(n.List))
	for i, c := range n.List {
		parts[i] = nodeExprSource(c)
	}
	return strings.Join(parts, " ")
}

// ExprFromNode parses the expression contained in an RSL node: either a bare
// word ("42", "workerNodes") or a braced group ({44 + client.memory - 17}).
func ExprFromNode(n Node) (Expr, error) {
	return ParseExpr(nodeExprSource(n))
}
