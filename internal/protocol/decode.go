package protocol

import (
	"encoding/json"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit, the top-level object counted:
// a line that nests deeper is malformed there, so it is here.
const maxDepth = 10000

// shareLimit bounds the lines whose strings share one copy of the line. A
// string of a longer line gets a copy of its own, so that a short field
// kept for long (a leader's address) does not pin a megabyte of entries.
const shareLimit = 64 << 10

// decoder reads one line into a Message in a single pass, without
// reflection, to the same result as json.Unmarshal into a zero Message: it
// fails exactly where json.Unmarshal fails (bad syntax, a value of the wrong
// kind, a number out of range, nesting past maxDepth), and where that
// succeeds it yields the same message, down to its quirks — keys match
// fields case-insensitively under Unicode simple folding, a repeated key
// decodes again into what the first one left, null leaves a scalar or a
// struct alone and clears a map, slice or pointer, and a string's invalid
// UTF-8 and lone surrogates become U+FFFD. The replication-only values are
// validated in place and handed to json.Unmarshal.
type decoder struct {
	data  []byte
	pos   int
	depth int
	// line is data as a string, made on first use: a string without
	// escapes is a substring of it.
	line    string
	scratch []byte // an escaped string, unquoted
	folded  [32]byte
	err     error
}

// decode parses line; the Message is valid only when err is nil.
func (d *decoder) decode(line []byte) (*Message, error) {
	d.data, d.pos, d.depth, d.line, d.err = line, 0, 0, "", nil
	if cap(d.scratch) > keepBuffer {
		d.scratch = nil
	}
	m := new(Message)
	d.ws()
	d.message(m)
	d.ws()
	if d.pos < len(d.data) {
		d.fail("after top-level value")
	}
	return m, d.err
}

// fail records the first error and moves to the end of the line, so every
// read after it finds nothing and stops.
func (d *decoder) fail(what string) {
	if d.err == nil {
		if d.pos < len(d.data) {
			d.err = fmt.Errorf("invalid character %q at offset %d: %s", d.data[d.pos], d.pos, what)
		} else {
			d.err = fmt.Errorf("unexpected end of input: %s", what)
		}
	}
	d.pos = len(d.data)
}

// peek returns the next byte, 0 at the end.
func (d *decoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *decoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// open consumes a container's opening bracket and reports whether an
// element follows; an empty container is consumed whole.
func (d *decoder) open(end byte) bool {
	d.pos++
	if d.depth++; d.depth > maxDepth {
		d.fail("exceeded max depth")
		return false
	}
	d.ws()
	if d.peek() == end {
		d.pos++
		d.depth--
		return false
	}
	return true
}

// next consumes what follows an element: a comma, reporting that another
// element follows, or the closing bracket.
func (d *decoder) next(end byte) bool {
	d.ws()
	switch d.peek() {
	case ',':
		d.pos++
		d.ws()
		return true
	case end:
		d.pos++
		d.depth--
	default:
		d.fail("after element")
	}
	return false
}

// lit consumes the literal s.
func (d *decoder) lit(s string) {
	if len(d.data)-d.pos >= len(s) && string(d.data[d.pos:d.pos+len(s)]) == s {
		d.pos += len(s)
		return
	}
	d.fail("in literal")
}

// null consumes a null and reports whether there was one.
func (d *decoder) null() bool {
	if d.peek() != 'n' {
		return false
	}
	d.lit("null")
	return true
}

// object reports whether an object starts here; null is consumed, and any
// other value fails as the wrong kind.
func (d *decoder) object() bool {
	switch d.peek() {
	case '{':
		return true
	case 'n':
		d.null()
	default:
		d.fail("not an object")
	}
	return false
}

// name reads an object key and its colon and returns the key folded as
// encoding/json matches field names: ASCII letters upper-cased, every other
// rune the smallest of its simple-fold orbit (ſ is S, the Kelvin sign K). A
// key folds to a field's name exactly when json.Unmarshal would put its
// value in that field.
func (d *decoder) name() []byte {
	key, _ := d.quoted()
	d.colon()
	folded := d.folded[:0]
	if len(key) > len(d.folded) {
		return nil // longer than any field's name
	}
	for i, c := range key {
		if c >= utf8.RuneSelf {
			return d.foldUnicode(key)
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		d.folded[i] = c
	}
	return folded[:len(key)]
}

// foldUnicode is name's folding for a key that is not all ASCII.
func (d *decoder) foldUnicode(key []byte) []byte {
	folded := d.folded[:0]
	for i := 0; i < len(key); {
		if len(folded)+utf8.UTFMax > len(d.folded) {
			return nil // longer than any field's name
		}
		if c := key[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			folded = append(folded, c)
			i++
		} else {
			r, n := utf8.DecodeRune(key[i:])
			folded = utf8.AppendRune(folded, foldRune(r))
			i += n
		}
	}
	return folded
}

func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

func (d *decoder) colon() {
	d.ws()
	if d.peek() != ':' {
		d.fail("after object key")
		return
	}
	d.pos++
	d.ws()
}

func (d *decoder) message(m *Message) {
	if !d.object() {
		return
	}
	for more := d.open('}'); more; more = d.next('}') {
		switch string(d.name()) {
		case "TYPE":
			d.string((*string)(&m.Type))
		case "SEQ":
			d.uint(&m.Seq)
		case "APPID":
			d.string(&m.AppID)
		case "USEINTERRUPTS":
			d.bool(&m.UseInterrupts)
		case "RSL":
			d.string(&m.RSL)
		case "NAME":
			d.string(&m.Name)
		case "VALUE":
			d.varValue(&m.Value)
		case "INSTANCE":
			d.int(&m.Instance)
		case "VARS":
			d.vars(&m.Vars)
		case "APPS":
			slice(d, &m.Apps, (*decoder).appStatus)
		case "OBJECTIVE":
			d.float(&m.Objective)
		case "ERROR":
			d.string(&m.Error)
		case "RESUMETOKEN":
			d.string(&m.ResumeToken)
		case "INSTANCES":
			slice(d, &m.Instances, (*decoder).int)
		case "HOSTNAME":
			d.string(&m.Hostname)
		case "STATE":
			d.string(&m.State)
		case "TERM":
			d.uint(&m.Term)
		case "FROM":
			d.string(&m.From)
		case "LEADER":
			d.string(&m.Leader)
		case "PREVINDEX":
			d.uint(&m.PrevIndex)
		case "PREVTERM":
			d.uint(&m.PrevTerm)
		case "LASTINDEX":
			d.uint(&m.LastIndex)
		case "LASTTERM":
			d.uint(&m.LastTerm)
		case "COMMITINDEX":
			d.uint(&m.CommitIndex)
		case "ENTRIES":
			d.json(&m.Entries)
		case "GRANTED":
			d.bool(&m.Granted)
		case "SUCCESS":
			d.bool(&m.Success)
		case "MATCHINDEX":
			d.uint(&m.MatchIndex)
		case "SNAPSHOT":
			d.json(&m.Snapshot)
		case "REPLICA":
			d.json(&m.Replica)
		default:
			d.skip()
		}
	}
}

func (d *decoder) varValue(v *VarValue) {
	if !d.object() {
		return
	}
	for more := d.open('}'); more; more = d.next('}') {
		switch string(d.name()) {
		case "NUM":
			d.float(&v.Num)
		case "STR":
			d.string(&v.Str)
		case "ISSTRING":
			d.bool(&v.IsString)
		default:
			d.skip()
		}
	}
}

func (d *decoder) appStatus(a *AppStatus) {
	if !d.object() {
		return
	}
	for more := d.open('}'); more; more = d.next('}') {
		switch string(d.name()) {
		case "INSTANCE":
			d.int(&a.Instance)
		case "APP":
			d.string(&a.App)
		case "BUNDLE":
			d.string(&a.Bundle)
		case "OPTION":
			d.string(&a.Option)
		case "HOSTS":
			slice(d, &a.Hosts, (*decoder).string)
		case "PREDICTEDSECONDS":
			d.float(&a.PredictedSeconds)
		case "SWITCHES":
			d.int(&a.Switches)
		default:
			d.skip()
		}
	}
}

// vars decodes into the map *p holds, making one if it is nil; each
// element starts from the zero VarValue.
func (d *decoder) vars(p *map[string]VarValue) {
	if d.null() {
		*p = nil
		return
	}
	if !d.object() {
		return
	}
	if *p == nil {
		*p = make(map[string]VarValue)
	}
	for more := d.open('}'); more; more = d.next('}') {
		k := d.stringValue()
		d.colon()
		var v VarValue
		d.varValue(&v)
		(*p)[k] = v
	}
}

// slice decodes an array as encoding/json does into the slice *p holds: an
// element within its capacity is decoded into where it lies, whatever an
// earlier value left there; the length becomes the array's; an empty array
// is an empty, non-nil slice, and null a nil one.
func slice[T any](d *decoder, p *[]T, elem func(*decoder, *T)) {
	switch d.peek() {
	case '[':
	case 'n':
		d.null()
		*p = nil
		return
	default:
		d.fail("not an array")
		return
	}
	s, i := *p, 0
	for more := d.open(']'); more; more = d.next(']') {
		switch {
		case i < len(s):
		case i < cap(s):
			s = s[:i+1]
		case i == 0:
			s = make([]T, 1, 4)
		default:
			s = append(s, *new(T))
		}
		elem(d, &s[i])
		i++
	}
	if i == 0 {
		s = []T{}
	}
	*p = s[:i]
}

func (d *decoder) string(p *string) {
	switch d.peek() {
	case '"':
		*p = d.stringValue()
	case 'n':
		d.null()
	default:
		d.fail("not a string")
	}
}

func (d *decoder) bool(p *bool) {
	switch d.peek() {
	case 't':
		d.lit("true")
		*p = true
	case 'f':
		d.lit("false")
		*p = false
	case 'n':
		d.null()
	default:
		d.fail("not a boolean")
	}
}

// The numbers are parsed by the strconv calls json.Unmarshal makes, so a
// value out of range, or with a fraction or an exponent where an integer
// belongs, fails alike.

func (d *decoder) uint(p *uint64) {
	if d.null() {
		return
	}
	if n, err := strconv.ParseUint(string(d.number()), 10, 64); err == nil {
		*p = n
	} else {
		d.fail("not an unsigned integer")
	}
}

func (d *decoder) int(p *int) {
	if d.null() {
		return
	}
	if n, err := strconv.Atoi(string(d.number())); err == nil {
		*p = n
	} else {
		d.fail("not an integer")
	}
}

func (d *decoder) float(p *float64) {
	if d.null() {
		return
	}
	if f, err := strconv.ParseFloat(string(d.number()), 64); err == nil {
		*p = f
	} else {
		d.fail("not a number in range")
	}
}

// number consumes a number, which must follow JSON's grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *decoder) number() []byte {
	start := d.pos
	if d.peek() == '-' {
		d.pos++
	}
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		d.fail("not a number")
		return nil
	}
	if d.peek() == '.' {
		d.pos++
		if !d.digits() {
			d.fail("in number")
			return nil
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if !d.digits() {
			d.fail("in number")
			return nil
		}
	}
	return d.data[start:d.pos]
}

// digits consumes a run of digits and reports whether there was one.
func (d *decoder) digits() bool {
	start := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos > start
}

// json hands a replication value, validated here with its depth, to
// json.Unmarshal, which decodes into *p as it would in place.
func (d *decoder) json(p any) {
	start := d.pos
	d.skip()
	if d.err != nil {
		return
	}
	if err := json.Unmarshal(d.data[start:d.pos], p); err != nil {
		d.err, d.pos = err, len(d.data)
	}
}

// skip consumes any value, validating it.
func (d *decoder) skip() {
	switch c := d.peek(); c {
	case '{':
		for more := d.open('}'); more; more = d.next('}') {
			d.quoted()
			d.colon()
			d.skip()
		}
	case '[':
		for more := d.open(']'); more; more = d.next(']') {
			d.skip()
		}
	case '"':
		d.quoted()
	case 't':
		d.lit("true")
	case 'f':
		d.lit("false")
	case 'n':
		d.lit("null")
	default:
		d.number()
	}
}

// stringValue consumes a string and returns its value.
func (d *decoder) stringValue() string {
	start := d.pos + 1
	s, plain := d.quoted()
	if !plain || len(d.data) > shareLimit {
		return string(s)
	}
	if d.line == "" {
		d.line = string(d.data)
	}
	return d.line[start : start+len(s)]
}

// safeBytes marks the bytes a string carries as they are: printable ASCII
// but the quote and the backslash.
var safeBytes = func() (safe [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\'
	}
	return safe
}()

// quoted consumes a string and returns its value: the bytes between the
// quotes when they need no unquoting (plain), else d.scratch unquoted as
// encoding/json unquotes.
func (d *decoder) quoted() (value []byte, plain bool) {
	if d.peek() != '"' {
		d.fail("not a string")
		return nil, false
	}
	data := d.data
	start := d.pos + 1
	i, plain := start, true
	for {
		for i < len(data) && safeBytes[data[i]] {
			i++
		}
		if i >= len(d.data) {
			d.fail("in string")
			return nil, false
		}
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			if plain {
				return d.data[start:i], true
			}
			d.scratch = unquote(d.scratch[:0], d.data[start:i])
			return d.scratch, false
		case c == '\\':
			plain = false
			i++
			switch c := d.peekAt(i); c {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				if _, ok := hex4(d.data[i+1:]); !ok {
					d.pos = i
					d.fail("in string escape code")
					return nil, false
				}
				i += 5
			default:
				d.pos = i
				d.fail("in string escape code")
				return nil, false
			}
		case c < ' ':
			d.pos = i
			d.fail("in string literal")
			return nil, false
		default:
			r, n := utf8.DecodeRune(d.data[i:])
			if r == utf8.RuneError && n == 1 {
				plain = false
			}
			i += n
		}
	}
}

func (d *decoder) peekAt(i int) byte {
	if i < len(d.data) {
		return d.data[i]
	}
	return 0
}

// hex4 parses the four hex digits of a \u escape.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// unquote appends the value of the validated string body s to dst: escapes
// resolved, a surrogate pair joined, a lone surrogate and each byte of
// invalid UTF-8 replaced by U+FFFD.
func unquote(dst, s []byte) []byte {
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c == '\\':
			i++
			switch s[i] {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r, _ := hex4(s[i+1:])
				i += 4
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+6 < len(s) && s[i+1] == '\\' && s[i+2] == 'u' {
						r2, _ = hex4(s[i+3:])
					}
					if pair := utf16.DecodeRune(r, r2); pair != unicode.ReplacementChar {
						r = pair
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				dst = utf8.AppendRune(dst, r)
			default: // '"', '\\', '/'
				dst = append(dst, s[i])
			}
			i++
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, n := utf8.DecodeRune(s[i:])
			dst = utf8.AppendRune(dst, r)
			i += n
		}
	}
	return dst
}
