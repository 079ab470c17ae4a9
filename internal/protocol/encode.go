package protocol

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// encoder appends a Message's JSON encoding to b: byte for byte what
// json.Marshal writes for it (fields in declaration order, omitempty as the
// tags say, map keys sorted, strings HTML-escaped), without reflection. The
// replication-only values — entries, snapshot, replica — are replog's own
// types and keep json.Marshal's encoding, on disk and on the wire.
type encoder struct {
	b    []byte
	keys []string // a Vars map's keys, sorted
	err  error
}

func (e *encoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *encoder) message(m *Message) {
	e.b = append(e.b, `{"type":`...)
	e.string(string(m.Type))
	e.optUint("seq", m.Seq)
	e.optString("appId", m.AppID)
	e.optBool("useInterrupts", m.UseInterrupts)
	e.optString("rsl", m.RSL)
	e.optString("name", m.Name)
	// omitempty never drops a struct: every message carries its value.
	e.field("value")
	e.varValue(m.Value)
	if m.Instance != 0 {
		e.field("instance")
		e.b = strconv.AppendInt(e.b, int64(m.Instance), 10)
	}
	if len(m.Vars) != 0 {
		e.field("vars")
		e.vars(m.Vars)
	}
	if len(m.Apps) != 0 {
		e.field("apps")
		e.b = append(e.b, '[')
		for i := range m.Apps {
			e.comma(i)
			e.appStatus(&m.Apps[i])
		}
		e.b = append(e.b, ']')
	}
	if m.Objective != 0 {
		e.field("objective")
		e.float(m.Objective)
	}
	e.optString("error", m.Error)
	e.optString("resumeToken", m.ResumeToken)
	if len(m.Instances) != 0 {
		e.field("instances")
		e.b = append(e.b, '[')
		for i, id := range m.Instances {
			e.comma(i)
			e.b = strconv.AppendInt(e.b, int64(id), 10)
		}
		e.b = append(e.b, ']')
	}
	e.optString("hostname", m.Hostname)
	e.optString("state", m.State)
	e.optUint("term", m.Term)
	e.optString("from", m.From)
	e.optString("leader", m.Leader)
	e.optUint("prevIndex", m.PrevIndex)
	e.optUint("prevTerm", m.PrevTerm)
	e.optUint("lastIndex", m.LastIndex)
	e.optUint("lastTerm", m.LastTerm)
	e.optUint("commitIndex", m.CommitIndex)
	if len(m.Entries) != 0 {
		e.field("entries")
		e.json(m.Entries)
	}
	e.optBool("granted", m.Granted)
	e.optBool("success", m.Success)
	e.optUint("matchIndex", m.MatchIndex)
	if m.Snapshot != nil {
		e.field("snapshot")
		e.json(m.Snapshot)
	}
	if m.Replica != nil {
		e.field("replica")
		e.json(m.Replica)
	}
	e.b = append(e.b, '}')
}

// comma separates element i from the one before it.
func (e *encoder) comma(i int) {
	if i > 0 {
		e.b = append(e.b, ',')
	}
}

// field starts a member that follows another one.
func (e *encoder) field(name string) {
	e.b = append(e.b, ',', '"')
	e.b = append(e.b, name...)
	e.b = append(e.b, '"', ':')
}

func (e *encoder) optString(name, s string) {
	if s != "" {
		e.field(name)
		e.string(s)
	}
}

func (e *encoder) optUint(name string, v uint64) {
	if v != 0 {
		e.field(name)
		e.b = strconv.AppendUint(e.b, v, 10)
	}
}

func (e *encoder) optBool(name string, v bool) {
	if v {
		e.field(name)
		e.b = append(e.b, "true"...)
	}
}

// varValue writes every member with a leading comma, then turns the first
// one into the opening brace.
func (e *encoder) varValue(v VarValue) {
	start := len(e.b)
	if v.Num != 0 {
		e.field("num")
		e.float(v.Num)
	}
	e.optString("str", v.Str)
	e.optBool("isString", v.IsString)
	if len(e.b) == start {
		e.b = append(e.b, '{')
	} else {
		e.b[start] = '{'
	}
	e.b = append(e.b, '}')
}

func (e *encoder) vars(m map[string]VarValue) {
	keys := e.keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e.b = append(e.b, '{')
	for i, k := range keys {
		e.comma(i)
		e.string(k)
		e.b = append(e.b, ':')
		e.varValue(m[k])
	}
	e.b = append(e.b, '}')
	clear(keys)
	e.keys = keys[:0]
}

func (e *encoder) appStatus(a *AppStatus) {
	e.b = append(e.b, `{"instance":`...)
	e.b = strconv.AppendInt(e.b, int64(a.Instance), 10)
	e.field("app")
	e.string(a.App)
	e.field("bundle")
	e.string(a.Bundle)
	e.field("option")
	e.string(a.Option)
	e.field("hosts")
	if a.Hosts == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		for i, h := range a.Hosts {
			e.comma(i)
			e.string(h)
		}
		e.b = append(e.b, ']')
	}
	e.field("predictedSeconds")
	e.float(a.PredictedSeconds)
	e.field("switches")
	e.b = strconv.AppendInt(e.b, int64(a.Switches), 10)
	e.b = append(e.b, '}')
}

// json appends a replication value as encoding/json writes it.
func (e *encoder) json(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		e.fail(err)
		return
	}
	e.b = append(e.b, data...)
}

// float writes f as encoding/json does: ES6 number formatting, which is
// strconv's shortest 'f' form except below 1e-6 and from 1e21, where it is
// 'e' with the exponent unpadded. NaN and ±Inf have no JSON form.
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.fail(fmt.Errorf("unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64)))
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	e.b = b
}

// htmlSafe marks the ASCII bytes a string carries unescaped: not the
// controls, the quote and the backslash, nor <, > and &, which
// encoding/json escapes for the sake of HTML (RSL's comparisons are full of
// '>').
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// string writes s quoted as encoding/json does: short escapes for \b \f \n
// \r \t, \u00XX for the other controls and for <, > and &, \ufffd for each
// byte of invalid UTF-8, and U+2028 and U+2029 escaped.
func (e *encoder) string(s string) {
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029: // line and paragraph separators
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	e.b = append(b, '"')
}
