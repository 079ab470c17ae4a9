package protocol

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"harmony/internal/replog"
)

// FuzzDecodeMessage holds the codec to encoding/json in both directions.
// Read fails exactly when json.Unmarshal into a zero Message does (reason
// "malformed message"), or when the message has no type, and otherwise
// returns what json.Unmarshal makes of the line. Write emits json.Marshal's
// bytes and a newline, and refuses what json.Marshal refuses: poison plants
// NaN or an infinity in one of the message's floats.
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range codecMix() {
		line, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line, uint8(0))
	}
	for _, line := range quirks() {
		f.Add([]byte(line), uint8(0))
	}
	for poison := uint8(1); poison < 16; poison++ {
		f.Add([]byte(`{"type":"status_reply","vars":{"a":{}},"apps":[{}]}`), poison)
	}
	f.Fuzz(func(t *testing.T, line []byte, poison uint8) {
		m := checkDecode(t, line)
		if m == nil {
			return
		}
		if wire := checkEncode(t, m, poison); wire != nil {
			checkDecode(t, wire)
		}
	})
}

// checkDecode reads the first line of input and holds the result to
// json.Unmarshal's; it returns the message when there is one.
func checkDecode(t *testing.T, input []byte) *Message {
	t.Helper()
	if len(input) > MaxMessageBytes {
		return nil
	}
	got, err := NewReader(bytes.NewReader(input)).Read()
	if len(input) == 0 {
		if err != io.EOF {
			t.Fatalf("empty input: %v, want io.EOF", err)
		}
		return nil
	}
	line, _, _ := bytes.Cut(input, []byte("\n"))
	line = bytes.TrimSuffix(line, []byte("\r"))
	var want Message
	jerr := json.Unmarshal(line, &want)
	reason := ""
	switch {
	case jerr != nil:
		reason = "malformed message"
	case want.Type == "":
		reason = "message without type"
	}
	var we *WireError
	switch {
	case reason != "" && (!errors.As(err, &we) || we.Reason != reason):
		t.Fatalf("Read(%q) = %v; json.Unmarshal: %v, so want the reason %q", line, err, jerr, reason)
	case reason != "":
		return nil
	case err != nil:
		t.Fatalf("Read(%q): %v; json.Unmarshal accepts it", line, err)
	case !reflect.DeepEqual(got, &want):
		t.Fatalf("Read(%q) =\n%#v\njson.Unmarshal gives\n%#v", line, got, &want)
	}
	return got
}

// checkEncode writes m, with a float poisoned as poison says, and holds
// the bytes to json.Marshal's; it returns the line written, if any.
func checkEncode(t *testing.T, m *Message, poison uint8) []byte {
	t.Helper()
	if bad := [...]float64{0, math.NaN(), math.Inf(1), math.Inf(-1)}[poison%4]; bad != 0 {
		switch poison / 4 % 4 {
		case 0:
			m.Objective = bad
		case 1:
			m.Value.Num = bad
		case 2:
			for k, v := range m.Vars {
				v.Num = bad
				m.Vars[k] = v
			}
		case 3:
			for i := range m.Apps {
				m.Apps[i].PredictedSeconds = bad
			}
		}
	}
	want, jerr := json.Marshal(m)
	var buf bytes.Buffer
	err := NewWriter(&buf).Write(m)
	switch {
	case jerr != nil:
		if err == nil {
			t.Fatalf("Write accepted %#v; json.Marshal: %v", m, jerr)
		}
		return nil
	case len(want) > MaxMessageBytes:
		if !errors.Is(err, ErrMessageTooLarge) {
			t.Fatalf("Write of %d bytes: %v, want ErrMessageTooLarge", len(want), err)
		}
		return nil
	case err != nil:
		t.Fatalf("Write(%#v): %v; json.Marshal accepts it", m, err)
	case !bytes.Equal(buf.Bytes(), append(want, '\n')):
		t.Fatalf("Write wrote\n%s\njson.Marshal writes\n%s", buf.Bytes(), want)
	}
	return buf.Bytes()
}

// quirks are lines whose meaning under encoding/json is easy to get wrong.
func quirks() []string {
	esc := func(hex string) string { return `\` + "u" + hex } // a JSON \u escape
	longS, kelvin := string(rune(0x17f)), string(rune(0x212a))
	nest := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	return []string{
		// Keys match fields case-insensitively, under Unicode folding too.
		`{"TYPE":"status","SEQ":1,"AppId":"a","useinterrupts":true}`,
		`{"type":"a","Type":"b","tYpE":"c"}`,
		`{"type":"x","` + longS + `eq":7,"resumeTo` + kelvin + `en":"t","` + longS + `tate":"up"}`,
		`{"type":"x","apps":[{"APP":"a","H` + longS + `t` + longS + `":["h"],"predicted` + longS + `econds":1}]}`,
		`{"type":"x","value":{"NUM":1,"I` + longS + `String":true,"Str":"s"}}`,
		`{"type":"x","` + esc("0073") + `eq":2,"typ` + esc("0065") + `":"y"}`,
		// A repeated key decodes again into what the first one left.
		`{"type":"x","vars":{"a":{"num":1}},"vars":{"b":{"str":"s"}},"vars":{"a":{"isString":true}}}`,
		`{"type":"x","value":{"num":1},"value":{"isString":true},"value":null}`,
		`{"type":"x","apps":[{"app":"a","hosts":["h1","h2"]},{"app":"b","switches":3}],"apps":[{"instance":2,"hosts":["h3"]}],"apps":[{},{}]}`,
		`{"type":"x","instances":[1,2,3],"instances":[4],"instances":[5,null]}`,
		`{"type":"x","replica":{"id":"a","term":2},"replica":{"role":"leader"}}`,
		`{"type":"x","snapshot":{"index":1,"data":"eyJhIjoxfQ=="},"snapshot":null,"snapshot":{"term":2}}`,
		`{"type":"x","entries":[{"index":1,"rsl":"a"},{"index":2}],"entries":[{"term":3}]}`,
		// null for every kind of field.
		`{"type":"x","seq":null,"appId":null,"useInterrupts":null,"value":null,"instance":null,"vars":null,"apps":null,"objective":null,"instances":null,"entries":null,"snapshot":null,"replica":null}`,
		`{"type":"x","vars":{"a":null},"apps":[null,{"hosts":null,"app":null}],"instances":[null]}`,
		`{"type":null}`,
		`null`,
		// An empty array or object against an absent one.
		`{"type":"x","apps":[],"instances":[],"entries":[],"vars":{}}`,
		`{"type":"x","apps":[{"hosts":[]}],"value":{}}`,
		// Escapes, surrogates, invalid UTF-8, the separators, HTML.
		`{"type":"a\"b\\c\/d\b\f\n\r\t` + esc("0041") + esc("00e9") + esc("0000") + `"}`,
		`{"type":"` + esc("d83d") + esc("de00") + `|` + esc("d800") + `x|` + esc("dc00") + `|` + esc("d800") + esc("d800") + `|` + esc("d800") + `\n"}`,
		"{\"type\":\"\xff\xfe|\xe2\x82|\xed\xa0\x80|ok\"}",
		"{\"type\":\"\xe2\x80\xa8\xe2\x80\xa9" + esc("2028") + "\",\"vars\":{\"\xff\":{\"str\":\"\xc0\"}}}",
		`{"type":"bundle_setup","rsl":"{memory >=17} {a > b && c < d}"}`,
		"{\"type\":\"x\",\"\xff\":1}",
		"{\"type\":\"a\x01\"}",
		"{\"type\":\"a\x7f\"}",
		`{"type":"a\x"}`,
		`{"type":"` + `\` + `u12"}`,
		// Numbers: exponents, -0, ranges.
		`{"type":"x","objective":1e21,"value":{"num":1e-7},"apps":[{"predictedSeconds":-0}]}`,
		`{"type":"x","objective":123456789e-20,"value":{"num":-0}}`,
		`{"type":"x","objective":1E+2,"apps":[{"predictedSeconds":0.000001}]}`,
		`{"type":"x","objective":5e-324}`,
		`{"type":"x","objective":2.5e-400}`,
		`{"type":"x","objective":1e400}`,
		`{"type":"x","seq":18446744073709551615,"instance":-9223372036854775808}`,
		`{"type":"x","seq":18446744073709551616}`,
		`{"type":"x","instance":9223372036854775808}`,
		`{"type":"x","seq":-1}`,
		`{"type":"x","seq":-0}`,
		`{"type":"x","instance":-0}`,
		`{"type":"x","instance":1.0}`,
		`{"type":"x","instance":1e2}`,
		`{"type":"x","seq":01}`,
		`{"type":"x","seq":1.}`,
		`{"type":"x","seq":-}`,
		`{"type":"x","seq":"1"}`,
		`{"type":"x","granted":"true"}`,
		`{"type":1}`,
		`{"type":"x","vars":[]}`,
		`{"type":"x","apps":{}}`,
		// Nesting at and past encoding/json's limit.
		`{"type":"x","deep":` + nest(9999) + `}`,
		`{"type":"x","deep":` + nest(10000) + `}`,
		`{"type":"x","entries":[{"choice":` + strings.Repeat(`{"a":`, 9997) + `1` + strings.Repeat(`}`, 9997) + `}]}`,
		`{"type":"x","entries":[{"choice":` + strings.Repeat(`{"a":`, 9998) + `1` + strings.Repeat(`}`, 9998) + `}]}`,
		// Trailing bytes and whitespace.
		`{"type":"x"} x`,
		`{"type":"x"}{}`,
		" \t{\"type\" : \"x\" , \"seq\" : 1 }\t \r",
		"{\"type\":\"x\"}\r\nnot json",
		`{"type":"x",}`,
		`{"type":"x" "seq":1}`,
		`{"type":"x","seq":1,}`,
		`{"type":"x","unknown":{"a":[1,"b",true,false,null,{}]}}`,
		`{"type":"x","unknown":[1 2]}`,
		`{"type":"x","unknown":tru}`,
		`[{"type":"x"}]`,
		`"x"`,
		``,
		"\n",
		`{}`,
	}
}

// codecMix is the benchmark's protocol message mix: a wide-greedy
// bundle_setup, an ack and an update carrying a database client's
// variables, and the status reply of 64 admitted database clients.
func codecMix() []*Message {
	var values, perf strings.Builder
	for n := 1; n <= 32; n++ {
		fmt.Fprintf(&values, " %d", n)
		fmt.Fprintf(&perf, " {%d %g}", n, 300/float64(n)+1.2*float64(n*n))
	}
	rsl := "harmonyBundle Job:1 parallelism {\n\t{workers\n\t\t{variable workerNodes {" + values.String() +
		"}}\n\t\t{node worker * {seconds {300 / workerNodes}} {memory 32} {replicate workerNodes} {exclusive 1}}\n\t\t{performance {" +
		perf.String() + "}}\n\t}\n}"
	vars := map[string]VarValue{
		"where":                   StrVar("DS"),
		"where.option":            StrVar("DS"),
		"where.DS.server.node":    StrVar("dbserver"),
		"where.DS.server.memory":  NumVar(20),
		"where.DS.server.seconds": NumVar(1),
		"where.DS.client.node":    StrVar("dbclient017"),
		"where.DS.client.memory":  NumVar(24),
		"where.DS.client.seconds": NumVar(10),
		"predicted":               NumVar(11.000000000000002),
	}
	status := &Message{Type: TypeStatusReply, Seq: 9, Objective: 718.2000000000003}
	for i := 1; i <= 64; i++ {
		option, predicted := "DS", 11.000000000000002
		if i%5 == 0 {
			option, predicted = "QS", 6.25
		}
		status.Apps = append(status.Apps, AppStatus{
			Instance: i, App: "DBclient", Bundle: "where", Option: option,
			Hosts: []string{"dbserver", fmt.Sprintf("dbclient%03d", i)}, PredictedSeconds: predicted, Switches: i % 3,
		})
	}
	return []*Message{
		{Type: TypeBundleSetup, Seq: 2, RSL: rsl},
		{Type: TypeAck, Seq: 2, Instance: 17, Vars: vars},
		{Type: TypeUpdate, Instance: 17, Vars: vars},
		status,
		{Type: TypeStartup, Seq: 1, AppID: "DBclient"},
		{Type: TypeError, Error: ErrNotLeader + ": leader is at h:1", Leader: "h:1"},
		{Type: TypeAck, ResumeToken: "0f3a", Instances: []int{3, 9}},
		{Type: TypeVoteRequest, Term: 4, From: "a", LastIndex: 9, LastTerm: 3},
		{
			Type: TypeAppendEntries, Term: 4, From: "a", PrevIndex: 9, PrevTerm: 3, CommitIndex: 8,
			Entries: []replog.Entry{{Index: 10, Term: 4, Time: 1500, Op: replog.OpRegister, RSL: "harmonyBundle x {}", Token: "t"}},
		},
		{Type: TypeAppendReply, Term: 4, Success: true, MatchIndex: 10},
		{Type: TypeInstallSnapshot, Term: 4, Snapshot: &replog.Snapshot{Index: 7, Term: 2, Data: []byte(`{"a":1}`)}},
		{Type: TypeClusterStatusReply, Replica: &ReplicaStatus{ID: "a", Role: "leader", Term: 4, SnapshotAgeSeconds: -1}},
	}
}
