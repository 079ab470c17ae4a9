package protocol

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestCodecMatchesEncodingJSON holds the benchmark's message mix, and the
// quirks the fuzz target starts from, to encoding/json both ways.
func TestCodecMatchesEncodingJSON(t *testing.T) {
	for _, m := range codecMix() {
		if wire := checkEncode(t, m, 0); wire != nil {
			checkDecode(t, wire)
		}
	}
	for _, line := range quirks() {
		if m := checkDecode(t, []byte(line)); m != nil {
			checkEncode(t, m, 0)
		}
	}
}

// TestCodecCoversEveryField fills every field of a Message, at every depth,
// and holds the codec to encoding/json on it: a field the codec forgot, or
// spells differently from its json tag, fails here before any fuzzing.
func TestCodecCoversEveryField(t *testing.T) {
	var m Message
	fill(reflect.ValueOf(&m).Elem())
	wire := checkEncode(t, &m, 0)
	if got := checkDecode(t, wire); !reflect.DeepEqual(got, &m) {
		t.Fatalf("round trip of a full message:\n%#v\nwant\n%#v", got, &m)
	}
	checkDecode(t, bytes.ToUpper(wire))
}

// fill gives v, and everything it holds, a value other than zero.
func fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString("s<&>" + v.Type().Name())
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(-7)
	case reflect.Uint64:
		v.SetUint(7)
	case reflect.Float64:
		v.SetFloat(2.5)
	case reflect.Uint8:
		v.SetUint('b')
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).Tag.Get("json") != "-" {
				fill(v.Field(i))
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fill(v.Index(0))
		fill(v.Index(1))
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for _, k := range []string{"b", "a"} {
			e := reflect.New(v.Type().Elem()).Elem()
			fill(e)
			v.SetMapIndex(reflect.ValueOf(k), e)
		}
	case reflect.Interface:
	default:
		panic("fill: unhandled kind " + v.Kind().String())
	}
}

// TestReadLineAtLimit: a line of MaxMessageBytes, as Write allows, reads;
// one byte more is refused as oversized, at the end of the stream too.
func TestReadLineAtLimit(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	m := &Message{Type: TypeBundleSetup, RSL: "x"}
	if err := w.Write(m); err != nil {
		t.Fatal(err)
	}
	m.RSL = strings.Repeat("x", MaxMessageBytes-buf.Len()+2)
	buf.Reset()
	if err := w.Write(m); err != nil {
		t.Fatalf("Write of a line of %d bytes: %v", MaxMessageBytes, err)
	}
	if buf.Len() != MaxMessageBytes+1 {
		t.Fatalf("wrote %d bytes, want %d and a newline", buf.Len(), MaxMessageBytes)
	}
	long := bytes.Replace(buf.Bytes(), []byte(`"x`), []byte(`"xx`), 1)
	if got, err := NewReader(&buf).Read(); err != nil || got.RSL != m.RSL {
		t.Fatalf("Read of a line of %d bytes: %v", MaxMessageBytes, err)
	}
	for _, input := range [][]byte{long, long[:len(long)-1]} {
		_, err := NewReader(bytes.NewReader(input)).Read()
		var we *WireError
		if !errors.As(err, &we) || !strings.Contains(we.Reason, "line exceeds") {
			t.Fatalf("Read of a line of %d bytes: %v, want the line limit", MaxMessageBytes+1, err)
		}
	}
}

// BenchmarkCodec encodes and decodes the benchmark's message mix, with
// encoding/json's Marshal and Unmarshal beside it for scale.
func BenchmarkCodec(b *testing.B) {
	mix := codecMix()[:4]
	var wire bytes.Buffer
	w := NewWriter(&wire)
	for _, m := range mix {
		if err := w.Write(m); err != nil {
			b.Fatal(err)
		}
	}
	lines := bytes.SplitAfter(bytes.Clone(wire.Bytes()), []byte("\n"))[:len(mix)]
	names := []string{"bundle_setup", "ack", "update", "status_reply"}
	for i, m := range mix {
		b.Run("encode/"+names[i], func(b *testing.B) {
			b.ReportAllocs()
			w := NewWriter(&wire)
			for n := 0; n < b.N; n++ {
				wire.Reset()
				if err := w.Write(m); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode/"+names[i], func(b *testing.B) {
			b.ReportAllocs()
			r := NewReader(&wire)
			for n := 0; n < b.N; n++ {
				wire.Reset()
				wire.Write(lines[i])
				if _, err := r.Read(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("json-encode/"+names[i], func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if _, err := json.Marshal(m); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("json-decode/"+names[i], func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				var m Message
				if err := json.Unmarshal(lines[i], &m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
