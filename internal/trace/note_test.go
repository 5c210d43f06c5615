package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"split/internal/modelid"
)

// TestEventIsCompact pins the event's footprint and shape: a traced run
// holds every one of its events, so a wider event is a larger run, and an
// event with a pointer in it makes the collector scan every array of them.
func TestEventIsCompact(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size != 64 {
		t.Errorf("trace.Event is %d bytes, want 64", size)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("%s is a %s, which holds a pointer", path, typ.Kind())
		}
	}
	walk("Event", reflect.TypeOf(Event{}))
}

// typedArgs converts a note's Args to the Go values its format's verbs
// read, so fmt can render the same sentence.
func typedArgs(t *testing.T, format string, args [4]float64) []any {
	t.Helper()
	var out []any
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		v := args[len(out)]
		switch verb := format[i+1]; verb {
		case 'd':
			out = append(out, int(v))
		case 's':
			out = append(out, Word(v).String())
		case 't':
			out = append(out, v != 0)
		case 'v':
			out = append(out, time.Duration(math.Round(v*float64(time.Millisecond))))
		case '.':
			out = append(out, v)
		default:
			t.Fatalf("format %q: unknown verb %q", format, verb)
		}
	}
	return out
}

// TestNotesRenderAsFormatted holds every note's renderer to fmt: Detail is
// exactly fmt.Sprintf of the note's format over its arguments, which is
// how the sentences were written before events carried numbers.
func TestNotesRenderAsFormatted(t *testing.T) {
	samples := [][4]float64{
		{0, 0, 0, 0},
		{1, 2, 3, 4},
		{12.3456, 0.5, 7, 250},
		{-3, 1e6, 0.005, 1.0005},
		{2.675, 1.125, 99999.9995, 1},
		{float64(WordOf(ReasonDeviceFault)), float64(WordOf("connection lost")), 0, 0},
		{float64(len(words) - 1), 1500, 0, 0},
	}
	for n := NoteNone; n < numNotes; n++ {
		if n != NoteNone && n.format() == "" {
			t.Errorf("note %d has no format", n)
		}
		for _, args := range samples {
			if strings.Contains(n.format(), "%s") {
				for i := range args {
					args[i] = math.Mod(math.Abs(math.Trunc(args[i])), float64(len(words)))
				}
			}
			e := Event{Note: n, Args: args}
			want := fmt.Sprintf(n.format(), typedArgs(t, n.format(), args)...)
			if got := e.Detail(); got != want {
				t.Errorf("note %d %q over %v: Detail %q, fmt %q", n, n.format(), args, got, want)
			}
		}
	}
}

// TestVocabularyNeedsNoEscaping is what lets the writers put a rendered
// detail between two quotes: no word and no sentence needs escaping in JSON
// or in Go's %q.
func TestVocabularyNeedsNoEscaping(t *testing.T) {
	check := func(s string) {
		t.Helper()
		js, _ := json.Marshal(s)
		if string(js) != `"`+s+`"` || strconv.Quote(s) != `"`+s+`"` {
			t.Errorf("%q needs escaping", s)
		}
	}
	for _, w := range words {
		check(w)
	}
	for n := NoteNone; n < numNotes; n++ {
		check(n.format())
	}
	seen := map[string]bool{}
	for _, w := range words {
		if seen[w] {
			t.Errorf("word %q listed twice", w)
		}
		seen[w] = true
		if WordOf(w).String() != w {
			t.Errorf("WordOf(%q) does not spell it", w)
		}
	}
}

func TestWordOfUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WordOf accepted a word outside the vocabulary")
		}
	}()
	WordOf("no such reason")
}

// legacyEvent is the shape encoding/json rendered before events carried
// numbers: its bytes are what Event's own encoders must reproduce.
type legacyEvent struct {
	AtMs   float64 `json:"at_ms"`
	Kind   string  `json:"kind"`
	ReqID  int     `json:"req"`
	Model  string  `json:"model"`
	Block  int     `json:"block,omitempty"`
	Device int     `json:"device,omitempty"`
	Batch  int     `json:"batch,omitempty"`
	Part   int     `json:"part,omitempty"`
	Detail string  `json:"detail,omitempty"`
}

type legacyInterval struct {
	Phase   string  `json:"phase"`
	Block   int     `json:"block"`
	Device  int     `json:"device"`
	Part    int     `json:"part,omitempty"`
	Batch   int     `json:"batch,omitempty"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
	Detail  string  `json:"detail,omitempty"`
}

// encoderSamples varies every field the encoders spell: floats across
// encoding/json's two formats, model names that need escaping, zero and
// non-zero placement fields, and every note.
func encoderSamples() []Event {
	times := []float64{0, 1, 123.456, -0.5, 1e-7, 3e-9, 1e21, 2.5e22, 1e20, 0.000001}
	models := []string{"", "vgg19", "a<b>&c", "quote\"back\\slash", "tab\tnew\nline", "é", "\xff", "\u2028"}
	var out []Event
	for i, at := range times {
		for j, m := range models {
			n := Note((i + j) % int(numNotes))
			out = append(out, Event{AtMs: at, Kind: EventKind(j % (len(kindNames) + 1)), ReqID: i - 1, Model: modelid.Intern(m),
				Block: int16(j % 3), Device: int16(i % 2), Batch: int32((i + j) % 4), Part: int8(j % 2), Note: n,
				Args: [4]float64{float64(j % len(words)), 2.25, 3, 1000}})
		}
	}
	return out
}

// TestEncodersMatchEncodingJSON: Event.MarshalJSON, the JSONL and CSV
// writers and Interval.MarshalJSON produce the bytes the string-detail
// structs did.
func TestEncodersMatchEncodingJSON(t *testing.T) {
	tr := New()
	var wantJSONL, wantCSV bytes.Buffer
	wantCSV.WriteString("at_ms,kind,req,model,block,device,detail\n")
	for _, e := range encoderSamples() {
		legacy := legacyEvent{AtMs: e.AtMs, Kind: e.Kind.String(), ReqID: e.ReqID, Model: e.Model.String(),
			Block: int(e.Block), Device: int(e.Device), Batch: int(e.Batch), Part: int(e.Part), Detail: e.Detail()}
		want, err := json.Marshal(legacy)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("event JSON:\n got %s\nwant %s", got, want)
		}
		json.NewEncoder(&wantJSONL).Encode(legacy)
		fmt.Fprintf(&wantCSV, "%.4f,%s,%d,%s,%d,%d,%q\n",
			e.AtMs, e.Kind, e.ReqID, e.Model.String(), e.Block, e.Device, e.Detail())
		tr.Record(e)

		iv := Interval{Phase: PhaseExec, Block: int(e.Block), Device: int(e.Device) - 1, Part: int(e.Part), Batch: int(e.Batch),
			StartMs: e.AtMs, EndMs: e.AtMs * 2, Note: e.Note, Args: e.Args}
		want, _ = json.Marshal(legacyInterval{Phase: iv.Phase, Block: iv.Block, Device: iv.Device, Part: iv.Part,
			Batch: iv.Batch, StartMs: iv.StartMs, EndMs: iv.EndMs, Detail: iv.Detail()})
		if got, _ := json.Marshal(iv); !bytes.Equal(got, want) {
			t.Errorf("interval JSON:\n got %s\nwant %s", got, want)
		}
	}
	var jsonl, csv bytes.Buffer
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonl.Bytes(), wantJSONL.Bytes()) {
		t.Errorf("JSONL differs from encoding/json's:\n%s\nwant:\n%s", jsonl.String(), wantJSONL.String())
	}
	if !bytes.Equal(csv.Bytes(), wantCSV.Bytes()) {
		t.Errorf("CSV differs from fmt's:\n%s\nwant:\n%s", csv.String(), wantCSV.String())
	}
}

// TestEncodersRefuseNonFinite: a NaN or infinite time fails the writers as
// it failed encoding/json, rather than writing a line no JSON parser reads.
func TestEncodersRefuseNonFinite(t *testing.T) {
	for _, at := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		tr := New()
		tr.Record(Event{AtMs: at, Kind: Arrive})
		if err := tr.WriteJSONL(&bytes.Buffer{}); err == nil {
			t.Errorf("WriteJSONL accepted at_ms=%v", at)
		}
		if _, err := json.Marshal(Interval{StartMs: at}); err == nil {
			t.Errorf("Interval.MarshalJSON accepted start_ms=%v", at)
		}
	}
}

// TestAppendFixedMatchesStrconv: the fast fixed-point path spells every
// value as strconv does — ties at every precision, values that round up to
// the next power of ten, negative values that round to zero, and the
// values it hands back to strconv.
func TestAppendFixedMatchesStrconv(t *testing.T) {
	values := []float64{0, math.Copysign(0, -1), 0.5, 1.5, 2.5, -2.5, 2.675, 1.125, 1.0005, 9.9995, 9.99951,
		99.995, -0.0004, -0.0005, 0.0005, 1e15, 1e17, 123456789.0125, math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, math.SmallestNonzeroFloat64}
	rng := uint64(1)
	next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
	for i := 0; i < 200000; i++ {
		switch i % 4 {
		case 0: // an arbitrary double of moderate size
			values = append(values, math.Float64frombits(next()%(0x4200000000000000)))
		case 1: // a decimal tie or near-tie at some precision
			values = append(values, float64(next()%2000000)/2000)
		case 2: // an everyday duration or ratio
			values = append(values, float64(next()%100000)/997)
		default:
			values = append(values, -float64(next()%100000)/7919)
		}
	}
	for _, v := range values {
		for prec := range pow10 {
			want := strconv.AppendFloat(nil, v, 'f', prec, 64)
			if got := appendFixed(nil, v, prec); !bytes.Equal(got, want) {
				t.Fatalf("appendFixed(%v, %d) = %s, strconv %s", v, prec, got, want)
			}
		}
	}
}
