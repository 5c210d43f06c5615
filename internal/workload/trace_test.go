package workload

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestTraceRoundTripBitIdentical(t *testing.T) {
	cfg := twoCohortConfig()
	cfg.Cohorts[0].DeadlineMs = 120
	cfg.Cohorts[0].DeadlineJitterFrac = 0.2
	cfg.Cohorts[1].CancelFrac = 0.1
	cfg.Cohorts[1].CancelAfterMs = 80
	arrivals := MustGenerateCohorts(cfg)
	h := TraceHeader{Seed: cfg.Seed, ConfigHash: ConfigHash(cfg), Source: "generate"}

	var first bytes.Buffer
	if err := WriteTrace(&first, h, arrivals); err != nil {
		t.Fatal(err)
	}
	gotH, gotA, err := ReadTrace(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gotH.Format != TraceFormat || gotH.Version != TraceVersion || gotH.Count != len(arrivals) {
		t.Fatalf("header not stamped: %+v", gotH)
	}
	if gotH.Seed != cfg.Seed || gotH.ConfigHash != ConfigHash(cfg) || gotH.Source != "generate" {
		t.Fatalf("provenance lost: %+v", gotH)
	}
	if !reflect.DeepEqual(gotA, arrivals) {
		t.Fatal("arrivals changed through the round trip")
	}
	// Bit-identity: re-encoding the parsed trace reproduces the bytes.
	var second bytes.Buffer
	if err := WriteTrace(&second, gotH, gotA); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("trace does not round-trip bit-identically")
	}
}

func TestReadTraceRejects(t *testing.T) {
	var good bytes.Buffer
	if err := WriteTrace(&good, TraceHeader{}, []Arrival{
		{ID: 0, Model: "m", AtMs: 1},
		{ID: 1, Model: "m", AtMs: 2},
	}); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(good.String(), "\n")
	cases := []struct {
		name  string
		input string
	}{
		{"wrong magic", `{"format":"not-a-trace","version":1,"count":0}` + "\n"},
		{"future version", `{"format":"split-workload-trace","version":2,"count":0}` + "\n"},
		{"zero version", `{"format":"split-workload-trace","version":0,"count":0}` + "\n"},
		{"negative count", `{"format":"split-workload-trace","version":1,"count":-1}` + "\n"},
		{"count mismatch", lines[0] + lines[1]},
		{"count past the records", `{"format":"split-workload-trace","version":1,"count":4000000000}` + "\n" + lines[1] + lines[2]},
		{"records past the count", `{"format":"split-workload-trace","version":1,"count":1}` + "\n" + lines[1] + lines[2]},
		{"record split across lines", lines[0] + `{"id":0,"model":"m",` + "\n" + `"at_ms":1}` + "\n" + lines[2]},
		{"two records on a line", lines[0] + strings.TrimSuffix(lines[1], "\n") + lines[2]},
		{"unordered", lines[0] + lines[2] + lines[1]},
		{"negative time", lines[0] + `{"id":0,"model":"m","at_ms":-1}` + "\n" + lines[2]},
		{"garbage record", lines[0] + "not json\n"},
		{"empty input", ""},
	}
	for _, tc := range cases {
		if _, _, err := ReadTrace(strings.NewReader(tc.input)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestReadTraceLongLines: a record longer than the reader's buffer reads
// whole, on the canonical path and on encoding/json's.
func TestReadTraceLongLines(t *testing.T) {
	long := strings.Repeat("x", 200<<10)
	want := []Arrival{{ID: 0, Model: long, AtMs: 1}, {ID: 1, Model: "m", AtMs: 2, Cohort: long}}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, TraceHeader{}, want); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(`{"model":"` + long + `","id":2,"at_ms":3}` + "\n")
	want = append(want, Arrival{ID: 2, Model: long, AtMs: 3})
	input := strings.Replace(buf.String(), `"count":2`, `"count":3`, 1)
	_, got, err := ReadTrace(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("long records changed through the round trip")
	}
}

// TestWriteTraceMatchesEncodingJSON: WriteTrace writes the bytes
// json.Encoder wrote for the header and every arrival, across floats in
// both of encoding/json's formats, names that need escaping and every
// optional member present or omitted, and refuses a non-finite time as
// encoding/json does.
func TestWriteTraceMatchesEncodingJSON(t *testing.T) {
	times := []float64{0, math.Copysign(0, -1), 1, 123.456, -0.5, 1e-7, 3e-9, 1e21, 2.5e22, 1e20, 0.000001}
	names := []string{"", "vgg19", "a<b>&c", "quote\"back\\slash", "tab\tnew\nline", "é", "\xff", "\u2028"}
	var arrivals []Arrival
	for i, at := range times {
		for j, name := range names {
			arrivals = append(arrivals, Arrival{ID: len(arrivals) - 3, Model: name, AtMs: at,
				DeadlineMs: times[(i+j)%len(times)], CancelAtMs: times[(i+2*j)%len(times)], Cohort: names[(i+j)%len(names)]})
		}
	}
	h := TraceHeader{Seed: -7, ConfigHash: "a<b>", Source: "generate"}
	var got, want bytes.Buffer
	if err := WriteTrace(&got, h, arrivals); err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(&want)
	h.Format, h.Version, h.Count = TraceFormat, TraceVersion, len(arrivals)
	if err := enc.Encode(h); err != nil {
		t.Fatal(err)
	}
	for i := range arrivals {
		if err := enc.Encode(arrivals[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
		for i := range min(len(gotLines), len(wantLines)) {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("line %d:\n got %s\nwant %s", i, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("%d lines, encoding/json wrote %d", len(gotLines), len(wantLines))
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field, set := range map[string]func(*Arrival){
			"at_ms":        func(a *Arrival) { a.AtMs = bad },
			"deadline_ms":  func(a *Arrival) { a.DeadlineMs = bad },
			"cancel_at_ms": func(a *Arrival) { a.CancelAtMs = bad },
		} {
			a := Arrival{Model: "m", AtMs: 1}
			set(&a)
			if _, err := json.Marshal(a); err == nil {
				t.Fatalf("encoding/json accepted %s=%v", field, bad)
			}
			if err := WriteTrace(&bytes.Buffer{}, TraceHeader{}, []Arrival{{Model: "m"}, a}); err == nil {
				t.Errorf("WriteTrace accepted %s=%v", field, bad)
			}
		}
	}
}

func TestConfigHash(t *testing.T) {
	a := twoCohortConfig()
	b := twoCohortConfig()
	if ConfigHash(a) != ConfigHash(b) {
		t.Fatal("identical configs hash differently")
	}
	b.Seed++
	if ConfigHash(a) == ConfigHash(b) {
		t.Fatal("different configs hash identically")
	}
	if len(ConfigHash(a)) != 16 {
		t.Fatalf("hash %q not 16 hex chars", ConfigHash(a))
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	// Recorded slightly out of order, as concurrent enqueues can be.
	r.Observe(2, "vgg16", 10.5, 0)
	r.Observe(1, "resnet50", 10.5, 200)
	r.Observe(3, "inception", 12, 0)
	r.ObserveCancel(3, 15)
	r.ObserveCancel(99, 16) // unknown ID: ignored
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	got := r.Trace()
	want := []Arrival{
		{ID: 1, Model: "resnet50", AtMs: 10.5, DeadlineMs: 200},
		{ID: 2, Model: "vgg16", AtMs: 10.5},
		{ID: 3, Model: "inception", AtMs: 12, CancelAtMs: 15},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trace %+v, want %+v", got, want)
	}

	var buf bytes.Buffer
	if err := r.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	h, arrivals, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Source != "serve" {
		t.Fatalf("source %q, want serve", h.Source)
	}
	if !reflect.DeepEqual(arrivals, want) {
		t.Fatalf("round-tripped trace %+v, want %+v", arrivals, want)
	}
}

// BenchmarkTraceCodec writes and reads back a 30 000-arrival cohort trace
// with deadlines, cancellations and cohort labels; ns/op is per trace.
func BenchmarkTraceCodec(b *testing.B) {
	cfg := twoCohortConfig()
	cfg.Count = 30000
	cfg.Cohorts[0].DeadlineMs = 120
	cfg.Cohorts[0].DeadlineJitterFrac = 0.2
	cfg.Cohorts[1].CancelFrac = 0.1
	cfg.Cohorts[1].CancelAfterMs = 80
	arrivals := MustGenerateCohorts(cfg)
	var file bytes.Buffer
	if err := WriteTrace(&file, TraceHeader{Source: "generate"}, arrivals); err != nil {
		b.Fatal(err)
	}
	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		var out bytes.Buffer
		for i := 0; i < b.N; i++ {
			out.Reset()
			if err := WriteTrace(&out, TraceHeader{Source: "generate"}, arrivals); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := ReadTrace(bytes.NewReader(file.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRecorderObserve records 200 000 arrivals into a fresh recorder
// per iteration, every hundredth one canceled: a long serving run's record.
func BenchmarkRecorderObserve(b *testing.B) {
	const arrivals = 200_000
	b.ReportAllocs()
	for range b.N {
		r := NewRecorder()
		for id := range arrivals {
			r.Observe(id, "vgg19", float64(id), 0)
			if id%100 == 99 {
				r.ObserveCancel(id-50, float64(id))
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*arrivals), "ns/arrival")
}
