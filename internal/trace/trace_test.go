package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"split/internal/modelid"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(Event{AtMs: 1, Kind: Arrive})
	tr.Note(2, Complete, 1, "m", NoteRR, 3)
	if tr.Len() != 0 {
		t.Error("nil tracer recorded something")
	}
	if tr.Events() != nil {
		t.Error("nil tracer returned events")
	}
}

func TestRecordAndEvents(t *testing.T) {
	tr := New()
	tr.Record(Event{AtMs: 1, Kind: Arrive, ReqID: 7, Model: modelid.Intern("vgg")})
	tr.Note(2, StartBlock, 7, "vgg", NoteDur, 5)
	if tr.Len() != 2 {
		t.Fatalf("len = %d", tr.Len())
	}
	evs := tr.Events()
	if evs[0].Kind != Arrive || evs[1].Detail() != "dur=5.000" {
		t.Errorf("events = %+v", evs)
	}
}

func TestWriteCSV(t *testing.T) {
	tr := New()
	tr.Note(1.5, Arrive, 1, "yolo", NotePos, 0)
	tr.Record(Event{AtMs: 2.5, Kind: Complete, ReqID: 1, Model: modelid.Intern("yolo"), Block: 2, Note: NoteRR, Args: [4]float64{1}})
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "at_ms,kind") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "arrive") || !strings.Contains(lines[2], "complete") {
		t.Errorf("rows = %v", lines[1:])
	}
}

func TestWriteJSONL(t *testing.T) {
	tr := New()
	tr.Record(ev(1, StartBlock, 3, "gpt2", 1))
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var e struct {
		ReqID int    `json:"req"`
		Kind  string `json:"kind"`
		Block int    `json:"block"`
	}
	if err := json.Unmarshal(buf.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.ReqID != 3 || e.Kind != "start_block" || e.Block != 1 {
		t.Errorf("roundtrip = %+v", e)
	}
}

func TestGantt(t *testing.T) {
	tr := New()
	tr.Record(ev(0, StartBlock, 1, "vgg", 0))
	tr.Record(ev(10, EndBlock, 1, "vgg", 0))
	tr.Record(ev(10, StartBlock, 2, "yolo", 0))
	tr.Record(ev(15, EndBlock, 2, "yolo", 0))
	tr.Record(ev(15, StartBlock, 1, "vgg", 1))
	tr.Record(ev(25, EndBlock, 1, "vgg", 1))
	g := tr.Gantt(0, 25, 1)
	lines := strings.Split(strings.TrimSpace(g), "\n")
	if len(lines) != 2 {
		t.Fatalf("gantt rows: %q", g)
	}
	// First row is req1 (started first) and must have a gap where req2 ran.
	if !strings.Contains(lines[0], "req1") {
		t.Errorf("first row = %q", lines[0])
	}
	if !strings.Contains(lines[0], ".") || !strings.Contains(lines[0], "#") {
		t.Errorf("row lacks both marks: %q", lines[0])
	}
}

func TestGanttEmptyAndDegenerate(t *testing.T) {
	tr := New()
	if got := tr.Gantt(0, 0, 1); got != "" {
		t.Errorf("empty gantt = %q", got)
	}
	tr.Record(ev(0, StartBlock, 1, "m", 0))
	tr.Record(ev(5, EndBlock, 1, "m", 0))
	if got := tr.Gantt(0, 10, 0); got == "" {
		t.Error("auto cell width failed")
	}
}

// TestGanttDrawsOpenGrantToStreamEnd: a grant still open when the stream
// ends is drawn up to the stream's last event, as the span tree closes it.
func TestGanttDrawsOpenGrantToStreamEnd(t *testing.T) {
	tr := New()
	tr.Record(ev(0, StartBlock, 1, "m", 0))
	tr.Record(ev(5, Arrive, 2, "m", 0))
	want := "req1    m          |######....|\n"
	if got := tr.Gantt(0, 10, 1); got != want {
		t.Errorf("open grant rendered %q, want %q", got, want)
	}
}

// TestGanttTiesInRequestOrder: requests that start at one instant — an
// RT-A round of ten, emitted in no particular id order — render in request
// id order, the same on every call.
func TestGanttTiesInRequestOrder(t *testing.T) {
	ids := []int{7, 2, 9, 0, 5, 3, 8, 1, 6, 4}
	tr := New()
	for _, id := range ids {
		tr.Record(ev(0, StartBlock, id, "m", 0))
	}
	for i, id := range ids {
		tr.Record(ev(float64(2+i), EndBlock, id, "m", 0))
	}
	first := tr.Gantt(0, 12, 1)
	lines := strings.Split(strings.TrimSuffix(first, "\n"), "\n")
	if len(lines) != len(ids) {
		t.Fatalf("%d rows, want %d:\n%s", len(lines), len(ids), first)
	}
	for id, line := range lines {
		if !strings.HasPrefix(line, fmt.Sprintf("req%-4d ", id)) {
			t.Errorf("row %d = %q, want req %d", id, line, id)
		}
	}
	for i := 0; i < 10; i++ {
		if got := tr.Gantt(0, 12, 1); got != first {
			t.Fatalf("render %d differs:\n%s\nfirst:\n%s", i, got, first)
		}
	}
}

// TestTracerChunks records across several chunk boundaries, one event and
// a batch at a time, and reads the history back flat and chunk by chunk,
// before and after Events has flattened it once.
func TestTracerChunks(t *testing.T) {
	var want []Event
	tr := New()
	record := func(evs ...Event) {
		tr.Record(evs...)
		want = append(want, evs...)
	}
	batch := make([]Event, chunkLen+7)
	for i := range batch {
		batch[i] = Event{AtMs: float64(i), Kind: Arrive, ReqID: i, Note: NoteQueued, Args: [4]float64{float64(i)}}
	}
	for i := 0; i < chunkLen+3; i++ {
		record(Event{AtMs: float64(i), Kind: Complete, ReqID: i, Model: modelid.Intern("m"), Note: NoteRR, Args: [4]float64{1.5}})
	}
	record(batch...)
	check := func(stage string) {
		t.Helper()
		if tr.Len() != len(want) {
			t.Fatalf("%s: Len %d, want %d", stage, tr.Len(), len(want))
		}
		var walked, flat bytes.Buffer
		if err := tr.WriteJSONL(&walked); err != nil {
			t.Fatal(err)
		}
		if err := WriteJSONL(&flat, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(walked.Bytes(), flat.Bytes()) {
			t.Fatalf("%s: chunked JSONL differs from the flat history", stage)
		}
		if got := tr.Events(); len(got) != len(want) || cap(got) != len(want) || got[len(got)-1] != want[len(want)-1] {
			t.Fatalf("%s: Events has len %d cap %d, want %d", stage, len(got), cap(got), len(want))
		}
	}
	check("chunked")
	record(batch[:5]...)
	check("flattened, then recorded")
	if &tr.Events()[0] != &tr.Events()[0] {
		t.Error("Events flattened twice without new events")
	}
}
