// Package trace records scheduling timelines — arrivals, block starts and
// ends, preemption decisions, completions — and renders them as CSV, JSON
// lines, or an ASCII Gantt chart like the paper's Figures 1 and 3.
//
// An event carries numbers only: its kind and its note are small integers
// and the note's arguments are scalars (note.go). The sentence a note
// stands for is rendered on the way out, by Event.Detail and the writers,
// so recording an event allocates nothing.
package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"split/internal/modelid"
)

// EventKind labels a trace event. Its String is the name every export
// prints.
type EventKind uint8

// Event kinds emitted by the policies.
const (
	Arrive EventKind = iota + 1
	StartBlock
	EndBlock
	Preempt
	Complete
	Drop
	// ElasticOn / ElasticOff mark transitions of the §3.3 elastic mechanism:
	// ElasticOn means splitting is being suppressed (elastic mode active).
	ElasticOn
	ElasticOff
	// Shed records a request dropped after it was enqueued — deadline
	// expiry, cancellation, drain timeout, stop, or device fault — with the
	// drop reason as its note. Distinct from Drop, which records
	// pre-enqueue rejections.
	Shed
	// Cancel records a cancellation taking effect on a request (the note
	// says whether it was queued or in flight, and why).
	Cancel
	// Fault records an injected device fault on a block attempt: a latency
	// spike, a transient failure being retried, or a terminal device fault.
	Fault
	// DrainStart / DrainEnd bracket a graceful drain: between them the
	// server accepts no new work and is finishing or shedding the backlog.
	DrainStart
	DrainEnd
	// Place records a fleet placement decision: the chosen device is in
	// Device, the policy name in the note. Emitted only by multi-device
	// deployments, so single-device traces are unchanged.
	Place
	// ScaleOut / ScaleIn record autoscaler membership changes: Device is
	// the device attached (scale-out) or beginning drain-then-release
	// (scale-in), the note carries the triggering signal. They are control-
	// plane events and carry ReqID -1, so span folding ignores them.
	ScaleOut
	ScaleIn
)

var kindNames = [...]string{
	Arrive:     "arrive",
	StartBlock: "start_block",
	EndBlock:   "end_block",
	Preempt:    "preempt",
	Complete:   "complete",
	Drop:       "drop",
	ElasticOn:  "elastic_on",
	ElasticOff: "elastic_off",
	Shed:       "shed",
	Cancel:     "cancel",
	Fault:      "fault",
	DrainStart: "drain_start",
	DrainEnd:   "drain_end",
	Place:      "place",
	ScaleOut:   "scale_out",
	ScaleIn:    "scale_in",
}

// String returns the kind's name as the exports print it; the zero kind is
// the empty string.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "EventKind(" + strconv.Itoa(int(k)) + ")"
}

// Event is one timeline entry: 64 bytes with no pointer in it, so the
// collector never scans an array of events and a flattened trace is two
// thirds the size a string-carrying event made it. The model is an ID into
// the process-wide name table (modelid), and the placement fields are as
// narrow as the engine's bounds allow (engine.MaxDevices, MaxPartitions,
// MaxBlocks; batch ids wrap before 2³¹).
type Event struct {
	AtMs  float64
	ReqID int
	// Args are the arguments of the sentence Note names, in the order the
	// sentence names them (note.go).
	Args [4]float64
	// Batch groups the StartBlock/EndBlock events of one batched device
	// grant: every member of a micro-batch carries the same non-zero id.
	// 0 (and omitted from JSON) means an unbatched scalar grant, so traces
	// from runs without batching are byte-identical to before.
	Batch int32
	// Model is the event's model; the zero ID (the empty name) on
	// control-plane events.
	Model modelid.ID
	Block int16
	// Device is the fleet device the event happened on; 0 (and omitted
	// from JSON) on single-device deployments.
	Device int16
	// Part is the device partition slot the event happened on when the
	// fleet runs spatial sharing; 0 (and omitted from JSON) on
	// unpartitioned deployments, so temporal-only traces are byte-identical
	// to before.
	Part int8
	Kind EventKind
	// Note names the sentence Detail renders.
	Note Note
}

// Detail renders the event's note: the sentence the exports print in
// their detail column.
func (e Event) Detail() string { return e.Note.render(&e.Args) }

// Sink receives a live stream of trace events. Implementations must be safe
// for concurrent use when attached to the real-time serving path; the
// simulators call Emit from a single goroutine. *Tracer and *Ring both
// implement Sink.
type Sink interface {
	Emit(Event)
}

// Fanout returns a Sink that forwards every event to each non-nil sink, or
// nil when none remain — callers can attach the result unconditionally.
func Fanout(sinks ...Sink) Sink {
	live := make(multiSink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

type multiSink []Sink

func (m multiSink) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// chunkLen is the number of events one tracer chunk holds.
const chunkLen = 4096

// Tracer collects events. A nil *Tracer is a valid no-op sink, so policies
// can call methods on it unconditionally.
//
// Events are stored in fixed-size chunks: recording fills the current chunk
// and starts a new one when it is full, so a long run never copies its
// history. Events flattens the chunks once, on demand; the writers and
// SpanBuilder.BuildTracer read them in place.
type Tracer struct {
	// flat holds the history Events last flattened; chunks hold what was
	// recorded after it, each of capacity chunkLen.
	flat   []Event
	chunks [][]Event
	n      int
	// models resolves Note's model names.
	models modelid.Memo
}

// Emit implements Sink by recording the event. No-op on a nil receiver.
func (t *Tracer) Emit(e Event) { t.Record(e) }

// New returns an empty tracer.
func New() *Tracer { return &Tracer{} }

// Record appends events in order. No-op on a nil receiver.
func (t *Tracer) Record(evs ...Event) {
	if t == nil {
		return
	}
	t.n += len(evs)
	for len(evs) > 0 {
		last := len(t.chunks) - 1
		if last < 0 || len(t.chunks[last]) == chunkLen {
			t.chunks = append(t.chunks, make([]Event, 0, chunkLen))
			last++
		}
		c := t.chunks[last]
		k := copy(c[len(c):chunkLen], evs)
		t.chunks[last] = c[:len(c)+k]
		evs = evs[k:]
	}
}

// Note records one event rendering note with args. No-op on a nil
// receiver.
func (t *Tracer) Note(atMs float64, kind EventKind, reqID int, model string, note Note, args ...float64) {
	if t == nil {
		return
	}
	e := Event{AtMs: atMs, Kind: kind, ReqID: reqID, Model: t.models.ID(model), Note: note}
	copy(e.Args[:], args)
	t.Record(e)
}

// Events returns the recorded events in insertion order, as one slice of
// exactly Len events that later calls return again until more events are
// recorded. Nil-safe.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	if len(t.chunks) > 0 {
		flat := make([]Event, 0, t.n)
		flat = append(flat, t.flat...)
		for _, c := range t.chunks {
			flat = append(flat, c...)
		}
		t.flat, t.chunks = flat, nil
	}
	return t.flat
}

// stream is a recorded event stream where it is held: a head of any
// length, then chunks that each hold chunkLen events but the last — a
// tracer's flattened history and the chunks recorded after it, or one
// plain slice. A stream index therefore maps to its event in O(1).
type stream struct {
	head   []Event
	chunks [][]Event
}

// stream returns what t recorded, in place. Nil-safe.
func (t *Tracer) stream() stream {
	if t == nil {
		return stream{}
	}
	return stream{head: t.flat, chunks: t.chunks}
}

// at returns the event at stream index i.
func (s *stream) at(i int) *Event {
	if i < len(s.head) {
		return &s.head[i]
	}
	i -= len(s.head)
	return &s.chunks[i/chunkLen][i%chunkLen]
}

// first returns the stream's first event, or nil when it is empty.
func (s *stream) first() *Event {
	switch {
	case len(s.head) > 0:
		return &s.head[0]
	case len(s.chunks) > 0:
		return &s.chunks[0][0]
	}
	return nil
}

// walk calls fn on every event in order with its stream index, stopping at
// the first error.
func (s *stream) walk(fn func(i int, e *Event) error) error {
	for i := range s.head {
		if err := fn(i, &s.head[i]); err != nil {
			return err
		}
	}
	base := len(s.head)
	for _, c := range s.chunks {
		for j := range c {
			if err := fn(base+j, &c[j]); err != nil {
				return err
			}
		}
		base += len(c)
	}
	return nil
}

// Len returns the number of recorded events. Nil-safe.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// WriteCSV emits the trace as CSV with a header row.
func (t *Tracer) WriteCSV(w io.Writer) error {
	lw := lineWriter{w: w}
	lw.buf = append(lw.buf, "at_ms,kind,req,model,block,device,detail\n"...)
	s := t.stream()
	if err := s.walk(func(_ int, e *Event) error {
		lw.buf = e.appendCSV(lw.buf)
		return lw.endLine()
	}); err != nil {
		return err
	}
	return lw.flush()
}

// WriteJSONL emits the trace as JSON lines.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	lw := lineWriter{w: w}
	s := t.stream()
	if err := s.walk(func(_ int, e *Event) error { return lw.event(e) }); err != nil {
		return err
	}
	return lw.flush()
}

// Gantt renders an ASCII Gantt chart of block executions between startMs and
// endMs: one row per request, one column per cell of width cellMs, '#' where
// an exec interval of the request's span (SpanTree) occupies the device.
// Requests are ordered by first execution, ties by request id.
func (t *Tracer) Gantt(startMs, endMs, cellMs float64) string {
	if cellMs <= 0 {
		cellMs = (endMs - startMs) / 80
	}
	cols := int((endMs - startMs) / cellMs)
	if cols <= 0 {
		return ""
	}
	type row struct {
		sp    *RequestSpan
		first float64 // start of the first exec interval
	}
	tree := SpanBuilder{}.BuildTracer(t)
	var rows []row
	for i := range tree.Requests {
		sp := &tree.Requests[i]
		r, inWindow := row{sp: sp, first: math.Inf(1)}, false
		for _, iv := range sp.Intervals {
			if iv.Phase == PhaseExec {
				r.first = min(r.first, iv.StartMs)
				inWindow = inWindow || iv.EndMs > startMs && iv.StartMs < endMs
			}
		}
		if inWindow {
			rows = append(rows, r)
		}
	}
	// The requests are in id order, so a stable sort breaks ties by id.
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].first < rows[j].first })

	var b strings.Builder
	for _, r := range rows {
		cells := []byte(strings.Repeat(".", cols))
		for _, iv := range r.sp.Intervals {
			if iv.Phase != PhaseExec {
				continue
			}
			lo := int((iv.StartMs - startMs) / cellMs)
			hi := int((iv.EndMs - startMs) / cellMs)
			for c := max(lo, 0); c <= hi && c < cols; c++ {
				cells[c] = '#'
			}
		}
		fmt.Fprintf(&b, "req%-4d %-10s |%s|\n", r.sp.ReqID, r.sp.Model, cells)
	}
	return b.String()
}
