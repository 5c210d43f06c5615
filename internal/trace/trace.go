// Package trace records scheduling timelines — arrivals, block starts and
// ends, preemption decisions, completions — and renders them as CSV, JSON
// lines, or an ASCII Gantt chart like the paper's Figures 1 and 3.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// EventKind labels a trace event.
type EventKind string

// Event kinds emitted by the policies.
const (
	Arrive     EventKind = "arrive"
	StartBlock EventKind = "start_block"
	EndBlock   EventKind = "end_block"
	Preempt    EventKind = "preempt"
	Complete   EventKind = "complete"
	Drop       EventKind = "drop"
	// ElasticOn / ElasticOff mark transitions of the §3.3 elastic mechanism:
	// ElasticOn means splitting is being suppressed (elastic mode active).
	ElasticOn  EventKind = "elastic_on"
	ElasticOff EventKind = "elastic_off"
	// Shed records a request dropped after it was enqueued — deadline
	// expiry, cancellation, drain timeout, stop, or device fault — with the
	// drop reason in Detail. Distinct from Drop, which records pre-enqueue
	// rejections.
	Shed EventKind = "shed"
	// Cancel records a cancellation taking effect on a request (Detail says
	// whether it was queued or in flight, and why).
	Cancel EventKind = "cancel"
	// Fault records an injected device fault on a block attempt: a latency
	// spike, a transient failure being retried, or a terminal device fault.
	Fault EventKind = "fault"
	// DrainStart / DrainEnd bracket a graceful drain: between them the
	// server accepts no new work and is finishing or shedding the backlog.
	DrainStart EventKind = "drain_start"
	DrainEnd   EventKind = "drain_end"
	// Place records a fleet placement decision: the chosen device is in
	// Device, the policy name in Detail. Emitted only by multi-device
	// deployments, so single-device traces are unchanged.
	Place EventKind = "place"
	// ScaleOut / ScaleIn record autoscaler membership changes: Device is
	// the device attached (scale-out) or beginning drain-then-release
	// (scale-in), Detail carries the triggering signal. They are control-
	// plane events and carry ReqID -1, so span folding ignores them.
	ScaleOut EventKind = "scale_out"
	ScaleIn  EventKind = "scale_in"
)

// Event is one timeline entry.
type Event struct {
	AtMs  float64   `json:"at_ms"`
	Kind  EventKind `json:"kind"`
	ReqID int       `json:"req"`
	Model string    `json:"model"`
	Block int       `json:"block,omitempty"`
	// Device is the fleet device the event happened on; 0 (and omitted
	// from JSON) on single-device deployments.
	Device int `json:"device,omitempty"`
	// Batch groups the StartBlock/EndBlock events of one batched device
	// grant: every member of a micro-batch carries the same non-zero id.
	// 0 (and omitted from JSON) means an unbatched scalar grant, so traces
	// from runs without batching are byte-identical to before.
	Batch int `json:"batch,omitempty"`
	// Part is the device partition slot the event happened on when the
	// fleet runs spatial sharing; 0 (and omitted from JSON) on
	// unpartitioned deployments, so temporal-only traces are byte-identical
	// to before.
	Part   int    `json:"part,omitempty"`
	Detail string `json:"detail,omitempty"`
}

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

// Tracer collects events. A nil *Tracer is a valid no-op sink, so policies
// can call methods on it unconditionally.
type Tracer struct {
	events []Event
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
	t.events = append(t.events, evs...)
}

// Recordf is shorthand for Record with a formatted detail string.
func (t *Tracer) Recordf(atMs float64, kind EventKind, reqID int, model string, block int, format string, args ...any) {
	if t == nil {
		return
	}
	t.Record(Event{AtMs: atMs, Kind: kind, ReqID: reqID, Model: model, Block: block,
		Detail: fmt.Sprintf(format, args...)})
}

// Events returns the recorded events in insertion order. Nil-safe.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Len returns the number of recorded events. Nil-safe.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// WriteCSV emits the trace as CSV with a header row.
func (t *Tracer) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "at_ms,kind,req,model,block,device,detail"); err != nil {
		return err
	}
	for _, e := range t.Events() {
		if _, err := fmt.Fprintf(w, "%.4f,%s,%d,%s,%d,%d,%q\n",
			e.AtMs, e.Kind, e.ReqID, e.Model, e.Block, e.Device, e.Detail); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSONL emits the trace as JSON lines.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range t.Events() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// Gantt renders an ASCII Gantt chart of block executions between startMs and
// endMs: one row per request, one column per cell of width cellMs, '#' where
// a block of that request occupies the device. Requests are ordered by first
// execution.
func (t *Tracer) Gantt(startMs, endMs, cellMs float64) string {
	type span struct{ s, e float64 }
	spans := map[int][]span{}
	labels := map[int]string{}
	open := map[int]float64{}
	firstRun := map[int]float64{}
	for _, e := range t.Events() {
		switch e.Kind {
		case StartBlock:
			open[e.ReqID] = e.AtMs
			labels[e.ReqID] = e.Model
			if _, ok := firstRun[e.ReqID]; !ok {
				firstRun[e.ReqID] = e.AtMs
			}
		case EndBlock:
			if s, ok := open[e.ReqID]; ok {
				spans[e.ReqID] = append(spans[e.ReqID], span{s, e.AtMs})
				delete(open, e.ReqID)
			}
		}
	}
	// Only render requests that actually occupy the window.
	ids := make([]int, 0, len(spans))
	for id, ss := range spans {
		for _, sp := range ss {
			if sp.e > startMs && sp.s < endMs {
				ids = append(ids, id)
				break
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return firstRun[ids[i]] < firstRun[ids[j]] })

	if cellMs <= 0 {
		cellMs = (endMs - startMs) / 80
	}
	cols := int((endMs - startMs) / cellMs)
	if cols <= 0 {
		return ""
	}
	var b strings.Builder
	for _, id := range ids {
		row := make([]byte, cols)
		for i := range row {
			row[i] = '.'
		}
		for _, sp := range spans[id] {
			lo := int((sp.s - startMs) / cellMs)
			hi := int((sp.e - startMs) / cellMs)
			for c := lo; c <= hi && c < cols; c++ {
				if c >= 0 {
					row[c] = '#'
				}
			}
		}
		fmt.Fprintf(&b, "req%-4d %-10s |%s|\n", id, labels[id], row)
	}
	return b.String()
}
