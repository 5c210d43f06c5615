package trace

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Phase names what a request was doing during one Interval. It is one
// byte in memory and its name in text, so the exports and /spanz spell it
// as a word.
type Phase uint8

// Interval phases inside a request span. Exec intervals come from
// StartBlock/EndBlock pairs; Wait covers time between arrival and the first
// grant; Preempted covers gaps between grants where the request had started
// but did not hold the device. The zero Phase names none of them.
const (
	PhaseWait Phase = iota + 1
	PhaseExec
	PhasePreempted
)

var phaseNames = [...]string{PhaseWait: "wait", PhaseExec: "exec", PhasePreempted: "preempted"}

// String returns the phase's name: "wait", "exec", "preempted", or "" for
// the zero phase.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "Phase(" + strconv.Itoa(int(p)) + ")"
}

// MarshalText spells the phase as String does.
func (p Phase) MarshalText() ([]byte, error) {
	if int(p) >= len(phaseNames) {
		return nil, fmt.Errorf("trace: invalid phase %d", uint8(p))
	}
	return []byte(phaseNames[p]), nil
}

// UnmarshalText reads what MarshalText writes.
func (p *Phase) UnmarshalText(text []byte) error {
	for i, name := range phaseNames {
		if string(text) == name {
			*p = Phase(i)
			return nil
		}
	}
	return fmt.Errorf("trace: unknown phase %q", text)
}

// Interval is one contiguous phase of a request's lifetime: 64 bytes with
// no pointer, its placement fields as narrow as Event's.
type Interval struct {
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
	// Args are the arguments of the source StartBlock's Note (exec
	// intervals only), rendered by Detail and exported as "detail".
	Args  [4]float64 `json:"-"`
	Batch int32      `json:"batch,omitempty"`
	// Block is the block index for exec intervals, -1 otherwise.
	Block int16 `json:"block"`
	// Device is the fleet device (exec intervals; -1 for wait/preempted,
	// which happen in the queue, not on a device).
	Device int16 `json:"device"`
	// Part is the device partition slot for exec intervals on spatially
	// shared fleets; 0 otherwise.
	Part  int8  `json:"part,omitempty"`
	Phase Phase `json:"phase"`
	// Note is the source StartBlock's note.
	Note Note `json:"-"`
}

// DurationMs is the interval length.
func (iv Interval) DurationMs() float64 { return iv.EndMs - iv.StartMs }

// Detail renders the interval's note, the source event's detail.
func (iv Interval) Detail() string { return iv.Note.render(&iv.Args) }

// Occupancy is the share of its device an exec interval's hold occupies:
// the granted fraction when the source StartBlock's note carries one, 1
// otherwise. The members of a micro-batch share one hold, so it counts once
// per batch id: counted records the batch ids already seen, and every later
// member of a batch occupies 0. A batched partition hold's note carries its
// member count, not its fraction, so it counts whole.
func (iv Interval) Occupancy(counted map[int]bool) float64 {
	if iv.Batch != 0 {
		if counted[int(iv.Batch)] {
			return 0
		}
		counted[int(iv.Batch)] = true
	}
	if iv.Note == NoteDurFrac {
		return iv.Args[1]
	}
	return 1
}

// RequestSpan is one request's causal span tree: its lifetime decomposed
// into wait / exec / preempted intervals, with the derived quantities the
// paper's Figures 6 and 7 are built from.
type RequestSpan struct {
	ReqID int    `json:"req"`
	Model string `json:"model"`
	// Outcome is "served" for completed requests, the shed/drop reason for
	// terminated ones, and "open" for requests still undecided when the
	// event stream ended (or truncated out of a ring snapshot).
	Outcome   string     `json:"outcome"`
	ArriveMs  float64    `json:"arrive_ms"`
	DoneMs    float64    `json:"done_ms"`
	Intervals []Interval `json:"intervals"`
	// Derived decomposition: WaitMs + ExecMs + PreemptedMs spans
	// [ArriveMs, DoneMs] exactly for decided, non-truncated requests.
	WaitMs      float64 `json:"wait_ms"`
	ExecMs      float64 `json:"exec_ms"`
	PreemptedMs float64 `json:"preempted_ms"`
	// Blocks is the number of exec intervals (block executions, including
	// retried attempts merged into their boundary-delimited device holds).
	Blocks int `json:"blocks"`
	// Devices lists the distinct devices the request executed on, in first-
	// use order; DeviceHops counts transitions between consecutive exec
	// intervals on different devices.
	Devices    []int `json:"devices,omitempty"`
	DeviceHops int   `json:"device_hops"`
	// Batches lists the distinct batch ids the request's grants belonged
	// to (empty when it never executed inside a micro-batch).
	Batches []int `json:"batches,omitempty"`
	// Preemptions counts Preempt events attributed to the request.
	Preemptions int `json:"preemptions"`
	// Truncated marks a span reconstructed from a stream that is missing
	// the request's Arrive event (e.g. a ring snapshot that wrapped);
	// invariant checks that need the full lifetime are skipped for it.
	Truncated bool `json:"truncated,omitempty"`
}

// Decided reports whether the request reached a terminal outcome in the
// analysed stream.
func (rs *RequestSpan) Decided() bool { return rs.Outcome != "open" }

// E2EMs is the request's observed lifetime in the stream.
func (rs *RequestSpan) E2EMs() float64 { return rs.DoneMs - rs.ArriveMs }

// SpanOutcomeServed labels completed requests in RequestSpan.Outcome.
// Shed spans carry the shed reason from the event stream instead.
const SpanOutcomeServed = "served"

// SpanTree is the folded view of a whole event stream: one RequestSpan per
// request plus per-device occupancy lanes, with the invariant problems
// found while folding. Its exec intervals are the only pairing of a
// grant's StartBlock with its EndBlock that the offline views (Analyze,
// Gantt, obs.TimeSeriesFromRun) read. A grant still open when the stream
// ends, on a request that never settled, is closed at the stream's last
// event; a completed simulator run leaves none open.
type SpanTree struct {
	Requests []RequestSpan `json:"requests"`
	// FirstMs/LastMs bound the analysed stream.
	FirstMs float64 `json:"first_ms"`
	LastMs  float64 `json:"last_ms"`
	// Problems lists invariant violations found while folding: overlapping
	// device grants, EndBlock without StartBlock, settle before the final
	// grant released, out-of-order timestamps inside one request. A stream
	// produced by the simulators or the server folds with none.
	Problems []string `json:"problems,omitempty"`
}

// Span returns the span for the given request id, or nil.
func (t *SpanTree) Span(id int) *RequestSpan {
	for i := range t.Requests {
		if t.Requests[i].ReqID == id {
			return &t.Requests[i]
		}
	}
	return nil
}

// SpanBuilder folds a flat event stream — from a Tracer or a Ring
// snapshot; sim and serve emit the same vocabulary — into a SpanTree. The
// zero value is ready to use.
type SpanBuilder struct {
	// MaxRequests, when > 0, keeps only the MaxRequests most recently
	// arrived requests in the result (the /spanz ?n= knob).
	MaxRequests int
}

// spanState is what the fold needs about one request beyond its span.
// The open grant is kept as the index of its StartBlock in the stream,
// which holds everything an exec interval needs from it.
type spanState struct {
	open     int     // stream index of the open grant's StartBlock, -1 when none
	lastEnd  float64 // end of the last closed exec interval
	seen     bool    // any event observed
	arrived  bool    // Arrive event observed
	executed bool    // at least one exec interval closed
}

// deviceHold is one closed device grant, for the overlap check. Batched
// grants share one hold per member but the same batch id, so same-batch
// overlap is legal by construction.
type deviceHold struct {
	startMs, endMs float64
	req            int
	batch          int
}

// laneKey identifies one occupancy lane for the overlap check: grants on
// distinct partitions of one device legally overlap under spatial sharing,
// so exclusivity is per (device, partition), not per device. Unpartitioned
// streams carry part 0 everywhere and collapse to the per-device check.
type laneKey struct {
	dev, part int
}

// execInterval is the exec interval of the grant opened by start and
// released at endMs.
func execInterval(start *Event, endMs float64) Interval {
	return Interval{Phase: PhaseExec, Block: start.Block, Device: start.Device, Part: start.Part,
		Batch: start.Batch, StartMs: start.AtMs, EndMs: endMs, Note: start.Note, Args: start.Args}
}

// Build folds events into a SpanTree. The stream does not need to be
// time-sorted across requests (ring snapshots are, tracer streams are),
// but each request's own events must be in causal order — violations are
// reported in Problems, not silently absorbed.
func (b SpanBuilder) Build(events []Event) *SpanTree {
	return b.build(stream{head: events})
}

// BuildTracer is Build over everything t recorded, read where the tracer
// holds it: the fold walks the tracer's chunks in place, so it never pays
// for the one flat copy Events makes. Nil-safe.
func (b SpanBuilder) BuildTracer(t *Tracer) *SpanTree {
	return b.build(t.stream())
}

// spanFold is one Build in progress.
type spanFold struct {
	s      *stream
	t      *SpanTree
	states []spanState
	index  map[int]int // request id -> position in first-sight order
	holds  map[laneKey][]deviceHold
}

func (b SpanBuilder) build(s stream) *SpanTree {
	t := &SpanTree{}
	e0 := s.first()
	if e0 == nil {
		return t
	}
	t.FirstMs, t.LastMs = e0.AtMs, e0.AtMs

	// Size the output before folding. Every request of a complete stream
	// has one Arrive, so the spans are allocated once at their final
	// length; a ring snapshot's truncated requests append beyond it. A lane
	// holds at most one grant per StartBlock on it.
	arrivals := 0
	starts := map[laneKey]int{}
	s.walk(func(_ int, e *Event) error {
		switch e.Kind {
		case Arrive:
			arrivals++
		case StartBlock:
			starts[laneKey{int(e.Device), int(e.Part)}]++
		}
		return nil
	})
	t.Requests = make([]RequestSpan, 0, arrivals)
	f := &spanFold{s: &s, t: t, states: make([]spanState, 0, arrivals),
		index: make(map[int]int, arrivals), holds: make(map[laneKey][]deviceHold, len(starts))}
	for l, n := range starts {
		f.holds[l] = make([]deviceHold, 0, n)
	}
	s.walk(func(i int, e *Event) error {
		f.event(i, e)
		return nil
	})
	f.finish()

	// The spans are in arrival order. Keep the MaxRequests most recently
	// arrived, if asked, and put them in request order — which a stream
	// whose ids grow with arrival already is.
	switch {
	case len(t.Requests) == 0:
		t.Requests = nil
	case b.MaxRequests > 0 && len(t.Requests) > b.MaxRequests:
		t.Requests = t.Requests[len(t.Requests)-b.MaxRequests:]
	}
	byID := func(i, j int) bool { return t.Requests[i].ReqID < t.Requests[j].ReqID }
	if !sort.SliceIsSorted(t.Requests, byID) {
		sort.Slice(t.Requests, byID)
	}
	f.checkLanes()
	return t
}

func (f *spanFold) problemf(format string, args ...any) {
	f.t.Problems = append(f.t.Problems, fmt.Sprintf(format, args...))
}

// get returns e's request span and fold state, opening them on first sight.
func (f *spanFold) get(e *Event) (*RequestSpan, *spanState) {
	t := f.t
	k, ok := f.index[e.ReqID]
	if !ok {
		k = len(t.Requests)
		f.index[e.ReqID] = k
		t.Requests = append(t.Requests, RequestSpan{ReqID: e.ReqID, Model: e.Model.String(), Outcome: "open",
			ArriveMs: e.AtMs, DoneMs: e.AtMs,
			// Place legally precedes Arrive: the engine routes a request
			// before Algorithm 1 inserts it. Any other first sight is
			// mid-flight: the Arrive event was truncated out of the stream
			// (ring wrap). The span is still useful, but lifetime
			// invariants cannot be checked.
			Truncated: e.Kind != Arrive && e.Kind != Place})
		f.states = append(f.states, spanState{open: -1})
	}
	sp := &t.Requests[k]
	if sp.Model == "" && e.Model != 0 {
		sp.Model = e.Model.String()
	}
	return sp, &f.states[k]
}

// event folds the event at stream index i.
func (f *spanFold) event(i int, e *Event) {
	t := f.t
	if e.AtMs < t.FirstMs {
		t.FirstMs = e.AtMs
	}
	if e.AtMs > t.LastMs {
		t.LastMs = e.AtMs
	}
	// Run-level events carry ReqID -1 (drain markers, elastic
	// transitions) or describe pre-enqueue rejections; neither opens a
	// request span.
	if e.ReqID < 0 || e.Kind == Drop || e.Kind == ElasticOn || e.Kind == ElasticOff ||
		e.Kind == DrainStart || e.Kind == DrainEnd {
		return
	}
	sp, st := f.get(e)
	switch e.Kind {
	case Arrive:
		if st.arrived {
			f.problemf("req %d: duplicate arrive at %.3f", e.ReqID, e.AtMs)
		}
		st.arrived = true
		sp.ArriveMs = e.AtMs
		if !st.seen {
			sp.DoneMs = e.AtMs
		}
	case StartBlock:
		if st.open >= 0 {
			f.problemf("req %d: start_block %d at %.3f with block %d still open",
				e.ReqID, e.Block, e.AtMs, f.s.at(st.open).Block)
			// Close the dangling grant zero-length so folding continues.
			st.open = -1
		}
		if sp.Decided() {
			f.problemf("req %d: start_block %d at %.3f after settle (%s)",
				e.ReqID, e.Block, e.AtMs, sp.Outcome)
		}
		st.open = i
	case EndBlock:
		if st.open < 0 {
			f.problemf("req %d: end_block %d at %.3f without start_block",
				e.ReqID, e.Block, e.AtMs)
			break
		}
		start := f.s.at(st.open)
		if e.AtMs < start.AtMs {
			f.problemf("req %d: end_block %d at %.3f before its start %.3f",
				e.ReqID, e.Block, e.AtMs, start.AtMs)
		}
		// Close the wait/preempted gap that preceded this grant.
		f.gap(sp, st, start.AtMs)
		iv := execInterval(start, e.AtMs)
		sp.Intervals = append(sp.Intervals, iv)
		dev, batch := int(iv.Device), int(iv.Batch)
		lane := laneKey{dev, int(iv.Part)}
		f.holds[lane] = append(f.holds[lane], deviceHold{iv.StartMs, iv.EndMs, e.ReqID, batch})
		sp.Blocks++
		if len(sp.Devices) == 0 || sp.Devices[len(sp.Devices)-1] != dev {
			if st.executed {
				sp.DeviceHops++
			}
			if !slices.Contains(sp.Devices, dev) {
				sp.Devices = append(sp.Devices, dev)
			}
		}
		if batch != 0 && !slices.Contains(sp.Batches, batch) {
			sp.Batches = append(sp.Batches, batch)
		}
		st.lastEnd = e.AtMs
		st.executed = true
		st.open = -1
	case Preempt:
		sp.Preemptions++
	case Complete, Shed:
		if sp.Decided() {
			f.problemf("req %d: %s at %.3f after settle (%s)", e.ReqID, e.Kind, e.AtMs, sp.Outcome)
			break
		}
		if st.open >= 0 {
			f.problemf("req %d: %s at %.3f with block %d still holding the device",
				e.ReqID, e.Kind, e.AtMs, f.s.at(st.open).Block)
		}
		if st.executed && e.AtMs < st.lastEnd {
			f.problemf("req %d: settle at %.3f before last grant released at %.3f",
				e.ReqID, e.AtMs, st.lastEnd)
		}
		sp.DoneMs = e.AtMs
		if e.Kind == Complete {
			sp.Outcome = SpanOutcomeServed
		} else {
			sp.Outcome = e.Detail()
			if sp.Outcome == "" {
				sp.Outcome = "shed"
			}
		}
		// A settle later than the last grant release (always the case
		// for queued sheds, never for boundary completions) leaves a
		// trailing non-exec gap; close it so the decomposition covers
		// the whole lifetime.
		f.gap(sp, st, e.AtMs)
	case Cancel, Fault, Place:
		// Annotations on the request's lifetime; they shift no phase
		// boundaries. (Cancellation takes effect at the settle event.)
	}
	st.seen = true
}

// gap closes the non-exec interval that ends at endMs: a wait since arrival
// before the first grant, a preempted gap since the last release after it.
func (f *spanFold) gap(sp *RequestSpan, st *spanState, endMs float64) {
	gapStart, phase := sp.ArriveMs, PhaseWait
	if st.executed {
		gapStart, phase = st.lastEnd, PhasePreempted
	}
	if endMs > gapStart {
		sp.Intervals = append(sp.Intervals, Interval{Phase: phase, Block: -1, Device: -1,
			StartMs: gapStart, EndMs: endMs})
	}
}

// finish sums each span's decomposition and closes never-closed grants.
func (f *spanFold) finish() {
	t := f.t
	for k := range t.Requests {
		sp, st := &t.Requests[k], &f.states[k]
		if st.open >= 0 && sp.Outcome == "open" {
			// In-flight at stream end: legal for live snapshots; represent
			// the open grant as an exec interval up to the stream horizon.
			sp.Intervals = append(sp.Intervals, execInterval(f.s.at(st.open), t.LastMs))
			sp.Blocks++
			sp.DoneMs = t.LastMs
		}
		if sp.Outcome == "open" && st.executed && sp.DoneMs < st.lastEnd {
			sp.DoneMs = st.lastEnd
		}
		for _, iv := range sp.Intervals {
			switch iv.Phase {
			case PhaseWait:
				sp.WaitMs += iv.DurationMs()
			case PhaseExec:
				sp.ExecMs += iv.DurationMs()
			case PhasePreempted:
				sp.PreemptedMs += iv.DurationMs()
			}
		}
	}
}

// checkLanes is the per-lane overlap check: two closed grants on one
// (device, partition) lane may not overlap unless they belong to the same
// micro-batch. Grants on distinct partitions of one device are concurrent
// by design.
func (f *spanFold) checkLanes() {
	const eps = 1e-9
	lanes := make([]laneKey, 0, len(f.holds))
	for l := range f.holds {
		lanes = append(lanes, l)
	}
	sort.Slice(lanes, func(i, j int) bool {
		if lanes[i].dev != lanes[j].dev {
			return lanes[i].dev < lanes[j].dev
		}
		return lanes[i].part < lanes[j].part
	})
	for _, l := range lanes {
		hs := f.holds[l]
		sort.Slice(hs, func(i, j int) bool {
			if hs[i].startMs != hs[j].startMs {
				return hs[i].startMs < hs[j].startMs
			}
			return hs[i].endMs < hs[j].endMs
		})
		lane := fmt.Sprintf("device %d", l.dev)
		if l.part != 0 {
			lane = fmt.Sprintf("device %d part %d", l.dev, l.part)
		}
		for i := 1; i < len(hs); i++ {
			prev, cur := hs[i-1], hs[i]
			if cur.startMs < prev.endMs-eps && !(cur.batch != 0 && cur.batch == prev.batch) {
				f.problemf("%s: grants overlap: req %d [%.3f, %.3f] and req %d [%.3f, %.3f]",
					lane, prev.req, prev.startMs, prev.endMs, cur.req, cur.startMs, cur.endMs)
			}
		}
	}
}

// BuildSpans is shorthand for the zero-configured SpanBuilder.
func BuildSpans(events []Event) *SpanTree {
	return SpanBuilder{}.Build(events)
}

// Summary renders one line per request: the wait/exec/preempted
// decomposition behind the paper's per-request latency stories.
func (t *SpanTree) Summary() string {
	// One builder for the whole tree: appending each line to a string
	// copied everything rendered so far, quadratic in the request count.
	var out strings.Builder
	for i := range t.Requests {
		sp := &t.Requests[i]
		fmt.Fprintf(&out, "req%-4d %-10s %-12s arrive=%.1f done=%.1f wait=%.1f exec=%.1f preempted=%.1f blocks=%d preempts=%d\n",
			sp.ReqID, sp.Model, sp.Outcome, sp.ArriveMs, sp.DoneMs,
			sp.WaitMs, sp.ExecMs, sp.PreemptedMs, sp.Blocks, sp.Preemptions)
	}
	return out.String()
}
