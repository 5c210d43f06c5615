package trace

import (
	"math"
	"testing"

	"split/internal/modelid"
)

// ev is shorthand for building event streams in tests.
func ev(at float64, kind EventKind, req int, model string, block int) Event {
	return Event{AtMs: at, Kind: kind, ReqID: req, Model: modelid.Intern(model), Block: int16(block)}
}

// TestSpanBuilderDecomposition folds a hand-built two-request preemption
// timeline and checks every derived quantity.
//
// Timeline (one device): r0 (2 x 10 ms blocks) arrives at 0 and starts
// immediately; r1 (one 5 ms block) arrives at 4, preempts r0 at its block
// boundary (t=10), runs 10..15; r0 resumes 15..25 and completes.
func TestSpanBuilderDecomposition(t *testing.T) {
	events := []Event{
		ev(0, Arrive, 0, "long", 0),
		ev(0, StartBlock, 0, "long", 0),
		ev(4, Arrive, 1, "short", 0),
		ev(10, EndBlock, 0, "long", 0),
		ev(10, Preempt, 0, "long", 1),
		ev(10, StartBlock, 1, "short", 0),
		ev(15, EndBlock, 1, "short", 0),
		ev(15, Complete, 1, "short", 0),
		ev(15, StartBlock, 0, "long", 1),
		ev(25, EndBlock, 0, "long", 1),
		ev(25, Complete, 0, "long", 1),
	}
	tree := BuildSpans(events)
	if len(tree.Problems) != 0 {
		t.Fatalf("unexpected problems: %v", tree.Problems)
	}
	if len(tree.Requests) != 2 {
		t.Fatalf("got %d spans, want 2", len(tree.Requests))
	}

	r0 := tree.Span(0)
	if r0 == nil || r0.Outcome != SpanOutcomeServed {
		t.Fatalf("r0 = %+v", r0)
	}
	if r0.Blocks != 2 || r0.Preemptions != 1 {
		t.Errorf("r0 blocks=%d preemptions=%d, want 2/1", r0.Blocks, r0.Preemptions)
	}
	if r0.ExecMs != 20 || r0.WaitMs != 0 || r0.PreemptedMs != 5 {
		t.Errorf("r0 exec/wait/preempted = %v/%v/%v, want 20/0/5", r0.ExecMs, r0.WaitMs, r0.PreemptedMs)
	}

	r1 := tree.Span(1)
	if r1.ExecMs != 5 || r1.WaitMs != 6 || r1.PreemptedMs != 0 {
		t.Errorf("r1 exec/wait/preempted = %v/%v/%v, want 5/6/0", r1.ExecMs, r1.WaitMs, r1.PreemptedMs)
	}

	// The decomposition identity: wait + exec + preempted == e2e.
	for _, sp := range tree.Requests {
		if got := sp.WaitMs + sp.ExecMs + sp.PreemptedMs; math.Abs(got-sp.E2EMs()) > 1e-9 {
			t.Errorf("req %d: decomposition %v != e2e %v", sp.ReqID, got, sp.E2EMs())
		}
	}
}

// TestSpanBuilderQueuedShed: a request shed while queued decomposes into
// pure wait.
func TestSpanBuilderQueuedShed(t *testing.T) {
	events := []Event{
		ev(0, Arrive, 7, "m", 0),
		{AtMs: 30, Kind: Shed, ReqID: 7, Model: modelid.Intern("m"), Note: NoteWord, Args: [4]float64{float64(WordOf(ReasonDeadline))}},
	}
	tree := BuildSpans(events)
	sp := tree.Span(7)
	if sp.Outcome != "deadline" {
		t.Fatalf("outcome = %q, want deadline", sp.Outcome)
	}
	if sp.WaitMs != 30 || sp.ExecMs != 0 || sp.PreemptedMs != 0 {
		t.Errorf("decomposition %v/%v/%v, want 30/0/0", sp.WaitMs, sp.ExecMs, sp.PreemptedMs)
	}
	if len(tree.Problems) != 0 {
		t.Errorf("problems: %v", tree.Problems)
	}
}

// TestSpanBuilderDeviceOverlapDetected: two closed grants overlapping on
// one device is an invariant violation.
func TestSpanBuilderDeviceOverlapDetected(t *testing.T) {
	events := []Event{
		ev(0, Arrive, 0, "a", 0),
		ev(0, Arrive, 1, "b", 0),
		ev(0, StartBlock, 0, "a", 0),
		ev(5, StartBlock, 1, "b", 0),
		ev(10, EndBlock, 0, "a", 0),
		ev(12, EndBlock, 1, "b", 0),
	}
	tree := BuildSpans(events)
	if len(tree.Problems) == 0 {
		t.Fatal("overlapping grants not reported")
	}
}

// TestSpanBuilderBatchSharesGrant: batch members share one device hold
// without tripping the overlap check, and the batch id is recorded.
func TestSpanBuilderBatchSharesGrant(t *testing.T) {
	events := []Event{
		ev(0, Arrive, 0, "m", 0),
		ev(1, Arrive, 1, "m", 0),
		{AtMs: 2, Kind: StartBlock, ReqID: 0, Model: modelid.Intern("m"), Block: 0, Batch: 9},
		{AtMs: 2, Kind: StartBlock, ReqID: 1, Model: modelid.Intern("m"), Block: 0, Batch: 9},
		{AtMs: 8, Kind: EndBlock, ReqID: 0, Model: modelid.Intern("m"), Block: 0, Batch: 9},
		{AtMs: 8, Kind: EndBlock, ReqID: 1, Model: modelid.Intern("m"), Block: 0, Batch: 9},
		ev(8, Complete, 0, "m", 0),
		ev(8, Complete, 1, "m", 0),
	}
	tree := BuildSpans(events)
	if len(tree.Problems) != 0 {
		t.Fatalf("batch grant flagged: %v", tree.Problems)
	}
	if got := tree.Span(1).Batches; len(got) != 1 || got[0] != 9 {
		t.Errorf("batches = %v, want [9]", got)
	}
}

// TestSpanBuilderViolations: settle-before-release and end-without-start
// are reported, not absorbed.
func TestSpanBuilderViolations(t *testing.T) {
	cases := map[string][]Event{
		"end_without_start": {
			ev(0, Arrive, 0, "m", 0),
			ev(5, EndBlock, 0, "m", 0),
		},
		"settle_under_grant": {
			ev(0, Arrive, 0, "m", 0),
			ev(0, StartBlock, 0, "m", 0),
			ev(3, Complete, 0, "m", 0),
		},
		"double_start": {
			ev(0, Arrive, 0, "m", 0),
			ev(0, StartBlock, 0, "m", 0),
			ev(1, StartBlock, 0, "m", 1),
		},
	}
	for name, events := range cases {
		if tree := BuildSpans(events); len(tree.Problems) == 0 {
			t.Errorf("%s: no problem reported", name)
		}
	}
}

// TestSpanBuilderTruncatedStream: a stream missing the arrive (ring wrap)
// still folds, marked truncated.
func TestSpanBuilderTruncatedStream(t *testing.T) {
	events := []Event{
		ev(10, StartBlock, 3, "m", 1),
		ev(20, EndBlock, 3, "m", 1),
		ev(20, Complete, 3, "m", 1),
	}
	tree := BuildSpans(events)
	sp := tree.Span(3)
	if sp == nil || !sp.Truncated {
		t.Fatalf("span = %+v, want truncated", sp)
	}
	if sp.ExecMs != 10 || sp.Outcome != SpanOutcomeServed {
		t.Errorf("exec=%v outcome=%q", sp.ExecMs, sp.Outcome)
	}
}

// TestSpanBuilderOpenGrantAtStreamEnd: a live snapshot may end mid-block;
// the open grant becomes an exec interval to the horizon, outcome "open".
func TestSpanBuilderOpenGrantAtStreamEnd(t *testing.T) {
	events := []Event{
		ev(0, Arrive, 0, "m", 0),
		ev(2, StartBlock, 0, "m", 0),
		ev(6, Arrive, 1, "m", 0), // advances the horizon past the open start
	}
	tree := BuildSpans(events)
	sp := tree.Span(0)
	if sp.Outcome != "open" || sp.Blocks != 1 {
		t.Fatalf("span = %+v, want open with 1 block", sp)
	}
	if sp.ExecMs != 4 { // 2..6 (horizon)
		t.Errorf("exec = %v, want 4", sp.ExecMs)
	}
	if len(tree.Problems) != 0 {
		t.Errorf("problems: %v", tree.Problems)
	}
}

// TestSpanBuilderMaxRequests keeps the most recently arrived spans.
func TestSpanBuilderMaxRequests(t *testing.T) {
	var events []Event
	for i := 0; i < 5; i++ {
		events = append(events, ev(float64(i), Arrive, i, "m", 0))
	}
	tree := SpanBuilder{MaxRequests: 2}.Build(events)
	if len(tree.Requests) != 2 {
		t.Fatalf("got %d spans, want 2", len(tree.Requests))
	}
	if tree.Requests[0].ReqID != 3 || tree.Requests[1].ReqID != 4 {
		t.Errorf("kept %d and %d, want 3 and 4", tree.Requests[0].ReqID, tree.Requests[1].ReqID)
	}
}

// TestSpanBuilderDeviceHops: exec intervals on different devices count
// hops and record the lanes.
func TestSpanBuilderDeviceHops(t *testing.T) {
	events := []Event{
		ev(0, Arrive, 0, "m", 0),
		{AtMs: 0, Kind: StartBlock, ReqID: 0, Model: modelid.Intern("m"), Block: 0, Device: 0},
		{AtMs: 5, Kind: EndBlock, ReqID: 0, Model: modelid.Intern("m"), Block: 0, Device: 0},
		{AtMs: 7, Kind: StartBlock, ReqID: 0, Model: modelid.Intern("m"), Block: 1, Device: 2},
		{AtMs: 12, Kind: EndBlock, ReqID: 0, Model: modelid.Intern("m"), Block: 1, Device: 2},
		ev(12, Complete, 0, "m", 1),
	}
	tree := BuildSpans(events)
	sp := tree.Span(0)
	if sp.DeviceHops != 1 || len(sp.Devices) != 2 {
		t.Errorf("hops=%d devices=%v, want 1 hop over [0 2]", sp.DeviceHops, sp.Devices)
	}
	if sp.PreemptedMs != 2 {
		t.Errorf("preempted = %v, want 2", sp.PreemptedMs)
	}
}

// TestSpanTreeSummaryBytes pins Summary's rendering. The expected text was
// produced by the implementation that concatenated lines with += (quadratic
// in the request count); the strings.Builder one must render the same bytes.
func TestSpanTreeSummaryBytes(t *testing.T) {
	tree := &SpanTree{Requests: []RequestSpan{
		{ReqID: 0, Model: "vgg19", Outcome: SpanOutcomeServed, ArriveMs: 0, DoneMs: 93.25, WaitMs: 12.5, ExecMs: 77.11, PreemptedMs: 3.64, Blocks: 3, Preemptions: 1},
		{ReqID: 7, Model: "yolov2", Outcome: ReasonDeadline, ArriveMs: 40.04, DoneMs: 83.26, WaitMs: 43.22},
		{ReqID: 12345, Model: "a-long-model-name", Outcome: "open", ArriveMs: 1e6, DoneMs: 1e6},
	}}
	const want = "req0    vgg19      served       arrive=0.0 done=93.2 wait=12.5 exec=77.1 preempted=3.6 blocks=3 preempts=1\n" +
		"req7    yolov2     deadline     arrive=40.0 done=83.3 wait=43.2 exec=0.0 preempted=0.0 blocks=0 preempts=0\n" +
		"req12345 a-long-model-name open         arrive=1000000.0 done=1000000.0 wait=0.0 exec=0.0 preempted=0.0 blocks=0 preempts=0\n"
	if got := tree.Summary(); got != want {
		t.Errorf("Summary rendered\n%q\nwant\n%q", got, want)
	}
	if got := (&SpanTree{}).Summary(); got != "" {
		t.Errorf("empty tree rendered %q", got)
	}
}
