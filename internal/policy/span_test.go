package policy

import (
	"math"
	"reflect"
	"testing"

	"split/internal/engine"
	"split/internal/trace"
)

// TestSplitRunFoldsToCleanSpans: every SPLIT variant's event stream —
// single device, fleet, batching, deadlines — folds into span trees with
// zero invariant problems, and the folded spans agree with the run's own
// records on outcome and latency decomposition. This pins the event
// vocabulary: a sim change that breaks causal ordering (grant overlap,
// settle before release, missing arrive) fails here, not in a viewer.
func TestSplitRunFoldsToCleanSpans(t *testing.T) {
	catalog := synthCatalog()
	variants := map[string]*Split{
		"single":    {Knobs: engine.Knobs{Alpha: 4}},
		"deadlines": {Knobs: engine.Knobs{Alpha: 4, EnforceDeadlines: true, PredictiveShed: true}},
		"fleet":     {Knobs: engine.Knobs{Alpha: 4, Devices: 3}},
		"batching":  {Knobs: engine.Knobs{Alpha: 4, Devices: 2, BatchMax: 4}},
	}
	for name, sys := range variants {
		t.Run(name, func(t *testing.T) {
			arrivals := scenarioArrivals(11)
			tr := trace.New()
			recs := sys.Run(arrivals, catalog, tr)
			tree := trace.BuildSpans(tr.Events())
			if len(tree.Problems) != 0 {
				t.Fatalf("span problems: %v", tree.Problems[:min(5, len(tree.Problems))])
			}
			if len(tree.Requests) != len(recs) {
				t.Fatalf("%d spans for %d records", len(tree.Requests), len(recs))
			}
			for _, r := range recs {
				sp := tree.Span(r.ID)
				if sp == nil {
					t.Fatalf("record %d has no span", r.ID)
				}
				wantOutcome := trace.SpanOutcomeServed
				if !r.Served() {
					wantOutcome = r.Outcome
				}
				if sp.Outcome != wantOutcome {
					t.Errorf("req %d: span outcome %q, record %q", r.ID, sp.Outcome, wantOutcome)
				}
				if sp.Truncated {
					t.Errorf("req %d truncated in a full tracer stream", r.ID)
				}
				// The span's phase decomposition must cover the record's
				// lifetime exactly.
				if got := sp.WaitMs + sp.ExecMs + sp.PreemptedMs; math.Abs(got-r.E2EMs()) > 1e-6 {
					t.Errorf("req %d: decomposition %v != record e2e %v", r.ID, got, r.E2EMs())
				}
				// A served, unbatched request's exec time is its isolated
				// time: splitting is free in the synthetic catalog and the
				// span's exec intervals are exactly the granted holds.
				if r.Served() && len(sp.Batches) == 0 && math.Abs(sp.ExecMs-r.ExtMs) > 1e-6 {
					t.Errorf("req %d: span exec %v, record ext %v", r.ID, sp.ExecMs, r.ExtMs)
				}
				if sp.Preemptions != r.Preemptions {
					t.Errorf("req %d: span preemptions %d, record %d", r.ID, sp.Preemptions, r.Preemptions)
				}
			}
		})
	}
}

// TestConcurrentSystemsOverlapIsReported: RT-A runs streams concurrently on
// one device, which the span folder must surface as overlap problems —
// they are real schedule facts, not folding bugs, and the exclusive-hold
// systems above prove the checker is not trigger-happy.
func TestConcurrentSystemsOverlapIsReported(t *testing.T) {
	tr := trace.New()
	NewRTA().Run(scenarioArrivals(3), synthCatalog(), tr)
	tree := trace.BuildSpans(tr.Events())
	if len(tree.Problems) == 0 {
		t.Error("RT-A concurrent streams folded with no overlap problems")
	}
}

// TestBuildTracerMatchesBuildSpans: folding a tracer in place gives the
// tree folding its flattened events gives, on a traced all-features run
// whose stream spans many tracer chunks.
func TestBuildTracerMatchesBuildSpans(t *testing.T) {
	tr := trace.New()
	allFeatures().Run(goldenArrivals(t), goldenCatalog(), tr)
	if tr.Len() <= 2*4096 {
		t.Fatalf("%d events fill fewer than three tracer chunks", tr.Len())
	}
	got := trace.SpanBuilder{}.BuildTracer(tr)
	if want := trace.BuildSpans(tr.Events()); !reflect.DeepEqual(got, want) {
		t.Fatal("BuildTracer's tree differs from BuildSpans(tr.Events())")
	}
	if len(got.Problems) > 0 {
		t.Errorf("span problems: %v", got.Problems[:min(5, len(got.Problems))])
	}
}
