package trace

import (
	"math"
	"testing"

	"split/internal/modelid"
)

func sampleTrace() *Tracer {
	tr := New()
	tr.Record(ev(0, Arrive, 1, "vgg", 0))
	tr.Record(ev(0, StartBlock, 1, "vgg", 0))
	tr.Record(ev(10, EndBlock, 1, "vgg", 0))
	tr.Record(ev(10, StartBlock, 2, "yolo", 0))
	tr.Record(ev(15, EndBlock, 2, "yolo", 0))
	tr.Record(ev(15, Complete, 2, "yolo", 0))
	tr.Record(ev(15, StartBlock, 1, "vgg", 1))
	tr.Record(ev(25, EndBlock, 1, "vgg", 1))
	tr.Record(ev(25, Complete, 1, "vgg", 1))
	// Idle gap, then another request.
	tr.Record(ev(40, StartBlock, 3, "yolo", 0))
	tr.Record(ev(45, EndBlock, 3, "yolo", 0))
	tr.Record(ev(45, Complete, 3, "yolo", 0))
	return tr
}

// TestSpans: the span tree pairs each StartBlock with its EndBlock into
// one exec interval of its request.
func TestSpans(t *testing.T) {
	tree := BuildSpans(sampleTrace().Events())
	execs := map[int][]Interval{}
	n := 0
	for _, sp := range tree.Requests {
		for _, iv := range sp.Intervals {
			if iv.Phase == PhaseExec {
				execs[sp.ReqID] = append(execs[sp.ReqID], iv)
				n++
			}
		}
	}
	if n != 4 {
		t.Fatalf("%d exec intervals", n)
	}
	if r1 := execs[1]; r1[0].StartMs != 0 || r1[0].DurationMs() != 10 {
		t.Errorf("req 1 first interval = %+v", r1[0])
	}
	if r2 := execs[2]; tree.Span(2).Model != "yolo" || r2[0].StartMs != 10 {
		t.Errorf("req 2 = %s %+v", tree.Span(2).Model, r2[0])
	}
	if r1 := execs[1]; r1[1].Block != 1 {
		t.Errorf("req 1 second interval block = %d", r1[1].Block)
	}
}

func TestAnalyze(t *testing.T) {
	a := sampleTrace().Analyze()
	if a.HorizonMs != 45 {
		t.Errorf("horizon = %v", a.HorizonMs)
	}
	if math.Abs(a.BusyMs-30) > 1e-9 {
		t.Errorf("busy = %v", a.BusyMs)
	}
	if math.Abs(a.Utilization-30.0/45) > 1e-9 {
		t.Errorf("utilization = %v", a.Utilization)
	}
	if a.BusyPeriods != 2 {
		t.Errorf("busy periods = %d", a.BusyPeriods)
	}
	if math.Abs(a.MeanBusyPeriodMs-15) > 1e-9 { // (25 + 5) / 2
		t.Errorf("mean busy period = %v", a.MeanBusyPeriodMs)
	}
	if math.Abs(a.PerModelBusyMs["vgg"]-20) > 1e-9 || math.Abs(a.PerModelBusyMs["yolo"]-10) > 1e-9 {
		t.Errorf("per-model busy = %v", a.PerModelBusyMs)
	}
	if a.Completions != 3 {
		t.Errorf("completions = %d", a.Completions)
	}
	if a.String() == "" {
		t.Error("empty render")
	}
}

// TestAnalyzeCountsBatchOnce: the three members of micro-batch 7 each
// narrate a 0–10 ms StartBlock/EndBlock pair on device 1, but they held the
// device once, so the batch adds 10 busy-ms, not 30; an unbatched block of
// the same model after it adds its own 5.
func TestAnalyzeCountsBatchOnce(t *testing.T) {
	tr := New()
	for id := 1; id <= 3; id++ {
		tr.Record(Event{AtMs: 0, Kind: StartBlock, ReqID: id, Model: modelid.Intern("m"), Device: 1, Batch: 7})
	}
	for id := 1; id <= 3; id++ {
		tr.Record(Event{AtMs: 10, Kind: EndBlock, ReqID: id, Model: modelid.Intern("m"), Device: 1, Batch: 7})
	}
	tr.Record(Event{AtMs: 10, Kind: StartBlock, ReqID: 4, Model: modelid.Intern("m"), Device: 1})
	tr.Record(Event{AtMs: 15, Kind: EndBlock, ReqID: 4, Model: modelid.Intern("m"), Device: 1})
	a := tr.Analyze()
	if a.BusyMs != 15 || a.PerDeviceBusyMs[1] != 15 || a.PerModelBusyMs["m"] != 15 {
		t.Errorf("busy %v, device 1 %v, model m %v; want 15 each", a.BusyMs, a.PerDeviceBusyMs[1], a.PerModelBusyMs["m"])
	}
	if a.Utilization != 1 || a.BusyPeriods != 1 {
		t.Errorf("utilization %v over %d busy periods, want 1 over 1", a.Utilization, a.BusyPeriods)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	a := New().Analyze()
	if a.HorizonMs != 0 || a.BusyMs != 0 || a.BusyPeriods != 0 {
		t.Errorf("empty analysis = %+v", a)
	}
}

func TestAnalyzeCountsPreempts(t *testing.T) {
	tr := New()
	tr.Record(ev(0, StartBlock, 1, "m", 0))
	tr.Record(ev(5, EndBlock, 1, "m", 0))
	tr.Record(ev(5, Preempt, 1, "m", 1))
	a := tr.Analyze()
	if a.Preemptions != 1 {
		t.Errorf("preemptions = %d", a.Preemptions)
	}
}
