package policy

import (
	"math"
	"sort"
	"testing"

	"split/internal/model"
	"split/internal/trace"
	"split/internal/workload"
)

// synthCatalog builds a two-model catalog with hand-picked times:
// "long" runs 30 ms isolated and is deployed as three 10 ms blocks
// (zero-overhead split for exact arithmetic), "short" runs 5 ms unsplit.
func synthCatalog() Catalog {
	graphs := map[string]*model.Graph{
		"long": {
			Name: "long", Domain: "t", Class: model.Long,
			Ops: []model.Op{
				{Name: "a", TimeMs: 10}, {Name: "b", TimeMs: 10}, {Name: "c", TimeMs: 10},
			},
		},
		"short": {
			Name: "short", Domain: "t", Class: model.Short,
			Ops: []model.Op{{Name: "x", TimeMs: 5}},
		},
		"huge": {
			Name: "huge", Domain: "t", Class: model.Long,
			Ops: []model.Op{{Name: "h", TimeMs: 60}},
		},
	}
	plans := map[string]*model.SplitPlan{
		"long": {Model: "long", Cuts: []int{1, 2}, BlockTimesMs: []float64{10, 10, 10}},
	}
	return NewCatalog(graphs, plans)
}

func allSystems() []System {
	return []System{NewSplit(), NewClockWork(), NewPREMA(), NewPREMANPU(), NewRTA(), NewStreamParallel()}
}

func scenarioArrivals(seed int64) []workload.Arrival {
	return workload.MustGenerate(workload.Config{
		Models:         []string{"long", "short"},
		MeanIntervalMs: 25,
		Count:          300,
		Seed:           seed,
	})
}

func TestAllSystemsRecordEveryRequest(t *testing.T) {
	catalog := synthCatalog()
	arrivals := scenarioArrivals(1)
	for _, sys := range allSystems() {
		recs := sys.Run(arrivals, catalog, nil)
		if len(recs) != len(arrivals) {
			t.Fatalf("%s: %d records for %d arrivals", sys.Name(), len(recs), len(arrivals))
		}
		for i, r := range recs {
			if r.ID != i {
				t.Fatalf("%s: record %d has ID %d", sys.Name(), i, r.ID)
			}
			if r.DoneMs < r.StartMs-1e-9 || r.StartMs < r.ArriveMs-1e-9 {
				t.Fatalf("%s: req %d times inverted: %+v", sys.Name(), i, r)
			}
			if r.E2EMs() < r.ExtMs-1e-6 {
				t.Fatalf("%s: req %d finished faster than isolated time: e2e=%v ext=%v",
					sys.Name(), i, r.E2EMs(), r.ExtMs)
			}
		}
	}
}

func TestAllSystemsDeterministic(t *testing.T) {
	catalog := synthCatalog()
	arrivals := scenarioArrivals(2)
	for _, name := range []string{"SPLIT", "ClockWork", "PREMA", "RT-A", "Stream-Parallel"} {
		mk := func() System {
			switch name {
			case "SPLIT":
				return NewSplit()
			case "ClockWork":
				return NewClockWork()
			case "PREMA":
				return NewPREMA()
			case "RT-A":
				return NewRTA()
			default:
				return NewStreamParallel()
			}
		}
		a := mk().Run(arrivals, catalog, nil)
		b := mk().Run(arrivals, catalog, nil)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: nondeterministic at record %d: %+v vs %+v", name, i, a[i], b[i])
			}
		}
	}
}

// Sequential systems must never overlap device occupancy.
func TestSequentialSystemsDoNotOverlapBlocks(t *testing.T) {
	catalog := synthCatalog()
	arrivals := scenarioArrivals(3)
	for _, sys := range []System{NewSplit(), NewClockWork(), NewPREMA()} {
		tr := trace.New()
		sys.Run(arrivals, catalog, tr)
		type span struct{ s, e float64 }
		var spans []span
		open := map[int]float64{}
		for _, e := range tr.Events() {
			switch e.Kind {
			case trace.StartBlock:
				open[e.ReqID] = e.AtMs
			case trace.EndBlock:
				spans = append(spans, span{open[e.ReqID], e.AtMs})
				delete(open, e.ReqID)
			}
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].s < spans[j].s })
		for i := 1; i < len(spans); i++ {
			if spans[i].s < spans[i-1].e-1e-6 {
				t.Fatalf("%s: blocks overlap: [%f,%f] then [%f,%f]",
					sys.Name(), spans[i-1].s, spans[i-1].e, spans[i].s, spans[i].e)
			}
		}
	}
}

func TestSplitPreemptionExactTimeline(t *testing.T) {
	catalog := synthCatalog()
	arrivals := []workload.Arrival{
		{ID: 0, Model: "long", AtMs: 0},
		{ID: 1, Model: "short", AtMs: 2},
	}
	recs := NewSplit().Run(arrivals, catalog, nil)
	long, short := recs[0], recs[1]
	// Long: block0 [0,10]; short preempts [10,15]; long blocks [15,25],[25,35].
	if math.Abs(short.DoneMs-15) > 1e-9 {
		t.Errorf("short done at %v, want 15", short.DoneMs)
	}
	if math.Abs(long.DoneMs-35) > 1e-9 {
		t.Errorf("long done at %v, want 35", long.DoneMs)
	}
	if long.Preemptions != 1 {
		t.Errorf("long preemptions = %d, want 1", long.Preemptions)
	}
	if !long.Split || short.Split {
		t.Errorf("split flags: long=%v short=%v", long.Split, short.Split)
	}
}

func TestClockWorkFCFSExactTimeline(t *testing.T) {
	catalog := synthCatalog()
	arrivals := []workload.Arrival{
		{ID: 0, Model: "long", AtMs: 0},
		{ID: 1, Model: "short", AtMs: 2},
	}
	recs := NewClockWork().Run(arrivals, catalog, nil)
	if math.Abs(recs[0].DoneMs-30) > 1e-9 {
		t.Errorf("long done at %v, want 30", recs[0].DoneMs)
	}
	if math.Abs(recs[1].DoneMs-35) > 1e-9 {
		t.Errorf("short done at %v, want 35 (FCFS)", recs[1].DoneMs)
	}
}

func TestClockWorkDropStragglers(t *testing.T) {
	catalog := synthCatalog()
	// Flood with longs, then a short whose predicted RR is huge.
	var arrivals []workload.Arrival
	for i := 0; i < 5; i++ {
		arrivals = append(arrivals, workload.Arrival{ID: i, Model: "long", AtMs: 0})
	}
	arrivals = append(arrivals, workload.Arrival{ID: 5, Model: "short", AtMs: 1})
	cw := &ClockWork{DropAlpha: 4}
	tr := trace.New()
	recs := cw.Run(arrivals, catalog, tr)
	if len(recs) != 6 {
		t.Fatalf("%d records", len(recs))
	}
	dropped := 0
	for _, e := range tr.Events() {
		if e.Kind == trace.Drop {
			dropped++
		}
	}
	if dropped == 0 {
		t.Error("no drops under DropAlpha")
	}
	// The short was dropped but still violates in the records.
	if recs[5].ResponseRatio() <= 4 {
		t.Errorf("dropped short rr = %v", recs[5].ResponseRatio())
	}
}

func TestPREMATokenPriority(t *testing.T) {
	catalog := synthCatalog()
	// Occupy the device, then queue one long (earlier) and one short
	// (later). PREMA's token (3x priority for shorts) must dispatch the
	// short first at the model boundary.
	arrivals := []workload.Arrival{
		{ID: 0, Model: "long", AtMs: 0},
		{ID: 1, Model: "long", AtMs: 1},
		{ID: 2, Model: "short", AtMs: 2},
	}
	recs := NewPREMA().Run(arrivals, catalog, nil)
	if recs[2].DoneMs >= recs[1].DoneMs {
		t.Errorf("short (done %v) should finish before queued long (done %v)",
			recs[2].DoneMs, recs[1].DoneMs)
	}
	// Non-preemptive: the running long is never interrupted.
	if math.Abs(recs[0].DoneMs-30) > 1e-9 {
		t.Errorf("running long done at %v, want 30", recs[0].DoneMs)
	}
}

func TestPREMANPUPreemptsAtCheckpoints(t *testing.T) {
	catalog := synthCatalog()
	arrivals := []workload.Arrival{
		{ID: 0, Model: "long", AtMs: 0},
		{ID: 1, Model: "short", AtMs: 1},
	}
	npu := NewPREMANPU()
	recs := npu.Run(arrivals, catalog, nil)
	// The short preempts within a couple of checkpoints, far before the
	// long's 30 ms completion.
	if recs[1].DoneMs > 15 {
		t.Errorf("NPU-mode short done at %v, expected early preemption", recs[1].DoneMs)
	}
	if recs[0].Preemptions == 0 {
		t.Error("long was never preempted in NPU mode")
	}
}

func TestRTARoundAlignment(t *testing.T) {
	r := NewRTA()
	catalog := synthCatalog()
	// Two requests arrive together: one round of k=2, inflation 1.4.
	arrivals := []workload.Arrival{
		{ID: 0, Model: "long", AtMs: 0},
		{ID: 1, Model: "short", AtMs: 0},
	}
	recs := r.Run(arrivals, catalog, nil)
	wantEnd := 30 * r.Contention.Inflation(2)
	for _, rec := range recs {
		if math.Abs(rec.DoneMs-wantEnd) > 1e-9 {
			t.Errorf("req %d done at %v, want aligned %v", rec.ID, rec.DoneMs, wantEnd)
		}
	}
}

func TestRTAArrivalWaitsForNextRound(t *testing.T) {
	catalog := synthCatalog()
	arrivals := []workload.Arrival{
		{ID: 0, Model: "long", AtMs: 0},
		{ID: 1, Model: "short", AtMs: 5}, // mid-round
	}
	recs := NewRTA().Run(arrivals, catalog, nil)
	// Round 1: long alone [0,30]. Short starts at 30, runs alone 5 ms.
	if math.Abs(recs[1].StartMs-30) > 1e-9 {
		t.Errorf("short started at %v, want 30", recs[1].StartMs)
	}
	if math.Abs(recs[1].DoneMs-35) > 1e-9 {
		t.Errorf("short done at %v, want 35", recs[1].DoneMs)
	}
}

func TestStreamParallelSingleRequestIsolated(t *testing.T) {
	catalog := synthCatalog()
	arrivals := []workload.Arrival{{ID: 0, Model: "short", AtMs: 3}}
	recs := NewStreamParallel().Run(arrivals, catalog, nil)
	if math.Abs(recs[0].E2EMs()-5) > 1e-9 {
		t.Errorf("isolated stream e2e = %v, want 5", recs[0].E2EMs())
	}
}

func TestStreamParallelFairSharing(t *testing.T) {
	sp := NewStreamParallel()
	catalog := synthCatalog()
	arrivals := []workload.Arrival{
		{ID: 0, Model: "short", AtMs: 0},
		{ID: 1, Model: "short", AtMs: 0},
	}
	recs := sp.Run(arrivals, catalog, nil)
	// Both share: each runs at rate 1/(2*1.25), so 5 ms of work takes 12.5.
	want := 5 * 2 * sp.Contention.Inflation(2)
	for _, r := range recs {
		if math.Abs(r.DoneMs-want) > 1e-6 {
			t.Errorf("req %d done at %v, want %v", r.ID, r.DoneMs, want)
		}
	}
}

func TestStreamParallelShortExitsBeforeLong(t *testing.T) {
	catalog := synthCatalog()
	arrivals := []workload.Arrival{
		{ID: 0, Model: "long", AtMs: 0},
		{ID: 1, Model: "short", AtMs: 0},
	}
	recs := NewStreamParallel().Run(arrivals, catalog, nil)
	if recs[1].DoneMs >= recs[0].DoneMs {
		t.Errorf("short (%v) did not exit before long (%v)", recs[1].DoneMs, recs[0].DoneMs)
	}
	// Work conservation: the long alone after the short leaves finishes in
	// 12.5 + remaining*1 time; total must exceed isolated 30.
	if recs[0].DoneMs <= 30 {
		t.Errorf("long done at %v despite sharing", recs[0].DoneMs)
	}
}

func TestSplitElasticSameTypeBurstDisablesSplitting(t *testing.T) {
	catalog := synthCatalog()
	s := NewSplit()
	s.Elastic.SameTypeLimit = 2
	s.Elastic.HighLoadQueueLen = 100
	var arrivals []workload.Arrival
	for i := 0; i < 6; i++ {
		arrivals = append(arrivals, workload.Arrival{ID: i, Model: "long", AtMs: float64(i)})
	}
	recs := s.Run(arrivals, catalog, nil)
	splitCount := 0
	for _, r := range recs {
		if r.Split {
			splitCount++
		}
	}
	if splitCount == len(recs) {
		t.Error("elastic never disabled splitting during a same-type burst")
	}
	if splitCount == 0 {
		t.Error("elastic disabled splitting for the first requests too")
	}
}

func TestSplitPartialPreemptionProducesStragglers(t *testing.T) {
	catalog := synthCatalog()
	// A split long is preempted by a short while a huge unsplit request
	// waits. Under full preemption the long's remaining blocks re-enter at
	// their greedy position (ahead of the huge request: 20 ms left vs 60);
	// under partial preemption they straggle to the back, behind the huge
	// request (Figure 3(a)).
	arrivals := []workload.Arrival{
		{ID: 0, Model: "long", AtMs: 0},
		{ID: 1, Model: "short", AtMs: 2},
		{ID: 2, Model: "huge", AtMs: 3},
	}
	full := NewSplit()
	part := NewSplit()
	part.PartialPreemption = true
	fr := full.Run(arrivals, catalog, nil)
	pr := part.Run(arrivals, catalog, nil)
	// Full: long blocks [0,10],[15,25],[25,35] (short runs [10,15]).
	if math.Abs(fr[0].DoneMs-35) > 1e-9 {
		t.Errorf("full preemption long done %v, want 35", fr[0].DoneMs)
	}
	// Partial: long's remaining blocks wait out the huge request: [75,95].
	if math.Abs(pr[0].DoneMs-95) > 1e-9 {
		t.Errorf("partial preemption long done %v, want 95", pr[0].DoneMs)
	}
	if pr[0].DoneMs <= fr[0].DoneMs {
		t.Error("no straggler effect")
	}
}

func TestCatalogBlocksFor(t *testing.T) {
	catalog := synthCatalog()
	if got := catalog.BlocksFor("long"); len(got) != 3 {
		t.Errorf("long blocks = %v", got)
	}
	if got := catalog.BlocksFor("short"); len(got) != 1 || got[0] != 5 {
		t.Errorf("short blocks = %v", got)
	}
	// Returned slice must be a copy.
	b := catalog.BlocksFor("long")
	b[0] = 999
	if catalog.BlocksFor("long")[0] == 999 {
		t.Error("BlocksFor aliases the plan")
	}
}

func TestCatalogBlocksForUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown model did not panic")
		}
	}()
	synthCatalog().BlocksFor("nope")
}

func TestRecordDerivedMetrics(t *testing.T) {
	r := Record{ArriveMs: 10, StartMs: 12, DoneMs: 40, ExtMs: 10}
	if r.E2EMs() != 30 {
		t.Errorf("e2e = %v", r.E2EMs())
	}
	if r.WaitMs() != 20 {
		t.Errorf("wait = %v", r.WaitMs())
	}
	if r.ResponseRatio() != 3 {
		t.Errorf("rr = %v", r.ResponseRatio())
	}
}

func TestSystemNames(t *testing.T) {
	want := map[string]System{
		"SPLIT":           NewSplit(),
		"ClockWork":       NewClockWork(),
		"PREMA":           NewPREMA(),
		"PREMA-NPU":       NewPREMANPU(),
		"RT-A":            NewRTA(),
		"Stream-Parallel": NewStreamParallel(),
	}
	for name, sys := range want {
		if sys.Name() != name {
			t.Errorf("Name() = %q, want %q", sys.Name(), name)
		}
	}
	sp := NewSplit()
	sp.PartialPreemption = true
	if sp.Name() != "SPLIT-partial" {
		t.Errorf("partial name = %q", sp.Name())
	}
}

// Work conservation: under any sequential non-preemptive-loss policy, the
// device busy time equals the total planned work, so the last completion of
// a busy burst lands at (start + total work).
func TestWorkConservationBurst(t *testing.T) {
	catalog := synthCatalog()
	var arrivals []workload.Arrival
	for i := 0; i < 10; i++ {
		m := "long"
		if i%2 == 1 {
			m = "short"
		}
		arrivals = append(arrivals, workload.Arrival{ID: i, Model: m, AtMs: 0})
	}
	totalWork := 5*30.0 + 5*5.0
	for _, sys := range []System{NewClockWork(), NewPREMA()} {
		recs := sys.Run(arrivals, catalog, nil)
		last := 0.0
		for _, r := range recs {
			if r.DoneMs > last {
				last = r.DoneMs
			}
		}
		if math.Abs(last-totalWork) > 1e-6 {
			t.Errorf("%s: burst finished at %v, want %v", sys.Name(), last, totalWork)
		}
	}
	// SPLIT pays zero overhead on this synthetic plan too.
	recs := NewSplit().Run(arrivals, catalog, nil)
	last := 0.0
	for _, r := range recs {
		if r.DoneMs > last {
			last = r.DoneMs
		}
	}
	if math.Abs(last-totalWork) > 1e-6 {
		t.Errorf("SPLIT: burst finished at %v, want %v", last, totalWork)
	}
}

// TestAlgorithm1AverageScanIsShort validates the paper's O(k)-average claim
// empirically: over a full high-load scenario, the mean number of neighbor
// comparisons per insertion stays far below the mean queue length at
// insertion time.
func TestAlgorithm1AverageScanIsShort(t *testing.T) {
	catalog := synthCatalog()
	arrivals := scenarioArrivals(7)
	tr := trace.New()
	NewSplit().Run(arrivals, catalog, tr)
	var scanned, qlen, n float64
	for _, e := range tr.Events() {
		if e.Kind != trace.Arrive {
			continue
		}
		if e.Note != trace.NoteQueued {
			t.Fatalf("arrive note %v, want pos blocks scanned qlen", e.Note)
		}
		scanned += e.Args[2]
		qlen += e.Args[3]
		n++
	}
	if n == 0 {
		t.Fatal("no arrive events")
	}
	meanScan := scanned / n
	meanQ := qlen / n
	if meanQ > 1 && meanScan > meanQ*0.8 {
		t.Errorf("mean scan %.2f not below mean queue length %.2f — O(k) average violated", meanScan, meanQ)
	}
	if meanScan > 4 {
		t.Errorf("mean scan %.2f comparisons per insertion — expected a small constant", meanScan)
	}
}
