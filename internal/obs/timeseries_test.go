package obs

import (
	"math"
	"testing"

	"split/internal/model"
	"split/internal/place"
	"split/internal/policy"
	"split/internal/trace"
	"split/internal/workload"
)

// served builds a served record with the given timings.
func served(id int, arriveMs, doneMs, extMs float64) policy.Record {
	return policy.Record{ID: id, Model: "m", ArriveMs: arriveMs, DoneMs: doneMs,
		ExtMs: extMs, Outcome: policy.OutcomeServed}
}

// shed builds a shed record decided at doneMs.
func shed(id int, arriveMs, doneMs float64) policy.Record {
	return policy.Record{ID: id, Model: "m", ArriveMs: arriveMs, DoneMs: doneMs,
		ExtMs: 10, Outcome: policy.OutcomeDeadline}
}

// TestTimeSeriesBucketing: arrivals and outcomes land in the window of
// their own timestamp, and the derived rates use the window width.
func TestTimeSeriesBucketing(t *testing.T) {
	ts := NewTimeSeries(4, 100, 10, 1)
	ts.ObserveArrival(10)
	ts.ObserveArrival(150)
	ts.ObserveOutcome(served(0, 10, 90, 40))   // RR=2, meets α=4
	ts.ObserveOutcome(served(1, 150, 250, 10)) // decided in window 2, RR=10 > 4
	ts.ObserveOutcome(shed(2, 0, 260))         // window 2, always violates

	snap := ts.Snapshot()
	if snap.Alpha != 4 || snap.WindowMs != 100 || snap.Devices != 1 {
		t.Fatalf("snapshot header = %+v", snap)
	}
	if len(snap.Windows) != 3 {
		t.Fatalf("got %d windows, want 3 (0..300ms)", len(snap.Windows))
	}
	w0, w1, w2 := snap.Windows[0], snap.Windows[1], snap.Windows[2]
	if w0.Arrivals != 1 || w0.Completions != 1 || w0.ViolationRate != 0 {
		t.Errorf("w0 = %+v", w0)
	}
	if w0.ThroughputRPS != 10 { // 1 completion / 0.1 s
		t.Errorf("w0 throughput = %v, want 10", w0.ThroughputRPS)
	}
	if w1.Arrivals != 1 || w1.Completions != 0 || w1.Sheds != 0 {
		t.Errorf("w1 = %+v", w1)
	}
	if w2.Completions != 1 || w2.Sheds != 1 || w2.ViolationRate != 1 {
		t.Errorf("w2 = %+v (sheds always violate, RR=10 violates)", w2)
	}
}

// TestTimeSeriesEviction: when observations outrun the capacity the oldest
// windows are evicted, later out-of-range observations count as dropped,
// and the snapshot covers only the retained tail.
func TestTimeSeriesEviction(t *testing.T) {
	ts := NewTimeSeries(4, 100, 3, 1)
	for i := 0; i < 6; i++ { // windows 0..5, capacity 3 keeps 3..5
		ts.ObserveArrival(float64(i)*100 + 1)
	}
	ts.ObserveArrival(50) // window 0: evicted, dropped
	snap := ts.Snapshot()
	if snap.Dropped != 1 {
		t.Errorf("dropped = %d, want 1", snap.Dropped)
	}
	if len(snap.Windows) != 3 {
		t.Fatalf("got %d windows, want 3", len(snap.Windows))
	}
	if snap.Windows[0].StartMs != 300 || snap.Windows[2].EndMs != 600 {
		t.Errorf("retained range [%v, %v), want [300, 600)",
			snap.Windows[0].StartMs, snap.Windows[2].EndMs)
	}
	for i, w := range snap.Windows {
		if w.Arrivals != 1 {
			t.Errorf("window %d arrivals = %d, want 1", i, w.Arrivals)
		}
	}
}

// TestTimeSeriesEvictionLargeJump: a jump past the whole retained range
// clears the ring rather than shifting it.
func TestTimeSeriesEvictionLargeJump(t *testing.T) {
	ts := NewTimeSeries(4, 100, 3, 1)
	ts.ObserveArrival(10)
	ts.ObserveArrival(9010) // window 90, far past base+cap
	snap := ts.Snapshot()
	if len(snap.Windows) != 1 {
		t.Fatalf("got %d windows, want 1 (leading empties trimmed)", len(snap.Windows))
	}
	if snap.Windows[0].StartMs != 9000 || snap.Windows[0].Arrivals != 1 {
		t.Errorf("window = %+v, want the 9000ms window", snap.Windows[0])
	}
}

// TestTimeSeriesBusyProRated: one hold crossing a window boundary is split
// between the windows, and per-device fractions stay separate.
func TestTimeSeriesBusyProRated(t *testing.T) {
	ts := NewTimeSeries(4, 100, 10, 2)
	ts.ObserveBusyFrac(0, 50, 250, 1) // 50ms in w0, 100ms in w1, 50ms in w2
	ts.ObserveBusyFrac(1, 0, 100, 1)  // exactly w0
	ts.ObserveBusyFrac(2, 0, 50, 1)   // out-of-range device: ignored
	ts.ObserveBusyFrac(0, 80, 80, 1)  // empty hold: ignored
	snap := ts.Snapshot()
	if len(snap.Windows) != 3 {
		t.Fatalf("got %d windows, want 3", len(snap.Windows))
	}
	wantDev0 := []float64{0.5, 1.0, 0.5}
	for i, w := range snap.Windows {
		if math.Abs(w.DeviceBusyFrac[0]-wantDev0[i]) > 1e-9 {
			t.Errorf("w%d dev0 busy = %v, want %v", i, w.DeviceBusyFrac[0], wantDev0[i])
		}
	}
	if snap.Windows[0].DeviceBusyFrac[1] != 1.0 || snap.Windows[1].DeviceBusyFrac[1] != 0 {
		t.Errorf("dev1 busy = %v/%v, want 1/0", snap.Windows[0].DeviceBusyFrac[1],
			snap.Windows[1].DeviceBusyFrac[1])
	}
}

// TestTimeSeriesDepthAveraging: depth samples average within the window
// and unsampled windows report -1.
func TestTimeSeriesDepthAveraging(t *testing.T) {
	ts := NewTimeSeries(4, 100, 10, 1)
	ts.ObserveDepth(10, 2)
	ts.ObserveDepth(20, 4)
	ts.ObserveArrival(150) // window 1 exists but has no depth sample
	snap := ts.Snapshot()
	if got := snap.Windows[0].MeanQueueDepth; got != 3 {
		t.Errorf("w0 depth = %v, want 3", got)
	}
	if got := snap.Windows[1].MeanQueueDepth; got != -1 {
		t.Errorf("w1 depth = %v, want -1 (unsampled)", got)
	}
}

// TestTimeSeriesNilSafe: a nil snapshotter absorbs everything.
func TestTimeSeriesNilSafe(t *testing.T) {
	var ts *TimeSeries
	ts.ObserveArrival(1)
	ts.ObserveOutcome(served(0, 0, 1, 1))
	ts.ObserveBusyFrac(0, 0, 1, 1)
	ts.ObserveDepth(0, 1)
	if snap := ts.Snapshot(); len(snap.Windows) != 0 {
		t.Errorf("nil snapshot = %+v", snap)
	}
}

// TestTimeSeriesFromRun folds a small offline run and checks the windows
// agree with hand counts, including batch holds counted once.
func TestTimeSeriesFromRun(t *testing.T) {
	recs := []policy.Record{
		served(0, 0, 80, 40),   // window 0, RR=2
		served(1, 50, 180, 10), // window 1, RR=13 > 4: violation
		shed(2, 60, 190),       // window 1
	}
	events := []trace.Event{
		{AtMs: 0, Kind: trace.Arrive, ReqID: 0},
		{AtMs: 20, Kind: trace.StartBlock, ReqID: 0, Device: 0},
		{AtMs: 50, Kind: trace.Arrive, ReqID: 1},
		{AtMs: 60, Kind: trace.Arrive, ReqID: 2},
		{AtMs: 80, Kind: trace.EndBlock, ReqID: 0, Device: 0},
		{AtMs: 80, Kind: trace.Complete, ReqID: 0},
		// Batched hold on device 1: two members, one 60ms occupancy.
		{AtMs: 120, Kind: trace.StartBlock, ReqID: 1, Device: 1, Batch: 5},
		{AtMs: 120, Kind: trace.StartBlock, ReqID: 3, Device: 1, Batch: 5},
		{AtMs: 180, Kind: trace.EndBlock, ReqID: 1, Device: 1, Batch: 5},
		{AtMs: 180, Kind: trace.EndBlock, ReqID: 3, Device: 1, Batch: 5},
		{AtMs: 180, Kind: trace.Complete, ReqID: 1},
		{AtMs: 190, Kind: trace.Shed, ReqID: 2},
	}
	snap := TimeSeriesFromRun(recs, events, trace.BuildSpans(events), 4, 100, 2)
	if len(snap.Windows) != 2 {
		t.Fatalf("got %d windows, want 2", len(snap.Windows))
	}
	w0, w1 := snap.Windows[0], snap.Windows[1]
	if w0.Arrivals != 3 || w0.Completions != 1 || w0.ViolationRate != 0 {
		t.Errorf("w0 = %+v", w0)
	}
	// Depth samples: 1 at t=0, 2 at t=50, 3 at t=60 → mean 2.
	if w0.MeanQueueDepth != 2 {
		t.Errorf("w0 depth = %v, want 2", w0.MeanQueueDepth)
	}
	if math.Abs(w0.DeviceBusyFrac[0]-0.6) > 1e-9 { // 20..80 on dev 0
		t.Errorf("w0 dev0 busy = %v, want 0.6", w0.DeviceBusyFrac[0])
	}
	if w1.Completions != 1 || w1.Sheds != 1 || w1.ViolationRate != 1 {
		t.Errorf("w1 = %+v", w1)
	}
	// The batch hold counts once: 120..180 on dev 1 → 0.6, not 1.2.
	if math.Abs(w1.DeviceBusyFrac[1]-0.6) > 1e-9 {
		t.Errorf("w1 dev1 busy = %v, want 0.6 (batch counted once)", w1.DeviceBusyFrac[1])
	}
}

// TestOfflineOccupancyProRated: eight unsplit 60 ms requests arrive at
// once on one device cut into two fixed-width partitions, so they run two
// at a time at half width. The offline views count each hold at its
// granted half, as the live server does: the device is busy for exactly
// the makespan, not twice it.
func TestOfflineOccupancyProRated(t *testing.T) {
	catalog := policy.NewCatalog(map[string]*model.Graph{
		"huge": {Name: "huge", Domain: "t", Class: model.Long, Ops: []model.Op{{Name: "h", TimeMs: 60}}},
	}, nil)
	arrivals := make([]workload.Arrival, 8)
	for i := range arrivals {
		arrivals[i] = workload.Arrival{ID: i, Model: "huge"}
	}
	s := policy.NewSplit()
	s.Partitions, s.PartitionWidth, s.BatchMax = 2, place.WidthFixed, 1
	tr := trace.New()
	recs := s.Run(arrivals, catalog, tr)

	a := tr.Analyze()
	if math.Abs(a.HorizonMs-339.41) > 0.01 || math.Abs(a.BusyMs-a.HorizonMs) > 1e-9 || math.Abs(a.Utilization-1) > 1e-9 {
		t.Errorf("horizon %.2f ms, busy %.2f ms, utilization %.3f; want 339.41, 339.41, 1.000",
			a.HorizonMs, a.BusyMs, a.Utilization)
	}
	events := tr.Events()
	snap := TimeSeriesFromRun(recs, events, trace.BuildSpans(events), 4, 1000, 1)
	if got := snap.Windows[0].DeviceBusyFrac[0]; math.Abs(got-a.HorizonMs/1000) > 1e-9 {
		t.Errorf("device 0 busy fraction %.4f, want %.4f", got, a.HorizonMs/1000)
	}
}

// TestTimeSeriesDefaults: non-positive constructor arguments fall back to
// the documented defaults.
func TestTimeSeriesDefaults(t *testing.T) {
	ts := NewTimeSeries(0, 0, 0, 0)
	if ts.alpha != 4 || ts.windowMs != DefaultTimeSeriesWindowMs ||
		len(ts.windows) != DefaultTimeSeriesCapacity || ts.devices != 1 {
		t.Fatalf("defaults: alpha=%v window=%v cap=%d dev=%d",
			ts.alpha, ts.windowMs, len(ts.windows), ts.devices)
	}
}

// TestTimeSeriesBusyFracProRated: a fractional (partition) hold
// contributes frac·duration, so two concurrent half-width lanes sum to the
// same fraction one serial hold would.
func TestTimeSeriesBusyFracProRated(t *testing.T) {
	ts := NewTimeSeries(4, 100, 10, 1)
	ts.ObserveBusyFrac(0, 0, 100, 0.5)
	ts.ObserveBusyFrac(0, 50, 100, 0.5)
	snap := ts.Snapshot()
	if got := snap.Windows[0].DeviceBusyFrac[0]; math.Abs(got-0.75) > 1e-9 {
		t.Errorf("two half-width holds = %v, want 0.75", got)
	}
}

// TestTimeSeriesActiveDenominator pins the attach-boundary fix: a device
// attached for the last tenth of a window and busy throughout is fully
// utilized, not 10% — the full-window denominator diluted exactly the
// devices the autoscaler just added.
func TestTimeSeriesActiveDenominator(t *testing.T) {
	ts := NewTimeSeries(4, 100, 10, 2)
	// Device 0 attached the whole run; device 1 attaches at 90.
	ts.ObserveActive(0, 0, 200)
	ts.ObserveActive(1, 90, 200)
	ts.ObserveBusyFrac(0, 0, 50, 1)
	ts.ObserveBusyFrac(1, 90, 150, 1)
	snap := ts.Snapshot()
	if got := snap.Windows[0].DeviceBusyFrac[0]; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("dev0 w0 = %v, want 0.5 (full-window denominator)", got)
	}
	// Device 1: busy 10 of its 10 attached ms in w0, 50 of 100 in w1.
	if got := snap.Windows[0].DeviceBusyFrac[1]; math.Abs(got-1) > 1e-9 {
		t.Errorf("dev1 w0 = %v, want 1.0 across the attach boundary", got)
	}
	if got := snap.Windows[1].DeviceBusyFrac[1]; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("dev1 w1 = %v, want 0.5", got)
	}
}

// TestTimeSeriesFromRunInfersMembership: ScaleOut/ScaleIn control events
// in the trace switch the busy-fraction denominator to attached time.
func TestTimeSeriesFromRunInfersMembership(t *testing.T) {
	events := []trace.Event{
		// Device 1 joins at 150 and is immediately saturated until 200.
		{AtMs: 150, Kind: trace.ScaleOut, ReqID: -1, Device: 1},
		{AtMs: 150, Kind: trace.StartBlock, ReqID: 7, Device: 1},
		{AtMs: 200, Kind: trace.EndBlock, ReqID: 7, Device: 1},
		{AtMs: 200, Kind: trace.Complete, ReqID: 7},
	}
	recs := []policy.Record{served(7, 140, 200, 50)}
	snap := TimeSeriesFromRun(recs, events, trace.BuildSpans(events), 4, 100, 2)
	if len(snap.Windows) != 2 {
		t.Fatalf("got %d windows, want 2", len(snap.Windows))
	}
	// The first retained window is 100..200 (window 0 is empty and
	// trimmed): attached 150..200, busy 150..200 → 1.0. The pre-fix
	// full-window denominator read 0.5.
	if got := snap.Windows[0].DeviceBusyFrac[1]; math.Abs(got-1) > 1e-9 {
		t.Errorf("scaled-out device busy frac = %v, want 1.0", got)
	}
	// Device 0 never scaled: attached throughout, idle → 0.
	if got := snap.Windows[0].DeviceBusyFrac[0]; got != 0 {
		t.Errorf("idle device busy frac = %v, want 0", got)
	}

	// A device whose first event is ScaleIn was attached from 0.
	events = []trace.Event{
		{AtMs: 20, Kind: trace.StartBlock, ReqID: 1, Device: 0},
		{AtMs: 60, Kind: trace.EndBlock, ReqID: 1, Device: 0},
		{AtMs: 60, Kind: trace.Complete, ReqID: 1},
		{AtMs: 80, Kind: trace.ScaleIn, ReqID: -1, Device: 0},
	}
	snap = TimeSeriesFromRun([]policy.Record{served(1, 0, 60, 30)}, events, trace.BuildSpans(events), 4, 100, 1)
	// Attached 0..80, busy 20..60 → 0.5.
	if got := snap.Windows[0].DeviceBusyFrac[0]; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("scaled-in device busy frac = %v, want 40/80", got)
	}
}

// TestTimeSeriesReusesEvictedBusyArrays: once the ring is full, a hold in a
// new window takes an evicted window's busy array, zeroed, instead of
// allocating one: a live server on an accelerated clock crosses a window
// every few holds.
func TestTimeSeriesReusesEvictedBusyArrays(t *testing.T) {
	ts := NewTimeSeries(4, 10, 4, 2)
	at := 0.0
	hold := func() {
		ts.ObserveBusyFrac(0, at, at+5, 1) // half of window at/10
		at += 10
	}
	for range 8 {
		hold()
	}
	if got := testing.AllocsPerRun(100, hold); got != 0 {
		t.Errorf("%v allocations per hold in a new window, want 0", got)
	}
	for _, w := range ts.Snapshot().Windows {
		if w.DeviceBusyFrac[0] != 0.5 || w.DeviceBusyFrac[1] != 0 {
			t.Errorf("window at %v ms: busy %v, want [0.5 0]", w.StartMs, w.DeviceBusyFrac)
		}
	}
}
