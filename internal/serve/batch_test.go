package serve

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"split/internal/engine"
	"split/internal/obs"
	"split/internal/sched"
	"split/internal/stats"
	"split/internal/trace"
)

// batchSizes extracts the ordered sizes of batched grants from a trace:
// StartBlock events grouped by batch id, in order of first appearance. The
// same extraction reads simulator tracers and serving-path rings alike;
// TestSimServeBatchingParity pins its batches with it.
func batchSizes(events []trace.Event) []int {
	var order []int32
	counts := map[int32]int{}
	for _, e := range events {
		if e.Kind != trace.StartBlock || e.Batch == 0 {
			continue
		}
		if counts[e.Batch] == 0 {
			order = append(order, e.Batch)
		}
		counts[e.Batch]++
	}
	sizes := make([]int, len(order))
	for i, id := range order {
		sizes[i] = counts[id]
	}
	return sizes
}

// runBatchScenario serves the canonical batching scenario: a 30 ms "solo"
// blocker holds the device while three 1 ms "quick" requests queue behind it
// and (with BatchMax > 1) coalesce at the blocker's boundary. It returns the
// per-request errors in enqueue order, after every outcome arrived.
func runBatchScenario(t *testing.T, srv *Server) []error {
	t.Helper()
	_, blocker, err := srv.enqueue("solo", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitBusy(t, srv)
	chans := []chan outcome{blocker}
	for i := 0; i < 3; i++ {
		_, ch, err := srv.enqueue("quick", 0)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	errs := make([]error, len(chans))
	for i, ch := range chans {
		errs[i] = await(t, ch).err
	}
	return errs
}

// TestServeBatchingCoalesces: with BatchMax=3, a same-type run that queued
// behind a blocker executes as one batched grant — shared batch id on its
// block events, batch metrics registered and counted — and every member is
// delivered.
func TestServeBatchingCoalesces(t *testing.T) {
	srv, reg, ring := startLifecycle(t, func(c *Config) { c.BatchMax = 3 })
	for i, err := range runBatchScenario(t, srv) {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	sizes := batchSizes(ring.Snapshot())
	if len(sizes) != 1 || sizes[0] != 3 {
		t.Fatalf("batched grant sizes = %v, want [3]", sizes)
	}
	// Start and end events must pair up within the batch.
	starts, ends := 0, 0
	for _, e := range ring.Snapshot() {
		if e.Batch == 0 {
			continue
		}
		switch e.Kind {
		case trace.StartBlock:
			starts++
		case trace.EndBlock:
			ends++
		default:
			t.Fatalf("batch id on non-block event: %+v", e)
		}
	}
	if starts != 3 || ends != 3 {
		t.Fatalf("batched block events: %d starts / %d ends, want 3/3", starts, ends)
	}
	if got := reg.Counter(obs.MetricBatchedBlocks, "").Value(); got != 1 {
		t.Fatalf("split_batched_blocks_total = %d, want 1", got)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), obs.MetricBatchSize) {
		t.Fatal("split_batch_size histogram not exported while batching is enabled")
	}
}

// TestServeBatchingDisabledKeepsSurface: with batching off (the default),
// the same scenario emits no batch ids and the /metrics output contains no
// split_batch families at all — the observability surface is unchanged.
func TestServeBatchingDisabledKeepsSurface(t *testing.T) {
	srv, reg, ring := startLifecycle(t, nil)
	for i, err := range runBatchScenario(t, srv) {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for _, e := range ring.Snapshot() {
		if e.Batch != 0 {
			t.Fatalf("unbatched server emitted batch id: %+v", e)
		}
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "split_batch") {
		t.Fatal("split_batch_* families exported with batching disabled")
	}
}

// TestElasticInflightServeBoundary pins the S1 fix on the serving path: the
// §3.3 same-type run includes the request occupying the placed device, so
// with SameTypeLimit=2 the arrival that joins one queued plus one in-flight
// same-type request arrives unsplit. The queue-only count saw a single
// waiting request and — before the fix — kept splitting it.
func TestElasticInflightServeBoundary(t *testing.T) {
	srv, _, ring := startLifecycle(t, func(c *Config) {
		c.Elastic = sched.Elastic{SameTypeLimit: 2}
	})
	id0, ch0, err := srv.enqueue("work", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitBusy(t, srv)
	id1, ch1, err := srv.enqueue("work", 0)
	if err != nil {
		t.Fatal(err)
	}
	id2, ch2, err := srv.enqueue("work", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range []chan outcome{ch0, ch1, ch2} {
		if out := await(t, ch); out.err != nil {
			t.Fatal(out.err)
		}
	}
	blocks := map[int]int{}
	for _, e := range ring.Snapshot() {
		if e.Kind == trace.Arrive && e.Note == trace.NoteQueued {
			// pos, blocks, scanned, qlen: keep the plan length.
			blocks[e.ReqID] = int(e.Args[1])
		}
	}
	if blocks[id0] != 3 || blocks[id1] != 3 {
		t.Fatalf("pre-boundary arrivals: blocks=%d / blocks=%d, want both split", blocks[id0], blocks[id1])
	}
	if blocks[id2] != 1 {
		t.Fatalf("arrival at the run limit got blocks=%d, want 1 (suppressed)", blocks[id2])
	}
}

// TestShedsEnterRollingQoS pins the S4 fix: a deadline shed must enter the
// rolling QoS window (raising the live violation rate the way the offline
// harness counts sheds) without polluting the served-only jitter statistic.
// It runs on the stepped clock, so every latency is exact.
func TestShedsEnterRollingQoS(t *testing.T) {
	reg := obs.NewRegistry()
	srv, sim := startStepped(t, Config{Knobs: engine.Knobs{Alpha: 4}, Catalog: lifecycleCatalog(), Obs: reg})
	got, errs := make(fates, 4), make([]error, 4)
	// A 30 ms blocker holds the device; the victim's 1 ms deadline expires
	// behind it, so it is swept at the boundary and never runs. Two quick
	// requests follow on an idle device.
	arriveAt(sim, srv, 0, "solo", 0, got, errs, 0)
	arriveAt(sim, srv, 0, "quick", 1, got, errs, 1)
	arriveAt(sim, srv, 40, "quick", 0, got, errs, 2)
	arriveAt(sim, srv, 50, "quick", 0, got, errs, 3)
	sim.Run()
	for i, want := range []error{nil, ErrDeadlineExceeded, nil, nil} {
		if errs[i] != nil || !errors.Is(got[i].err, want) {
			t.Fatalf("req %d: front door %v, outcome %v, want %v", i, errs[i], got[i].err, want)
		}
	}
	qs := srv.qos.Snapshot()
	if qs.Window != 4 {
		t.Fatalf("window = %d, want 4 (3 served + 1 shed)", qs.Window)
	}
	if qs.ViolationRate != 0.25 {
		t.Fatalf("rolling violation rate %v, want 0.25 — the shed must count", qs.ViolationRate)
	}
	if got := reg.Gauge(obs.MetricViolationRate, "").Value(); got != 0.25 {
		t.Fatalf("violation-rate gauge %v, want 0.25", got)
	}
	// The served e2e values are exactly 30, 1 and 1 ms; folding in the
	// shed's DoneMs stand-in would move their spread.
	if want := stats.StdDev([]float64{30, 1, 1}); qs.JitterMs != want {
		t.Fatalf("jitter %v, want %v: the shed record leaked into it", qs.JitterMs, want)
	}
}
