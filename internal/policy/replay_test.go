package policy

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"split/internal/engine"
	"split/internal/fleet"
	"split/internal/gpusim"
	"split/internal/model"
	"split/internal/trace"
	"split/internal/workload"
)

// TestReplayRejectsBadTraces: the generator bugs every system must refuse —
// in the replay's own validation pass, since arrivals no longer go through
// Sim.At, whose panic on a non-finite time used to be the only guard.
func TestReplayRejectsBadTraces(t *testing.T) {
	catalog := synthCatalog()
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name     string
		arrivals []workload.Arrival
		want     string
	}{
		{"NaN arrival", []workload.Arrival{{ID: 0, Model: "long", AtMs: nan}}, "invalid time"},
		{"NaN after a valid arrival", []workload.Arrival{{ID: 0, Model: "long", AtMs: 3}, {ID: 1, Model: "long", AtMs: nan}}, "invalid time"},
		{"+Inf arrival", []workload.Arrival{{ID: 0, Model: "long", AtMs: inf}}, "invalid time"},
		{"-Inf arrival", []workload.Arrival{{ID: 0, Model: "long", AtMs: -inf}}, "invalid time"},
		{"negative arrival", []workload.Arrival{{ID: 0, Model: "long", AtMs: -1}}, "invalid time"},
		{"NaN cancel", []workload.Arrival{{ID: 0, Model: "long", AtMs: 1, CancelAtMs: nan}}, "invalid time"},
		{"+Inf cancel", []workload.Arrival{{ID: 0, Model: "long", AtMs: 1, CancelAtMs: inf}}, "invalid time"},
		{"unordered", []workload.Arrival{{ID: 0, Model: "long", AtMs: 10}, {ID: 1, Model: "long", AtMs: 5}}, "not time-ordered"},
		{"unknown model", []workload.Arrival{{ID: 0, Model: "mystery", AtMs: 0}}, "unknown model"},
	} {
		for _, sys := range append(allSystems(), NewREEF()) {
			func() {
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.want) {
						t.Errorf("%s on %s: recovered %q, want a panic naming %q", c.name, sys.Name(), msg, c.want)
					}
				}()
				sys.Run(c.arrivals, catalog, nil)
			}()
		}
	}
}

// TestCancelBeforeArrivalFindsNothing pins the behaviour of a cancellation
// due before its own arrival: it fires first, finds nothing to cancel, and
// the request then runs to completion.
func TestCancelBeforeArrivalFindsNothing(t *testing.T) {
	arrivals := []workload.Arrival{
		{ID: 0, Model: "short", AtMs: 0},
		{ID: 1, Model: "short", AtMs: 20, CancelAtMs: 8},
	}
	tr := trace.New()
	recs := NewSplit().Run(arrivals, synthCatalog(), tr)
	if len(recs) != 2 || !recs[1].Served() || recs[1].DoneMs != 25 {
		t.Fatalf("records %+v: request 1 should be served at 25 despite its early cancel", recs)
	}
	for _, e := range tr.Events() {
		if e.Kind == trace.Cancel || e.Kind == trace.Shed {
			t.Errorf("a cancel that found nothing narrated %+v", e)
		}
	}
}

// TestRecordsSortedWhenIDsAreNot: records are filed in arrival order, which
// is ID order for every generator; a trace whose IDs are not ascending still
// comes back sorted by ID, from every system.
func TestRecordsSortedWhenIDsAreNot(t *testing.T) {
	arrivals := scenarioArrivals(3)
	for i := range arrivals {
		arrivals[i].ID = (len(arrivals) - i) * 7
	}
	for _, sys := range append(allSystems(), NewREEF()) {
		recs := sys.Run(arrivals, synthCatalog(), nil)
		if len(recs) != len(arrivals) {
			t.Fatalf("%s: %d records for %d arrivals", sys.Name(), len(recs), len(arrivals))
		}
		if !slices.IsSortedFunc(recs, func(x, y Record) int { return x.ID - y.ID }) {
			t.Errorf("%s: records not in ID order", sys.Name())
		}
		if recs[0].ID != 7 || recs[0].ArriveMs != arrivals[len(arrivals)-1].AtMs {
			t.Errorf("%s: first record %+v is not the last arrival's", sys.Name(), recs[0])
		}
	}
}

// TestRunLeavesCatalogPlansUntouched: requests execute the catalog's own
// plan slices rather than copies, so a run — with every feature that reads
// block times on — must not write through them.
func TestRunLeavesCatalogPlansUntouched(t *testing.T) {
	catalog := goldenCatalog()
	before := map[string][]float64{}
	for name := range catalog {
		before[name] = catalog.BlocksFor(name)
	}
	allFeatures().Run(goldenArrivals(t), catalog, trace.New())
	for name, want := range before {
		if got := catalog.BlocksFor(name); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: plan %v after the run, was %v", name, got, want)
		}
	}
	// And the sharing is real: a job's plan is the catalog's slice.
	job, _ := catalog.Job(1, "vgg19", 0)
	if &job.Plan[0] != &catalog["vgg19"].Plan.BlockTimesMs[0] {
		t.Error("Catalog.Job copied the plan")
	}
}

// TestRunLeavesArrivalsUntouched: a trace is read-only to every system —
// core hands one scenario's slice to each system it compares — so a run,
// traced or not, on a trace with deadlines and cancels must not write to it.
func TestRunLeavesArrivalsUntouched(t *testing.T) {
	catalog, arrivals := goldenCatalog(), goldenArrivals(t)
	if !slices.ContainsFunc(arrivals, func(a workload.Arrival) bool { return a.CancelAtMs > 0 }) ||
		!slices.ContainsFunc(arrivals, func(a workload.Arrival) bool { return a.DeadlineMs > 0 }) {
		t.Fatal("the trace carries no cancels or no deadlines")
	}
	before := slices.Clone(arrivals)
	partial := NewSplit()
	partial.PartialPreemption = true
	for _, sys := range append(allSystems(), NewREEF(), partial, allFeatures()) {
		for _, tr := range []*trace.Tracer{nil, trace.New()} {
			sys.Run(arrivals, catalog, tr)
			if !reflect.DeepEqual(arrivals, before) {
				t.Fatalf("%s (traced %v) wrote to its arrivals", sys.Name(), tr != nil)
			}
		}
	}
}

// TestSystemsRunConcurrently holds System.Run's concurrency contract: every
// system, and SPLIT with batching, partitions, autoscaling, admission,
// deadlines and faults on, replays one shared trace and catalog from
// GOMAXPROCS+1 goroutines at once, every other one traced, and each run's
// records and events must equal a serial run's. Under -race it also catches
// a run that writes to its receiver, the catalog or the trace.
func TestSystemsRunConcurrently(t *testing.T) {
	catalog, arrivals := goldenCatalog(), goldenArrivals(t)[:2000]
	partial := NewSplit()
	partial.PartialPreemption = true
	for _, sys := range append(allSystems(), NewREEF(), partial, allFeatures()) {
		serial := trace.New()
		want := [2][]Record{sys.Run(arrivals, catalog, nil), sys.Run(arrivals, catalog, serial)}
		wantEvents := serial.Events()
		var wg sync.WaitGroup
		for g := 0; g <= runtime.GOMAXPROCS(0); g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var tr *trace.Tracer
				if g%2 == 1 {
					tr = trace.New()
				}
				if got := sys.Run(arrivals, catalog, tr); !reflect.DeepEqual(got, want[g%2]) {
					t.Errorf("%s (traced %v): a concurrent run's records differ from a serial run's", sys.Name(), tr != nil)
				}
				if tr != nil && !reflect.DeepEqual(tr.Events(), wantEvents) {
					t.Errorf("%s: a concurrent run's events differ from a serial run's", sys.Name())
				}
			}()
		}
		wg.Wait()
	}
}

// TestRunAllocs holds the per-arrival allocation bill in tier-1: a run
// allocates per run (engine or queues, records) and per chunk of requests in
// flight at once, never per arrival; and beyond its record slice, its bytes
// track the requests in flight, so a request that is never handed back shows.
// SPLIT runs a 4-device fleet; the single-device baselines get a trace one
// device keeps up with, since a saturated one holds the whole trace in flight.
func TestRunAllocs(t *testing.T) {
	const n = 20000
	fleet := NewSplit()
	fleet.Devices = 4
	fleet.Placement = "least-loaded"
	for _, c := range []struct {
		sys        System
		intervalMs float64
	}{
		{fleet, 8},
		{NewClockWork(), 32},
		{NewPREMA(), 32},
		{NewRTA(), 32},
	} {
		arrivals := mixArrivals(t, n, c.intervalMs)
		catalog := goldenCatalog()
		perRun := testing.AllocsPerRun(3, func() { c.sys.Run(arrivals, catalog, nil) })
		// The set-up allowances cover what a run of any length allocates.
		const setup, setupBytes = 100, 64 << 10
		if perArrival := (perRun - setup) / n; perArrival > 0.1 {
			t.Errorf("%s: %.0f allocations for %d arrivals: %.3f per arrival beyond the %d set-up allowance, want <= 0.1",
				c.sys.Name(), perRun, n, perArrival, setup)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.sys.Run(arrivals, catalog, nil)
		runtime.ReadMemStats(&after)
		record := float64(unsafe.Sizeof(Record{}))
		if extra := (float64(after.TotalAlloc-before.TotalAlloc)-setupBytes)/n - record; extra > 8 {
			t.Errorf("%s: %.1f bytes per arrival beyond its %.0f-byte record and the set-up allowance, want <= 8",
				c.sys.Name(), extra, record)
		}
	}
}

// mixArrivals is n Poisson arrivals over the five golden models.
func mixArrivals(t *testing.T, n int, intervalMs float64) []workload.Arrival {
	t.Helper()
	arrivals, err := workload.GenerateCohorts(workload.CohortSetConfig{
		Cohorts: []workload.Cohort{{
			Name:    "mix",
			Models:  []string{"yolov2", "googlenet", "resnet50", "vgg19", "gpt2"},
			Process: workload.Process{Kind: workload.ProcPoisson, MeanIntervalMs: intervalMs},
		}},
		Count: n,
		Seed:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return arrivals
}

// TestTracedRunAllocs holds the bill of a traced run in tier-1: recording
// an event costs no allocation of its own, so beyond the untraced run's
// allocations a traced run makes only the tracer's chunks, one per few
// thousand events; and the span fold over the SPLIT run stays within its
// bytes per request.
func TestTracedRunAllocs(t *testing.T) {
	const n = 20000
	for _, c := range []struct {
		sys        System
		intervalMs float64
	}{
		{allFeatures(), 8},
		{NewClockWork(), 32},
		{NewPREMA(), 32},
		{NewRTA(), 32},
	} {
		arrivals, catalog := mixArrivals(t, n, c.intervalMs), goldenCatalog()
		tr := trace.New()
		c.sys.Run(arrivals, catalog, tr)
		events := float64(tr.Len())
		untraced := testing.AllocsPerRun(2, func() { c.sys.Run(arrivals, catalog, nil) })
		traced := testing.AllocsPerRun(2, func() { c.sys.Run(arrivals, catalog, trace.New()) })
		// Chunk growth: one chunk per 4096 events plus the chunk list's own
		// doublings; the set-up allowance covers a traced run's scratch.
		const setup = 20
		chunks := math.Ceil(events/4096) + math.Ceil(math.Log2(events/4096+1))
		if perEvent := (traced - untraced - chunks - setup) / events; perEvent > 1.0/1000 {
			t.Errorf("%s: %.0f allocations traced, %.0f untraced, for %.0f events: %.4f per event beyond chunk growth and set-up, want <= 0.001",
				c.sys.Name(), traced, untraced, events, perEvent)
		}
		if _, ok := c.sys.(*Split); !ok {
			continue
		}
		evs := tr.Events()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tree := trace.BuildSpans(evs)
		runtime.ReadMemStats(&after)
		// 719 bytes measured (go1.24, amd64), plus 10 %: the span, its
		// intervals and devices, and the fold's index and state.
		const bound = 790
		if perReq := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(tree.Requests)); perReq > bound {
			t.Errorf("%s: BuildSpans allocates %.0f bytes per request, want <= %d", c.sys.Name(), perReq, bound)
		}
	}
}

// preload is the oracle the feed must match: the run loop every system had
// before the feed — plant the whole trace in the heap, then drain it.
func (rp *replay) preload(arrive func(i int, info *ModelInfo, now float64), cancel func(i int, now float64)) {
	for i, a := range rp.arrivals {
		rp.sim.At(a.AtMs, func(now float64) { arrive(i, rp.models.lookup(a.Model), now) })
		if cancel != nil && a.CancelAtMs > 0 {
			rp.sim.At(a.CancelAtMs, func(now float64) { cancel(i, now) })
		}
	}
	rp.sim.Run()
}

// tieCatalog has integer block times, so integer-millisecond arrivals land
// exactly on block boundaries; "blip" opens with a zero-length block, whose
// boundary — and every fault retry of it — fires in the instant it started.
func tieCatalog() Catalog {
	graph := func(name string, class model.RequestClass, ms float64) *model.Graph {
		return &model.Graph{Name: name, Domain: "t", Class: class, Ops: []model.Op{{Name: "op", TimeMs: ms}}}
	}
	return NewCatalog(map[string]*model.Graph{
		"short": graph("short", model.Short, 2),
		"long":  graph("long", model.Long, 9),
		"blip":  graph("blip", model.Short, 3),
	}, map[string]*model.SplitPlan{
		"long": {Model: "long", Cuts: []int{1, 2}, BlockTimesMs: []float64{3, 3, 3}},
		"blip": {Model: "blip", Cuts: []int{1}, BlockTimesMs: []float64{0, 3}},
	})
}

// tieTrace decodes fuzz bytes into a trace on integer milliseconds: gaps of
// 0–3 ms (0 = simultaneous arrivals), cancels from 4 ms before the arrival
// (due first, finds nothing) to 11 ms after (often exactly on a later
// arrival or a boundary), integer deadlines.
func tieTrace(data []byte, descending bool) []workload.Arrival {
	models := []string{"short", "long", "blip"}
	var arrivals []workload.Arrival
	at := 0.0
	for ; len(data) >= 3 && len(arrivals) < 48; data = data[3:] {
		at += float64(data[0] % 4)
		a := workload.Arrival{ID: len(arrivals), Model: models[int(data[1])%len(models)], AtMs: at}
		if c := data[2]; c%3 == 0 {
			a.CancelAtMs = at + float64(c%16) - 4
		} else if c%3 == 1 {
			a.DeadlineMs = float64(c % 32)
		}
		arrivals = append(arrivals, a)
	}
	if descending {
		for i := range arrivals {
			arrivals[i].ID = len(arrivals) - 1 - i
		}
	}
	return arrivals
}

// tieSplit decodes a feature mask into a Split configuration.
func tieSplit(mask uint8) *Split {
	s := NewSplit()
	s.Devices = 1 + int(mask%3)
	s.Placement = "least-loaded"
	if mask&4 != 0 {
		s.BatchMax = 3
	}
	if mask&8 != 0 {
		s.Partitions = 2
		s.PartitionWidth = "adaptive"
	}
	if mask&16 != 0 {
		s.EnforceDeadlines = true
		s.PredictiveShed = true
	}
	if mask&32 != 0 {
		s.Faults = &gpusim.FaultInjector{Seed: int64(mask), SpikeProb: .2, SpikeFactor: 2, FailProb: .3, MaxRetries: 2}
	}
	if mask&64 != 0 {
		s.Fleet = fleet.AutoscaleConfig{Min: 1, Max: 3}
	}
	if mask&128 != 0 {
		s.Admission = fleet.AdmissionConfig{Mode: fleet.AdmitTokenBucket, RatePerSec: 300, Burst: 4}
	}
	return s
}

// FuzzFeedMatchesPreload: feeding the trace from a cursor fires exactly what
// planting it in the heap fired, in the same order — through the bare replay
// with a handler that only spawns timers, and through Split with any mix of
// features, whose traced event stream and records must be identical.
func FuzzFeedMatchesPreload(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 2, 0, 2, 4, 3, 1, 0, 0, 0, 9, 2, 2, 6, 0, 1, 12}, uint8(0), false)
	f.Add([]byte{1, 2, 3, 0, 2, 0, 0, 2, 33, 2, 1, 15, 0, 0, 6, 1, 1, 7, 3, 2, 3}, uint8(32+16+1), false)
	f.Add([]byte{0, 1, 0, 0, 1, 3, 0, 1, 6, 0, 1, 9, 3, 0, 12, 0, 2, 15, 0, 2, 18}, uint8(64+8+4+2), true)
	f.Add([]byte{2, 0, 5, 0, 0, 5, 0, 1, 21, 1, 2, 0, 0, 2, 3, 0, 0, 24, 3, 1, 6}, uint8(128+32+16+4), false)
	f.Fuzz(func(t *testing.T, data []byte, mask uint8, descending bool) {
		catalog := tieCatalog()
		arrivals := tieTrace(data, descending)

		// The bare replay: every trace event spawns timers 0, 1 and 3 ms out,
		// so timers tie with arrivals, with cancels and with each other.
		bare := func(drive func(rp *replay, arrive func(int, *ModelInfo, float64), cancel func(int, float64))) (fired []string, processed int) {
			rp := newReplay(arrivals, catalog)
			spawn := func(what string, i int, now float64) {
				fired = append(fired, fmt.Sprintf("%s %d @%v", what, i, now))
				for _, d := range []float64{0, 1, 3} {
					rp.sim.After(d, func(now float64) { fired = append(fired, fmt.Sprintf("timer %s %d+%v @%v", what, i, d, now)) })
				}
			}
			drive(rp,
				func(i int, info *ModelInfo, now float64) {
					if info != catalog[arrivals[i].Model] {
						t.Fatalf("arrival %d resolved to %+v", i, info)
					}
					spawn("arrive", i, now)
				},
				func(i int, now float64) { spawn("cancel", i, now) })
			return fired, rp.sim.Processed()
		}
		wantFired, wantProcessed := bare((*replay).preload)
		gotFired, gotProcessed := bare((*replay).feed)
		if !slices.Equal(gotFired, wantFired) {
			t.Fatalf("bare replay fired\n%s\nplanting fired\n%s", strings.Join(gotFired, "\n"), strings.Join(wantFired, "\n"))
		}
		if gotProcessed != wantProcessed {
			t.Errorf("feed processed %d events, planting %d", gotProcessed, wantProcessed)
		}

		// Split end to end.
		s := tieSplit(mask)
		if _, err := engine.New(s.Knobs); err != nil {
			t.Skip(err)
		}
		split := func(drive func(rp *replay, arrive func(int, *ModelInfo, float64), cancel func(int, float64))) ([]Record, []trace.Event, FleetStats) {
			tr := trace.New()
			rn := s.newRun(arrivals, catalog, tr)
			drive(rn.replay, rn.arrive, rn.cancel)
			return rn.finish(), tr.Events(), rn.eng.Stats(rn.sim.Now())
		}
		wantRecs, wantEvents, wantStats := split((*replay).preload)
		gotRecs, gotEvents, gotStats := split((*replay).feed)
		if !reflect.DeepEqual(gotEvents, wantEvents) {
			for i := range min(len(gotEvents), len(wantEvents)) {
				if gotEvents[i] != wantEvents[i] {
					t.Fatalf("event %d: fed %+v, planted %+v", i, gotEvents[i], wantEvents[i])
				}
			}
			t.Fatalf("fed run traced %d events, planted run %d", len(gotEvents), len(wantEvents))
		}
		if !reflect.DeepEqual(gotRecs, wantRecs) {
			t.Fatalf("records differ:\nfed     %+v\nplanted %+v", gotRecs, wantRecs)
		}
		if gotStats != wantStats {
			t.Errorf("stats: fed %+v, planted %+v", gotStats, wantStats)
		}
		for i, r := range gotRecs {
			if r.ID != i {
				t.Fatalf("record %d has ID %d: want one record per arrival, in ID order", i, r.ID)
			}
		}
	})
}
