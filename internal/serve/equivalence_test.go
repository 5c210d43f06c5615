package serve

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"

	"split/internal/engine"
	"split/internal/fixture"
	"split/internal/fleet"
	"split/internal/gpusim"
	"split/internal/obs"
	"split/internal/place"
	"split/internal/policy"
	"split/internal/sched"
	"split/internal/trace"
	"split/internal/workload"
)

// stepClock runs a server on gpusim.Sim's clock: now is the sim's, arming a
// hold is sim.After, and a test plants arrivals and cancels with sim.At in
// trace order — the order policy.Split's replay feed is defined to equal
// (FuzzFeedMatchesPreload). The server then works through the sim's events
// on the test's goroutine, and each decision is made at the very instant
// the simulator makes it. Leave TimeScale at its default of 1, so that a
// clock millisecond is a virtual one with no rounding in between.
type stepClock struct{ sim *gpusim.Sim }

func (c stepClock) start()       {}
func (c stepClock) now() float64 { return c.sim.Now() }
func (c stepClock) stop()        {}
func (c stepClock) timer(fire func()) timer {
	return simTimer{c.sim, func(float64) { fire() }}
}

type simTimer struct {
	sim  *gpusim.Sim
	fire func(now float64)
}

func (t simTimer) arm(ms float64) { t.sim.After(ms, t.fire) }

// startStepped builds and starts a server on a stepped clock over a fresh
// sim. Cleanup runs the sim dry before stopping the server, so a test that
// fails with holds still armed shuts down too.
func startStepped(t *testing.T, cfg Config) (*Server, *gpusim.Sim) {
	t.Helper()
	sim := gpusim.New()
	return startOn(t, cfg, sim, stepClock{sim}), sim
}

// startOn is startStepped on clk, a clock of the test's over sim.
func startOn(t *testing.T, cfg Config, sim *gpusim.Sim, clk clock) *Server {
	t.Helper()
	srv, err := newServer(cfg, clk)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(l); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		sim.Run()
		srv.Stop()
	})
	return srv
}

// fates is a recipient filing each outcome under its call's seq.
type fates []outcome

func (f fates) resolve(seq uint64, out *outcome) { f[seq] = *out }

// arriveAt plants an arrival of model at atMs whose outcome files as f[seq]
// and whose front-door error, if any, as errs[seq].
func arriveAt(sim *gpusim.Sim, srv *Server, atMs float64, model string, deadlineMs float64, f fates, errs []error, seq int) {
	sim.At(atMs, func(float64) {
		_, errs[seq] = srv.arrive(model, deadlineMs, waiter{to: f, seq: uint64(seq), attached: true}, &outbound{})
	})
}

// outcomeOf is the simulator's Outcome for a typed serving error.
func outcomeOf(err error) string {
	if err == nil {
		return policy.OutcomeServed
	}
	for reason, typed := range reasonErr {
		if errors.Is(err, typed) {
			return reason
		}
	}
	return "untyped: " + err.Error()
}

// serveOnly reports an event DESIGN §15 assigns to the server alone, which
// the simulator has nothing to say for:
//   - a drop with ReqID -1 is a rejection before the engine's front door
//     (not started, stopped, unknown model), which takes no request ID;
//   - elastic_on/elastic_off are the server's §3.3 gauge transitions;
//   - drain_start/drain_end bracket a process shutdown.
func serveOnly(e trace.Event) bool {
	switch e.Kind {
	case trace.Drop:
		return e.ReqID == -1
	case trace.ElasticOn, trace.ElasticOff, trace.DrainStart, trace.DrainEnd:
		return true
	}
	return false
}

// simView is the server's event stream as the simulator would narrate it:
// the serve-only events dropped, and each cancel's cause word — the server
// knows why a request was canceled ("client cancel", "connection lost"), a
// replayed trace does not — taken off. Nothing else is touched.
func simView(events []trace.Event) []trace.Event {
	var out []trace.Event
	for _, e := range events {
		if serveOnly(e) {
			continue
		}
		if e.Kind == trace.Cancel && e.Note == trace.NoteCancelWhy {
			e.Note, e.Args[1] = trace.NoteWord, 0
		}
		out = append(out, e)
	}
	return out
}

func eventDigest(events []trace.Event) uint64 {
	d := fixture.NewDigest()
	d.Events(events)
	return d.Sum()
}

// pin is one arrival's fate as a row fixes it: outcome, device, partition
// lane and blocks started.
type pin struct {
	outcome string
	device  int
	part    int8
	blocks  int
}

// pinsOf reads the pins of a simulated run from its records and trace.
func pinsOf(recs []policy.Record, events []trace.Event) []pin {
	pins := make([]pin, len(recs))
	for i, r := range recs {
		pins[i] = pin{outcome: r.Outcome, device: r.Device}
	}
	for _, e := range events {
		switch e.Kind {
		case trace.Arrive:
			pins[e.ReqID].part = e.Part
		case trace.StartBlock:
			pins[e.ReqID].blocks++
		}
	}
	return pins
}

// uniform is n arrivals of model, one a millisecond from 0, with the given
// client deadlines (0 = none) when deadlines is not nil.
func uniform(n int, model string, deadlines []float64) []workload.Arrival {
	arrivals := make([]workload.Arrival, n)
	for i := range arrivals {
		arrivals[i] = workload.Arrival{ID: i, Model: model, AtMs: float64(i)}
		if deadlines != nil {
			arrivals[i].DeadlineMs = deadlines[i]
		}
	}
	return arrivals
}

// equivRow is one schedule both drivers run: its knobs, catalog and
// arrivals, and, when want is set, the static pins of every arrival's fate;
// batches is then the sizes of the batched grants in order. metrics pins
// the server's /metrics text (see scrapes and scrapeAt).
type equivRow struct {
	name     string
	knobs    engine.Knobs
	catalog  policy.Catalog
	arrivals []workload.Arrival
	want     []pin
	batches  []int
	metrics  scrapes
}

// scrapes is the FNV-64a digests of a row's whole /metrics text at three
// instants with holds in flight, then at the end of the run.
type scrapes [4]uint64

// scrapeAt plants the three mid-run scrapes of a row whose simulated event
// stream is simEvents: the k-th (k = 1..3) is k/4 of the way into the hold
// of the StartBlock k/4 of the way through the stream's grants. Each
// requires a hold armed when it reads.
func scrapeAt(t *testing.T, sim *gpusim.Sim, srv *Server, reg *obs.Registry, simEvents []trace.Event, got *scrapes) {
	t.Helper()
	var starts []trace.Event
	for _, e := range simEvents {
		if e.Kind == trace.StartBlock {
			starts = append(starts, e)
		}
	}
	if len(starts) == 0 {
		t.Fatal("no grant to scrape during")
	}
	for k := 1; k <= 3; k++ {
		e := starts[k*len(starts)/4]
		sim.At(e.AtMs+e.Args[0]*float64(k)/4, func(now float64) {
			srv.mu.Lock()
			armed := srv.armed
			srv.mu.Unlock()
			if armed == 0 {
				t.Errorf("scrape %d at %v: no hold in flight", k, now)
			}
			got[k-1] = metricsDigest(t, reg)
		})
	}
}

func metricsDigest(t *testing.T, reg *obs.Registry) uint64 {
	t.Helper()
	h := fnv.New64a()
	if err := reg.WritePrometheus(h); err != nil {
		t.Fatal(err)
	}
	return h.Sum64()
}

// deadlinesRow is five "work" requests (3 × 20 ms) a millisecond apart,
// FIFO: r0 runs 0–60; r1 (deadline 71) is granted at 60 and shed at its
// first boundary, 80; r2 (deadline 32) expires queued; r3 and r4 are served.
func deadlinesRow() equivRow {
	const S, D = policy.OutcomeServed, policy.OutcomeDeadline
	return equivRow{name: "deadlines", knobs: engine.Knobs{Alpha: 4}, catalog: lifecycleCatalog(),
		arrivals: uniform(5, "work", []float64{1000, 70, 30, 1000, 500}),
		want:     []pin{{S, 0, 0, 3}, {D, 0, 0, 1}, {D, 0, 0, 0}, {S, 0, 0, 3}, {S, 0, 0, 3}},
		metrics:  scrapes{0x1b55be406187db73, 0x4f4625c1f77dffad, 0xe3558f12fd31a4c6, 0xea0d0393a18bc60c}}
}

// checkEquivalence runs row through policy.Split and through a server on a
// stepped clock and requires the two to agree exactly, with no tolerance
// anywhere —
//   - the server's event stream, in simView, has the FNV digest of the
//     simulator's over every field the golden digests hash;
//   - each served request's RecordOf equals the simulator's record field for
//     field, and each other request's typed error maps to its Outcome;
//   - split_drops_total per reason, split_completions_total and
//     split_admitted_total count what the records count;
//   - the ArrivalRecorder's trace, through the versioned trace format, is
//     the admitted input arrivals: their IDs, models, times and client
//     deadlines, with a cancellation wherever one took effect (a cohort
//     name never reaches a server);
//   - the server's stream folds into spans with no problems;
//   - the /metrics text has the row's pinned digests, three times while
//     holds are in flight and once at the end.
//
// It returns the simulator's event stream and the server's.
func checkEquivalence(t *testing.T, row equivRow) (simEvents, srvEvents []trace.Event) {
	t.Helper()
	simTr := trace.New()
	recs := (&policy.Split{Knobs: row.knobs}).Run(row.arrivals, row.catalog, simTr)
	simEvents = simTr.Events()
	if row.want != nil {
		if got := pinsOf(recs, simEvents); !reflect.DeepEqual(got, row.want) {
			t.Errorf("simulator fates %v, want %v", got, row.want)
		}
		if got := batchSizes(simEvents); !slices.Equal(got, row.batches) {
			t.Errorf("simulator batches %v, want %v", got, row.batches)
		}
	}

	tr, reg, rec := trace.New(), obs.NewRegistry(), workload.NewRecorder()
	srv, sim := startStepped(t, Config{Knobs: row.knobs, Catalog: row.catalog,
		Sink: tr, Obs: reg, ArrivalRecorder: rec})
	n := len(row.arrivals)
	got, errs := make(fates, n), make([]error, n)
	for i := range row.arrivals {
		a := &row.arrivals[i]
		if a.ID != i {
			t.Fatalf("arrival %d has ID %d: the server numbers requests by arrival", i, a.ID)
		}
		arriveAt(sim, srv, a.AtMs, a.Model, a.DeadlineMs, got, errs, i)
		if a.CancelAtMs > 0 {
			sim.At(a.CancelAtMs, func(float64) { srv.Cancel(a.ID) })
		}
	}
	var scraped scrapes
	scrapeAt(t, sim, srv, reg, simEvents, &scraped)
	sim.Run()
	scraped[3] = metricsDigest(t, reg)
	if scraped != row.metrics {
		t.Errorf("/metrics digests %#x, pinned %#x", scraped, row.metrics)
	}

	// The event streams.
	srvEvents = tr.Events()
	view := simView(srvEvents)
	if eventDigest(view) != eventDigest(simEvents) {
		t.Errorf("event digests differ (%d serve events, %d simulated)", len(view), len(simEvents))
		for i := range min(len(view), len(simEvents)) {
			if view[i] != simEvents[i] {
				t.Fatalf("first difference at event %d:\n serve %v\n sim   %v", i, view[i], simEvents[i])
			}
		}
	}
	if tree := trace.BuildSpans(srvEvents); len(tree.Problems) != 0 {
		t.Errorf("serve span problems: %v", tree.Problems)
	}

	// The records, and the metrics that count them.
	tally := map[string]int64{}
	marked, rejection := map[int]bool{}, map[int]string{}
	for _, e := range simEvents {
		switch {
		case e.Kind == trace.Cancel:
			marked[e.ReqID] = true
		case e.Kind == trace.Drop && e.Note == trace.NoteAdmission:
			rejection[e.ReqID] = strings.TrimPrefix(e.Detail(), trace.ReasonAdmission+": ")
		}
	}
	var admitted []workload.Arrival
	for i, r := range recs {
		tally[r.Outcome]++
		if r.Outcome == policy.OutcomeAdmission {
			if o := outcomeOf(errs[i]); o != r.Outcome || !strings.Contains(errs[i].Error(), rejection[i]) {
				t.Errorf("req %d: server's front door says %v, simulator %q (%s)", i, errs[i], r.Outcome, rejection[i])
			}
			continue
		}
		out := got[i]
		if errs[i] != nil || out.err == nil && out.req.Model == "" {
			t.Errorf("req %d: no outcome (front door: %v); simulator %q", i, errs[i], r.Outcome)
			continue
		}
		if o := outcomeOf(out.err); o != r.Outcome {
			t.Errorf("req %d: served as %q, simulated as %q", i, o, r.Outcome)
		} else if o == policy.OutcomeServed && policy.RecordOf(&out.req, out.req.DoneMs, o) != r {
			t.Errorf("req %d: served record %+v, simulated %+v", i, policy.RecordOf(&out.req, out.req.DoneMs, o), r)
		}
		a := row.arrivals[i]
		a.Cohort = ""
		if !marked[a.ID] {
			a.CancelAtMs = 0
		}
		admitted = append(admitted, a)
	}
	for _, reason := range []string{policy.OutcomeDeadline, policy.OutcomeCanceled,
		policy.OutcomeDeviceFault, policy.OutcomeAdmission} {
		if n := reg.Counter(obs.MetricDropsTotal, dropsHelp, "reason", reason).Value(); n != tally[reason] {
			t.Errorf("split_drops_total{reason=%q} = %d, simulator shed %d", reason, n, tally[reason])
		}
	}
	completions := int64(0)
	for name := range row.catalog {
		completions += reg.Counter(obs.MetricCompletionsTotal, "", "model", name).Value()
	}
	if completions != tally[policy.OutcomeServed] {
		t.Errorf("split_completions_total sums to %d, simulator served %d", completions, tally[policy.OutcomeServed])
	}
	if srv.eng.Gated() {
		if n := reg.Counter(obs.MetricAdmittedTotal, "").Value(); n != int64(len(admitted)) {
			t.Errorf("split_admitted_total = %d, simulator admitted %d", n, len(admitted))
		}
	}

	// The recorded trace.
	var buf bytes.Buffer
	if err := rec.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	h, recorded, err := workload.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Source != "serve" || !reflect.DeepEqual(recorded, admitted) {
		t.Errorf("recorded trace (source %q, %d arrivals) is not the %d admitted arrivals%s",
			h.Source, len(recorded), len(admitted), firstDiff(recorded, admitted))
	}
	return simEvents, srvEvents
}

// TestSimServeEquivalence holds the live serving path (§4.1–4.2) to the
// simulator's decisions: every row passes checkEquivalence.
//
// The golden rows are TestSplitGoldenDigests' three configurations on its
// 5 k-arrival trace. The small rows carry the worked schedules of the
// wall-clock parity tests this test replaced, with their static pins, so a
// drift both drivers share cannot pass either. The deadline, fleet and
// batching schedules have their own tests below.
func TestSimServeEquivalence(t *testing.T) {
	deployment := policy.NewCatalog(fixture.Deployment())
	golden := fixture.Arrivals()
	paper := policy.NewSplit().Knobs
	fleet4 := paper
	fleet4.Devices, fleet4.Placement = 4, place.LeastLoaded
	const S, D, C, F, A = policy.OutcomeServed, policy.OutcomeDeadline, policy.OutcomeCanceled,
		policy.OutcomeDeviceFault, policy.OutcomeAdmission
	// Four "work" requests (3 × 20 ms, FIFO): r0 runs 0–60; r1 (deadline
	// 71) is granted at 60 and shed at its first boundary, 80; r2 is served
	// 80–140; r3 is canceled at 40 while it waits.
	replayTrace := uniform(4, "work", []float64{0, 70, 1000, 0})
	replayTrace[3].CancelAtMs = 40

	rows := []equivRow{
		{name: "golden/plain-1dev", knobs: paper, catalog: deployment, arrivals: golden,
			metrics: scrapes{0x2069b40453b36a13, 0x42b05ba2d9c681be, 0x5315751a41344a34, 0x93914c6363606493}},
		{name: "golden/fleet-4dev-least-loaded", knobs: fleet4, catalog: deployment, arrivals: golden,
			metrics: scrapes{0xba1840ca180258ec, 0x8dfac961fe80314, 0x428487b59a83be5f, 0xa69423ab0437e766}},
		{name: "golden/all-features", knobs: fixture.AllFeatures(), catalog: deployment, arrivals: golden,
			metrics: scrapes{0xae6429c3510acc65, 0x68658b339d71e38b, 0x80fae49ca6461c03, 0x59a0cf17974dd6b0}},
		// Two fixed-width partitions of one device: the lanes alternate and
		// each 30 ms block runs stretched to 30/eff(1/2) on its half.
		{name: "partitions", catalog: lifecycleCatalog(), arrivals: uniform(4, "solo", nil),
			knobs: engine.Knobs{Alpha: 4, Devices: 1, Placement: place.RoundRobin,
				Partitions: 2, PartitionWidth: place.WidthFixed},
			want:    []pin{{S, 0, 0, 1}, {S, 0, 1, 1}, {S, 0, 0, 1}, {S, 0, 1, 1}},
			metrics: scrapes{0xd013f1386ecd55fe, 0x40b0c84131991db5, 0x40b0c84131991db5, 0xa7f251734eca71b3}},
		// A token bucket of three that refills nothing in the run: the first
		// three requests pass and every later one is rejected.
		{name: "admission", catalog: lifecycleCatalog(), arrivals: uniform(10, "quick", nil),
			knobs: engine.Knobs{Alpha: 4, Elastic: sched.DefaultElastic(),
				Admission: fleet.AdmissionConfig{Mode: fleet.AdmitTokenBucket, RatePerSec: 0.001, Burst: 3}},
			want: []pin{{S, 0, 0, 1}, {S, 0, 0, 1}, {S, 0, 0, 1},
				{A, 0, 0, 0}, {A, 0, 0, 0}, {A, 0, 0, 0}, {A, 0, 0, 0}, {A, 0, 0, 0}, {A, 0, 0, 0}, {A, 0, 0, 0}},
			metrics: scrapes{0x6e19dd8e5b3cf661, 0xfd05bb80e96522fc, 0xadb02b27ec5a355b, 0xb52167687368baa5}},
		{name: "record-replay", knobs: engine.Knobs{Alpha: 4}, catalog: lifecycleCatalog(), arrivals: replayTrace,
			want:    []pin{{S, 0, 0, 3}, {D, 0, 0, 1}, {S, 0, 0, 3}, {C, 0, 0, 0}},
			metrics: scrapes{0xecbab76888a9ad7a, 0xf434e5ef2cddfd80, 0xd3409230bd778e4b, 0xd47e299b33373425}},
		// The one fate order: every attempt of r0's first block fails, and
		// with no retry budget the first failure is terminal. The cancel at
		// 10 lands mid-block, and the fault wins.
		{name: "fault-beats-cancel", catalog: lifecycleCatalog(),
			arrivals: []workload.Arrival{{ID: 0, Model: "work", AtMs: 0, CancelAtMs: 10}},
			knobs:    engine.Knobs{Alpha: 4, Faults: &gpusim.FaultInjector{Seed: 11, FailProb: 1}},
			want:     []pin{{F, 0, 0, 1}},
			metrics:  scrapes{0x2ebbbaf4f730b29a, 0x2ebbbaf4f730b29a, 0x2ebbbaf4f730b29a, 0x8f9c15e4aaa2964a}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) { checkEquivalence(t, row) })
	}
}

// TestSimServeParity holds the server's deadline handling to the
// simulator's on deadlinesRow: a shed at a block boundary, an expiry in the
// queue, and three requests served.
func TestSimServeParity(t *testing.T) {
	checkEquivalence(t, deadlinesRow())
}

// TestSimServeSpanParity folds deadlinesRow's two event streams into span
// trees: both fold with no problems, every request's span — outcome,
// intervals, wait/exec/preempted decomposition, devices, batches — is equal
// on the two sides, and the decomposition identity holds exactly.
func TestSimServeSpanParity(t *testing.T) {
	row := deadlinesRow()
	simEvents, srvEvents := checkEquivalence(t, row)
	simTree, srvTree := trace.BuildSpans(simEvents), trace.BuildSpans(srvEvents)
	if len(simTree.Problems) != 0 {
		t.Fatalf("sim span problems: %v", simTree.Problems)
	}
	for i := range row.arrivals {
		sim, srv := simTree.Span(i), srvTree.Span(i)
		if sim == nil || srv == nil {
			t.Fatalf("req %d missing a span: sim=%v serve=%v", i, sim, srv)
		}
		if !reflect.DeepEqual(*sim, *srv) {
			t.Errorf("req %d spans differ:\n sim   %+v\n serve %+v", i, *sim, *srv)
		}
		if !srv.Decided() {
			t.Errorf("req %d: serve span undecided", i)
		} else if got := srv.WaitMs + srv.ExecMs + srv.PreemptedMs; got != srv.E2EMs() {
			t.Errorf("req %d: decomposition %v != e2e %v", i, got, srv.E2EMs())
		}
	}
}

// TestFleetSimServeParity holds round-robin fleets of 1, 2 and 4 devices to
// the simulator on one schedule of five "work" requests. N=1: FIFO, r2
// (deadline 52) and r3 (73) expire queued at the 60 and 120 ms sweeps.
// N=2: r0, r2, r4 on d0 and r1, r3 on d1; r2 expires at d0's 60 ms sweep,
// r3 is granted on d1 at 60 and shed at 80. N=4: r2 and r3 start at once
// on their own devices.
func TestFleetSimServeParity(t *testing.T) {
	const S, D = policy.OutcomeServed, policy.OutcomeDeadline
	want := map[int][]pin{
		1: {{S, 0, 0, 3}, {S, 0, 0, 3}, {D, 0, 0, 0}, {D, 0, 0, 0}, {S, 0, 0, 3}},
		2: {{S, 0, 0, 3}, {S, 1, 0, 3}, {D, 0, 0, 0}, {D, 1, 0, 1}, {S, 0, 0, 3}},
		4: {{S, 0, 0, 3}, {S, 1, 0, 3}, {S, 2, 0, 3}, {S, 3, 0, 3}, {S, 0, 0, 3}},
	}
	metrics := map[int]scrapes{
		1: {0xd75fb0e57d2dc5ca, 0x4f4625c1f77dffad, 0xc7ce689dd039db1b, 0x8073d214993406e2},
		2: {0x7bc34d1af6190ddf, 0xfb4715f782368fdb, 0x87f4f43233e57b02, 0x153e3b9baac7f4b2},
		4: {0x706cda1f6b9c3719, 0x43ee3659b5cd06ed, 0x5ac96e2519fd9fad, 0xce9a0a9b768a82af},
	}
	for _, n := range []int{1, 2, 4} {
		name := fmt.Sprintf("devices=%d", n)
		t.Run(name, func(t *testing.T) {
			checkEquivalence(t, equivRow{name: name, catalog: lifecycleCatalog(),
				knobs:    engine.Knobs{Alpha: 4, Devices: n, Placement: place.RoundRobin},
				arrivals: uniform(5, "work", []float64{1000, 1000, 50, 70, 1000}),
				want:     want[n],
				metrics:  metrics[n]})
		})
	}
}

// TestSimServeBatchingParity holds the server's micro-batches to the
// simulator's at BatchMax 1, 2 and 3: a "solo" blocker holds the device
// while three "quick" requests queue behind it and, with BatchMax > 1,
// coalesce at its boundary into one batch of at most BatchMax.
func TestSimServeBatchingParity(t *testing.T) {
	const S = policy.OutcomeServed
	arrivals := []workload.Arrival{
		{ID: 0, Model: "solo", AtMs: 0},
		{ID: 1, Model: "quick", AtMs: 1},
		{ID: 2, Model: "quick", AtMs: 2},
		{ID: 3, Model: "quick", AtMs: 3},
	}
	batches := map[int][]int{1: nil, 2: {2}, 3: {3}}
	metrics := map[int]scrapes{
		1: {0x544ea7966d9f6671, 0x2bbbd21ee0ff7657, 0x6466fd41736b71b2, 0x942a83d81e847910},
		2: {0x36799c46d2e75d7a, 0x36799c46d2e75d7a, 0x5a345579aba8c4a3, 0xc38812abf6a4c5db},
		3: {0x14f920532c6863c3, 0x14f920532c6863c3, 0x14f920532c6863c3, 0x769b1334dc3cb2ad},
	}
	for _, batchMax := range []int{1, 2, 3} {
		name := fmt.Sprintf("BatchMax=%d", batchMax)
		t.Run(name, func(t *testing.T) {
			checkEquivalence(t, equivRow{name: name, catalog: lifecycleCatalog(),
				knobs:    engine.Knobs{Alpha: 4, Elastic: sched.DefaultElastic(), BatchMax: batchMax},
				arrivals: arrivals,
				want:     []pin{{S, 0, 0, 1}, {S, 0, 0, 1}, {S, 0, 0, 1}, {S, 0, 0, 1}},
				batches:  batches[batchMax],
				metrics:  metrics[batchMax]})
		})
	}
}

// firstDiff names the first arrival two traces disagree on.
func firstDiff(got, want []workload.Arrival) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf(": at %d recorded %+v, admitted %+v", i, got[i], want[i])
		}
	}
	return ""
}
