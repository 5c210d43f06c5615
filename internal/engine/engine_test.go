package engine

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"split/internal/fleet"
	"split/internal/gpusim"
	"split/internal/model"
	"split/internal/place"
	"split/internal/sched"
	"split/internal/trace"
)

// These tests drive the engine with no simulator and no server: a clock is
// just the float each call is handed.

// jobs the tests feed: "long" is three 10 ms blocks (30 ms isolated),
// "short" 5 ms, "huge" 96 ms; the last two run unsplit.
func job(id int, name string) *Job {
	switch name {
	case "long":
		return &Job{ID: id, Model: name, Class: model.Long, ExtMs: 30, Plan: []float64{10, 10, 10}}
	case "short":
		return &Job{ID: id, Model: name, Class: model.Short, ExtMs: 5, Plan: []float64{5}}
	case "huge":
		return &Job{ID: id, Model: name, Class: model.Long, ExtMs: 96, Plan: []float64{96}}
	}
	panic("unknown test model " + name)
}

func mustNew(t *testing.T, k Knobs) *Engine {
	t.Helper()
	e, err := New(k)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// arrive feeds one job and, as a driver would, grants the lane when the
// engine says it is idle. It returns copies, which outlive the next call.
func arrive(e *Engine, now float64, j *Job) (Arrival, Grant) {
	a := *e.Arrive(now, j)
	if a.Idle {
		return a, *e.Grant(a.Lane, now)
	}
	return a, Grant{}
}

func ids(rs []*sched.Request) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}

// TestArriveReportsAlgorithm1: Pos is Algorithm 1's position and Scanned
// its scan length, the neighbor comparisons it made, which the engine
// derives arithmetically from Pos; the wanted counts are derived by hand.
func TestArriveReportsAlgorithm1(t *testing.T) {
	e := mustNew(t, Knobs{Alpha: 4})
	if _, g := arrive(e, 0, job(0, "long")); !g.OK || g.Batch[0].ID != 0 || g.HoldMs != 10 {
		t.Fatalf("first arrival on an idle lane not granted its first block: %+v", g)
	}
	for i, c := range []struct {
		model       string
		wantPos     int
		wantScanned int
	}{
		{"long", 0, 0},  // empty queue: nothing to compare
		{"short", 0, 1}, // E·T smaller than the long's: passes it
		{"long", 2, 1},  // FIFO behind the same-task long, which stops the scan
		{"short", 1, 3}, // passes both longs, FIFO-stopped by the first short
	} {
		id, now := i+1, float64(i+1)
		a := e.Arrive(now, job(id, c.model))
		if a.Idle || a.Rejected {
			t.Fatalf("arrival %d: idle=%v rejected=%v on a busy lane", id, a.Idle, a.Rejected)
		}
		if a.Pos != c.wantPos || a.Scanned != c.wantScanned || a.QueueLen != i {
			t.Errorf("arrival %d (%s): pos %d scanned %d qlen %d, want %d, %d and %d",
				id, c.model, a.Pos, a.Scanned, a.QueueLen, c.wantPos, c.wantScanned, i)
		}
	}
	if got := ids(e.Queue(0).Requests()); !slices.Equal(got, []int{2, 4, 1, 3}) {
		t.Errorf("queue order %v, want [2 4 1 3]", got)
	}
}

// TestElasticCountsInflight: the §3.3 same-type run an arrival joins
// includes the request holding the lane, so SameTypeLimit=2 suppresses the
// second queued long, not the third.
func TestElasticCountsInflight(t *testing.T) {
	e := mustNew(t, Knobs{Alpha: 4, Elastic: sched.Elastic{SameTypeLimit: 2}})
	arrive(e, 0, job(0, "long")) // in flight
	b := *e.Arrive(1, job(1, "long"))
	c := *e.Arrive(2, job(2, "long"))
	if got := len(b.Req.BlockTimes); got != 3 {
		t.Errorf("run of 1 (the in-flight long): arrival keeps %d blocks, want its 3-block plan", got)
	}
	if got := c.Req.BlockTimes; len(got) != 1 || got[0] != 30 {
		t.Errorf("run of 2 (in-flight + queued): arrival runs %v, want one unsplit 30 ms block", got)
	}
}

// TestBatchStopsNeverSkips: formation stops at the first non-joinable
// queue-front request — here one that is doomed but not yet expired —
// rather than skipping it to reach the joinable one behind it.
func TestBatchStopsNeverSkips(t *testing.T) {
	e := mustNew(t, Knobs{Alpha: 4, BatchMax: 4})
	arrive(e, 0, job(0, "huge"))
	e.Arrive(1, job(1, "short"))
	doomed := job(2, "short")
	doomed.DeadlineMs = 98 // absolute 100: at 96 it cannot finish, but has not expired
	e.Arrive(2, doomed)
	e.Arrive(3, job(3, "short"))

	st := e.Settle(0, 96, "")
	if st.Retry || len(st.Fates) != 1 || st.Fates[0].Kind != Served || st.Fates[0].Req.DoneMs != 96 {
		t.Fatalf("huge not served at its boundary: %+v", st)
	}
	g := e.Grant(0, 96)
	if !g.OK || !slices.Equal(ids(g.Batch), []int{1}) || g.BatchID != 0 || len(g.Shed) != 0 {
		t.Fatalf("grant %v batch-id %d shed %v, want request 1 alone: the doomed 2 stops the batch", ids(g.Batch), g.BatchID, ids(g.Shed))
	}
	if got := ids(e.Queue(0).Requests()); !slices.Equal(got, []int{2, 3}) {
		t.Fatalf("queue %v after formation, want [2 3] untouched", got)
	}
	e.Settle(0, 101, "")
	g = e.Grant(0, 101)
	if !slices.Equal(ids(g.Shed), []int{2}) || !slices.Equal(ids(g.Batch), []int{3}) {
		t.Errorf("after the deadline: shed %v grant %v, want the sweep to shed 2 and grant 3", ids(g.Shed), ids(g.Batch))
	}

	// And when nothing is in the way the run does coalesce.
	e = mustNew(t, Knobs{Alpha: 4, BatchMax: 4})
	arrive(e, 0, job(0, "huge"))
	for i := 1; i <= 3; i++ {
		e.Arrive(float64(i), job(i, "short"))
	}
	e.Settle(0, 96, "")
	g = e.Grant(0, 96)
	if !slices.Equal(ids(g.Batch), []int{1, 2, 3}) || g.BatchID != 1 {
		t.Fatalf("grant %v batch-id %d, want the whole same-type run as batch 1", ids(g.Batch), g.BatchID)
	}
	if want := gpusim.DefaultBatchCost().BlockMs(5, 3); g.RunMs != want || g.BaseMs != 5 {
		t.Errorf("batched hold costs %v (base %v), want BatchCost.BlockMs(5, 3) = %v", g.RunMs, g.BaseMs, want)
	}
}

// TestAdaptiveWidthClampsAndWakes: an adaptive hold on an idle device takes
// every slot; its release names the sibling lane it had covered, and
// granting the sibling first clamps the settled lane's next hold.
func TestAdaptiveWidthClampsAndWakes(t *testing.T) {
	e := mustNew(t, Knobs{Alpha: 4, Partitions: 2, PartitionWidth: place.WidthAdaptive})
	a, g := arrive(e, 0, job(0, "short")) // round-robin: lane 0
	if a.Lane != 0 || !g.OK || g.Frac != 1 {
		t.Fatalf("first hold on an idle device: lane %d frac %v, want lane 0 at full width", a.Lane, g.Frac)
	}
	b := e.Arrive(1, job(1, "short")) // lane 1, anchor covered by the wide hold
	if b.Lane != 1 || b.Idle || b.Req.Partition != 1 {
		t.Fatalf("second arrival: lane %d idle=%v part %d, want lane 1 waiting behind the wide hold", b.Lane, b.Idle, b.Req.Partition)
	}
	if g := e.Grant(1, 1); g.OK {
		t.Fatal("covered anchor was granted")
	}
	e.Arrive(2, job(2, "short")) // lane 0 again, queued behind its own hold

	st := e.Settle(0, 5, "")
	if !slices.Equal(st.Wake, []int{1}) {
		t.Fatalf("release wakes %v, want sibling lane 1", st.Wake)
	}
	sib := e.Grant(1, 5)
	own := e.Grant(0, 5)
	if !sib.OK || sib.Frac != 0.5 || !own.OK || own.Frac != 0.5 {
		t.Fatalf("under contention: sibling frac %v own frac %v, want both clamped to one slot", sib.Frac, own.Frac)
	}
	if want := gpusim.DefaultPartitionCost().BlockMs(5, 0.5); own.RunMs != want {
		t.Errorf("half-width hold costs %v, want PartitionCost.BlockMs(5, 0.5) = %v", own.RunMs, want)
	}
	// With the sibling still holding slot 1, lane 0's release wakes no one.
	if st := e.Settle(0, 12.1, ""); len(st.Wake) != 0 {
		t.Errorf("release with no waiting sibling wakes %v", st.Wake)
	}
}

// TestFrontDoorOrderAndDrainThenDetach walks one elastic, gated fleet
// through its life: the gate decides before the autoscaler runs, the
// autoscaler runs before placement (and even for a rejected arrival), a
// scaled-in device keeps running what it holds, and it detaches when the
// grant that follows its last boundary finds it drained.
func TestFrontDoorOrderAndDrainThenDetach(t *testing.T) {
	e := mustNew(t, Knobs{
		Alpha:     4,
		Placement: place.LeastLoaded,
		Admission: fleet.AdmissionConfig{Mode: fleet.AdmitQueueLength, MaxQueue: 1},
		Fleet: fleet.AutoscaleConfig{Min: 1, Max: 2, EvalEveryMs: 1, HighDepthPerDevice: 1,
			HighViolRate: 1000, ScaleOutCooldownMs: 1, ScaleInCooldownMs: 10, IdleReleaseMs: 10},
	})
	if e.Lanes() != 2 || e.Active() != 1 || e.devices[1].Attached() {
		t.Fatalf("fleet starts with %d lanes, %d active, device 1 attached=%v; want Max=2 lanes, Min=1 active, detached",
			e.Lanes(), e.Active(), e.devices[1].Attached())
	}
	arrive(e, 0, job(0, "long")) // device 0 holds a block and 20 ms more to run
	if b := e.Arrive(10, job(1, "short")); b.Rejected || b.Req.Device != 0 || b.Scale.Dir != fleet.Hold {
		t.Fatalf("second arrival: %+v, want queued on device 0 with the fleet unchanged", b)
	}
	// Depth 1 trips both the gate (MaxQueue 1) and the scale-out watermark:
	// the arrival is rejected on the fleet as it stood, and the evaluation
	// still runs.
	c := e.Arrive(20, job(2, "short"))
	if !c.Rejected || c.Detail != fleet.DetailQueueLength || c.Req != nil {
		t.Fatalf("third arrival: %+v, want a queue_length rejection", c)
	}
	if c.Scale.Dir != fleet.ScaleOut || c.Scale.Device != 1 || c.Scale.Active != 2 || c.Scale.Depth != 1 || !e.devices[1].Attached() {
		t.Fatalf("rejected arrival's scale action %+v, want device 1 attached on depth 1", c.Scale)
	}
	// Placement sees the fleet the evaluation grew.
	e.Cancel(21, 1) // empty the queue so the gate opens
	d, g := arrive(e, 30, job(3, "huge"))
	if d.Rejected || d.Req.Device != 1 || !g.OK {
		t.Fatalf("arrival after scale-out: %+v, want placement on the idle new device", d)
	}
	// Sustained idle queues scale device 1 back in while it is mid-block.
	for now := 40.0; e.Active() == 2; now += 5 {
		if now > 90 {
			t.Fatal("no scale-in after 50 ms of empty queues")
		}
		a := e.Arrive(now, job(int(now), "short"))
		if a.Scale.Dir == fleet.ScaleIn && (a.Scale.Device != 1 || a.Scale.Active != 1 || a.Req.Device != 0) {
			t.Fatalf("scale-in %+v placed on device %d, want device 1 draining and placement on device 0", a.Scale, a.Req.Device)
		}
		e.Cancel(now, a.Req.ID) // keep the queues empty
	}
	if !e.devices[1].Attached() {
		t.Fatal("busy device detached at scale-in; it must drain first")
	}
	if st := e.Settle(1, 126, ""); st.Fates[0].Kind != Served {
		t.Fatalf("draining device's last block: %+v", st.Fates[0])
	}
	if g := e.Grant(1, 126); g.OK || e.devices[1].Attached() {
		t.Fatalf("drained device: grant ok=%v attached=%v, want nothing to run and the device released", g.OK, e.devices[1].Attached())
	}
	st := e.Stats(126)
	if st.ScaleOuts != 1 || st.ScaleIns != 1 || st.MaxActive != 2 || st.Rejected != 1 {
		t.Errorf("stats %+v, want one scale-out, one scale-in, max 2 active, one rejection", st)
	}
	if want := 126.0 + (126 - 20); st.DeviceHoursMs != want {
		t.Errorf("device-hours %v ms, want device 0's 126 plus device 1's attach span 20..126 = %v", st.DeviceHoursMs, want)
	}
}

// TestFateOrder pins the one fate order both drivers get. A terminal fault
// is a device_fault for every member, whatever else is true of it; short of
// that, finished beats canceled beats stopping beats expired.
func TestFateOrder(t *testing.T) {
	alwaysFail := &gpusim.FaultInjector{Seed: 1, FailProb: 1, MaxRetries: 1}
	for _, c := range []struct {
		name     string
		faults   *gpusim.FaultInjector
		model    string
		cancel   bool
		stopping bool
		deadline float64
		retries  int
		terminal bool
		kind     FateKind
		reason   string
	}{
		{name: "terminal fault", faults: alwaysFail, model: "long", retries: 1, terminal: true, kind: Shed, reason: trace.ReasonDeviceFault},
		{name: "terminal fault beats stopping", faults: &gpusim.FaultInjector{Seed: 1, FailProb: 1}, model: "long", stopping: true, terminal: true, kind: Shed, reason: trace.ReasonDeviceFault},
		{name: "terminal fault beats cancel", faults: &gpusim.FaultInjector{Seed: 1, FailProb: 1}, model: "long", cancel: true, terminal: true, kind: Shed, reason: trace.ReasonDeviceFault},
		{name: "cancel abandons the retry", faults: alwaysFail, model: "long", cancel: true, kind: Shed, reason: trace.ReasonCanceled},
		{name: "stopping abandons the retry", faults: alwaysFail, model: "long", stopping: true, kind: Shed, reason: "stopped"},
		{name: "expiry abandons the retry", faults: alwaysFail, model: "long", deadline: 5, kind: Shed, reason: trace.ReasonDeadline},
		{name: "finished beats canceled", model: "short", cancel: true, kind: Served},
		{name: "canceled beats stopping", model: "long", cancel: true, stopping: true, kind: Shed, reason: trace.ReasonCanceled},
		{name: "stopping beats expired", model: "long", stopping: true, deadline: 5, kind: Shed, reason: "stopped"},
		{name: "expired", model: "long", deadline: 5, kind: Shed, reason: trace.ReasonDeadline},
		{name: "otherwise requeued", model: "long", kind: Requeued},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := mustNew(t, Knobs{Alpha: 4, Faults: c.faults})
			j := job(0, c.model)
			j.DeadlineMs = c.deadline
			arrive(e, 0, j)
			if c.cancel {
				if got := e.Cancel(1, 0); got.State != CancelInflight || !got.Marked {
					t.Fatalf("cancel in flight: %+v", got)
				}
				if got := e.Cancel(2, 0); got.State != CancelInflight || got.Marked {
					t.Fatalf("second cancel: %+v, want it reported as already marked", got)
				}
			}
			stop := ""
			if c.stopping {
				stop = "stopped" // the driver's word, not a trace.Reason*
			}
			st := e.Settle(0, 10, stop)
			for i := 0; i < c.retries; i++ {
				if !st.Retry || st.Attempt != i+1 {
					t.Fatalf("boundary %d: %+v, want retry into attempt %d", i, st, i+1)
				}
				st = e.Settle(0, 10+float64(i+1)*st.HoldMs, stop)
			}
			if st.Retry || st.Terminal != c.terminal || len(st.Fates) != 1 {
				t.Fatalf("settlement %+v, want terminal=%v and one fate", st, c.terminal)
			}
			if f := st.Fates[0]; f.Kind != c.kind || f.Reason != c.reason {
				t.Errorf("fate kind %d reason %q, want kind %d reason %q", f.Kind, f.Reason, c.kind, c.reason)
			}
			if e.Inflight(0) != nil || e.devices[0].Busy() {
				t.Error("lane still held after its settlement")
			}
		})
	}
}

// TestBatchTerminalFaultShedsEveryMember: the fault is drawn on the leader
// and takes the whole grant down, including a member canceled meanwhile;
// and a batch never abandons a retry for one member's sake.
func TestBatchTerminalFaultShedsEveryMember(t *testing.T) {
	e := mustNew(t, Knobs{Alpha: 4, BatchMax: 4, Faults: &gpusim.FaultInjector{Seed: 1, FailProb: 1, MaxRetries: 1}})
	arrive(e, 0, job(0, "huge"))
	e.Arrive(1, job(1, "short"))
	e.Arrive(2, job(2, "short"))
	for st := e.Settle(0, 96, ""); st.Retry; st = e.Settle(0, 96, "") {
	}
	g := e.Grant(0, 200)
	if !slices.Equal(ids(g.Batch), []int{1, 2}) {
		t.Fatalf("batch %v, want [1 2]", ids(g.Batch))
	}
	e.Cancel(201, 2)
	st := e.Settle(0, 210, "")
	if !st.Retry {
		t.Fatalf("canceled member abandoned the batch's retry: %+v", st)
	}
	st = e.Settle(0, 220, "")
	if !st.Terminal || len(st.Fates) != 2 {
		t.Fatalf("settlement %+v, want a terminal fault with two fates", st)
	}
	for _, f := range st.Fates {
		if f.Kind != Shed || f.Reason != trace.ReasonDeviceFault {
			t.Errorf("member %d: kind %d reason %q, want device_fault", f.Req.ID, f.Kind, f.Reason)
		}
	}
}

// TestCancelQueued: queued work leaves at once; unknown and decided IDs
// find nothing.
func TestCancelQueued(t *testing.T) {
	e := mustNew(t, Knobs{Alpha: 4, Devices: 2, Placement: place.RoundRobin})
	arrive(e, 0, job(0, "huge"))
	arrive(e, 0, job(1, "huge"))
	e.Arrive(1, job(2, "short")) // device 0, queued
	e.Arrive(1, job(3, "short")) // device 1, queued
	c := e.Cancel(2, 3)
	if c.State != CancelQueued || !c.Marked || c.Req.ID != 3 || !c.Req.Canceled || c.Req.Device != 1 {
		t.Fatalf("cancel of queued request: %+v", c)
	}
	if e.Queue(1).Len() != 0 || e.Queue(0).Len() != 1 || e.Depth() != 1 {
		t.Errorf("queues hold %d and %d after the cancel, want 1 and 0", e.Queue(0).Len(), e.Queue(1).Len())
	}
	for _, id := range []int{3, 99} {
		if got := e.Cancel(3, id); got.State != CancelUnknown || got.Req != nil {
			t.Errorf("cancel of id %d: %+v, want unknown", id, got)
		}
	}
}

// TestReleaseRecyclesRequests: a released request backs the next arrival,
// fully rewritten; requests never released are never handed out twice;
// unsplit requests of one execution time share a read-only one-block plan;
// and Outstanding counts the requests not released, and a double release.
func TestReleaseRecyclesRequests(t *testing.T) {
	e := mustNew(t, Knobs{Alpha: 4})
	first, g := arrive(e, 0, &Job{ID: 0, Model: "a", ExtMs: 5})
	if !g.OK {
		t.Fatal("the first arrival was not granted an idle device")
	}
	if fates := e.Settle(0, 5, "").Fates; len(fates) != 1 || fates[0].Kind != Served {
		t.Fatalf("fates %+v, want one served", fates)
	}
	first.Req.Canceled, first.Req.Preemptions = true, 3
	e.Release(first.Req)

	second, _ := arrive(e, 6, &Job{ID: 1, Model: "b", ExtMs: 5, DeadlineMs: 50})
	if second.Req != first.Req {
		t.Error("the released request was not reused")
	}
	want := sched.NewRequest(1, "b", model.Short, 6, 5, second.Req.BlockTimes)
	want.StartMs, want.Next, want.DeadlineMs = 6, 1, 56
	if got := *second.Req; got.ID != want.ID || got.Model != want.Model || got.ArriveMs != want.ArriveMs ||
		got.StartMs != want.StartMs || got.DoneMs != want.DoneMs || got.Next != want.Next ||
		got.DeadlineMs != want.DeadlineMs || got.Canceled || got.Preemptions != 0 {
		t.Errorf("reused request carries its past: %+v", got)
	}
	third := *e.Arrive(7, &Job{ID: 2, Model: "a", ExtMs: 5})
	if third.Req == second.Req {
		t.Error("a request still in flight was handed out again")
	}
	if &third.Req.BlockTimes[0] != &second.Req.BlockTimes[0] {
		t.Error("two unsplit requests of one execution time do not share their one-block plan")
	}
	other := *e.Arrive(8, &Job{ID: 3, Model: "c", ExtMs: 9})
	if len(other.Req.BlockTimes) != 1 || other.Req.BlockTimes[0] != 9 || third.Req.BlockTimes[0] != 5 {
		t.Errorf("one-block plans %v and %v, want [9] and [5]", other.Req.BlockTimes, third.Req.BlockTimes)
	}
	// Past the memo every request still gets the right plan.
	for i := 0; i < 2*wholeMemo; i++ {
		ext := float64(100 + i)
		if r := e.Arrive(9, &Job{ID: 10 + i, Model: "d", ExtMs: ext}).Req; len(r.BlockTimes) != 1 || r.BlockTimes[0] != ext {
			t.Fatalf("request of %v ms runs plan %v", ext, r.BlockTimes)
		}
	}
	if third.Req.BlockTimes[0] != 5 || other.Req.BlockTimes[0] != 9 {
		t.Error("filling the memo moved or overwrote a plan already handed out")
	}
	live := 3 + 2*wholeMemo // second, third, other and the memo's
	if held, twice := e.Outstanding(); held != live || twice != 0 {
		t.Errorf("Outstanding = (%d, %d), want (%d, 0)", held, twice, live)
	}
	e.Release(second.Req)
	e.Release(second.Req)
	if held, twice := e.Outstanding(); held != live-1 || twice != 1 {
		t.Errorf("Outstanding = (%d, %d) after one request released twice, want (%d, 1)", held, twice, live-1)
	}
}

// badPlacer returns a lane outside the view.
type badPlacer struct{ place.Placer }

func (badPlacer) Name() string                          { return "bad" }
func (badPlacer) Place(place.Request, []place.Load) int { return 7 }

// TestOutOfRangeLanePanics: placers are built by name inside New, so a lane
// outside the view is a bug in this module. Both drivers now get the one
// behaviour — a panic that names the placer — where the server used to
// reroute to lane 0 silently.
func TestOutOfRangeLanePanics(t *testing.T) {
	e := mustNew(t, Knobs{Alpha: 4, Devices: 2})
	e.placer = badPlacer{}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `placer "bad" chose lane 7 of 2`) {
			t.Errorf("recovered %q, want a panic naming the placer and the lane", msg)
		}
	}()
	e.Arrive(0, job(0, "short"))
	t.Error("out-of-range lane was accepted")
}

// TestNewRejectsBadKnobs: construction errors come back as place and fleet
// phrase them, for the drivers to prefix.
func TestNewRejectsBadKnobs(t *testing.T) {
	for want, k := range map[string]Knobs{
		"unknown policy":                 {Placement: "nope"},
		"unknown partition width":        {Partitions: 2, PartitionWidth: "nope"},
		"autoscale Min":                  {Fleet: fleet.AutoscaleConfig{Min: 3, Max: 2}},
		"unknown admission mode":         {Admission: fleet.AdmissionConfig{Mode: "nope"}},
		"Alpha must be finite, got NaN":  {Alpha: math.NaN()},
		"Alpha must be finite, got +Inf": {Alpha: math.Inf(1)},
		// Trace events carry devices and blocks as int16 and partition
		// slots as int8: nothing past them may wrap silently.
		"a fleet of 32768 devices is more than 32767": {Devices: MaxDevices + 1},
		"a fleet of 40000 devices is more than 32767": {Devices: 2, Fleet: fleet.AutoscaleConfig{Min: 1, Max: 40000}},
		"128 partitions per device is more than 127":  {Partitions: MaxPartitions + 1},
	} {
		if _, err := New(k); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("New(%+v): error %v, want one mentioning %q", k, err, want)
		}
	}
	if err := CheckPlan("deep", MaxBlocks+1); err == nil || !strings.Contains(err.Error(), "deep plan has 32768 blocks, more than 32767") {
		t.Errorf("CheckPlan of %d blocks: %v", MaxBlocks+1, err)
	}
	if err := CheckPlan("deep", MaxBlocks); err != nil {
		t.Errorf("CheckPlan of %d blocks: %v", MaxBlocks, err)
	}
}

// TestBatchIDWraps: batch ids ride trace events as int32, so the counter
// wraps from math.MaxInt32 to 1 — never to 0, which means unbatched, and
// never to a negative id.
func TestBatchIDWraps(t *testing.T) {
	e := mustNew(t, Knobs{Alpha: 4, BatchMax: 4})
	e.batchSeq = math.MaxInt32 - 1
	arrive(e, 0, job(0, "huge"))
	for i := 1; i <= 3; i++ {
		e.Arrive(float64(i), job(i, "short"))
	}
	now := 96.0
	var got []int
	for round := 0; round < 2; round++ {
		e.Settle(0, now, "")
		g := e.Grant(0, now)
		if !g.OK || len(g.Batch) != 3 {
			t.Fatalf("round %d: grant %v, want a batch of three", round, ids(g.Batch))
		}
		got = append(got, g.BatchID)
		for _, ev := range AppendGrant(nil, now, g) {
			if int(ev.Batch) != g.BatchID {
				t.Errorf("round %d: %s event carries batch %d, grant %d", round, ev.Kind, ev.Batch, g.BatchID)
			}
		}
		for i := 4; i <= 6; i++ {
			e.Arrive(now+float64(i), job(10*round+i, "short"))
		}
		now += g.HoldMs
	}
	if want := []int{math.MaxInt32, 1}; !slices.Equal(got, want) {
		t.Errorf("batch ids %v, want %v", got, want)
	}
}

// TestDecisionsInPlaceLeakNoState: decisions are engine storage rewritten
// in place, so nothing of one decision may show through the next. A lane's
// grant after a retried and then terminally failed hold starts at attempt 0
// with its own spike draw and its own sweep's sheds; asking a covered lane
// for work leaves the in-flight grant Settle reads untouched; and a second
// Arrive rewrites the first *Arrival but not the first request's placement.
func TestDecisionsInPlaceLeakNoState(t *testing.T) {
	// Every attempt fails. Seed 25 spikes both attempts of request 0 and
	// neither of request 2's, so a stale spike would show on 2's grant.
	e := mustNew(t, Knobs{Alpha: 4, Faults: &gpusim.FaultInjector{Seed: 25, SpikeProb: 0.5, SpikeFactor: 3, FailProb: 1, MaxRetries: 1}})
	fresh := func(g *Grant, lead int, shed []int) {
		t.Helper()
		want := e.devices[0].Faults.Draw(lead, g.Block, 0)
		if !g.OK || !slices.Equal(ids(g.Batch), []int{lead}) || g.Attempt != 0 || g.Spike != want.SpikeFactor ||
			g.HoldMs != g.RunMs*want.SpikeFactor || !slices.Equal(ids(g.Shed), shed) {
			t.Fatalf("grant of %v: attempt %d spike %v hold %v (run %v) shed %v; want request %d at attempt 0, spike %v, shed %v",
				ids(g.Batch), g.Attempt, g.Spike, g.HoldMs, g.RunMs, ids(g.Shed), lead, want.SpikeFactor, shed)
		}
	}
	// fail runs the lane's hold into a transient fault, its retry, and the
	// terminal fault that ends it.
	fail := func(now float64) {
		t.Helper()
		if st := e.Settle(0, now, ""); !st.Retry || st.Attempt != 1 {
			t.Fatalf("first boundary %+v, want a retry into attempt 1", *st)
		}
		if st := e.Settle(0, now+100, ""); !st.Terminal || len(st.Fates) != 1 {
			t.Fatalf("second boundary %+v, want a terminal fault", *st)
		}
	}
	e.Arrive(0, job(0, "huge"))
	fresh(e.Grant(0, 0), 0, nil)
	doomed := job(1, "short")
	doomed.DeadlineMs = 2
	e.Arrive(1, doomed)
	e.Arrive(2, job(2, "short"))
	e.Arrive(3, job(3, "short"))
	fail(100)
	fresh(e.Grant(0, 300), 2, []int{1})
	fail(400)
	fresh(e.Grant(0, 600), 3, nil)

	// A lane whose anchor is covered, by its own hold or by a sibling's wide
	// one, is refused without touching the grant in flight.
	e = mustNew(t, Knobs{Alpha: 4, Partitions: 2, PartitionWidth: place.WidthAdaptive})
	e.Arrive(0, job(0, "short"))
	held := e.Grant(0, 0)
	want := *held
	e.Arrive(1, job(1, "short")) // lane 1, covered by lane 0's full-width hold
	for _, lane := range []int{1, 0} {
		if g := e.Grant(lane, 1); g.OK || g == held {
			t.Fatalf("covered lane %d granted, or refused in the in-flight grant's storage", lane)
		}
	}
	if !reflect.DeepEqual(*held, want) {
		t.Fatalf("refusals rewrote the grant in flight: %+v, want %+v", *held, want)
	}
	if st := e.Settle(0, 5, ""); len(st.Fates) != 1 || st.Fates[0].Req.ID != 0 || st.Fates[0].Kind != Served {
		t.Fatalf("settlement after the refusals: %+v, want request 0 served", *st)
	}

	// Each arrival rewrites the one *Arrival; the requests keep their own
	// placement and queue position.
	e = mustNew(t, Knobs{Alpha: 4, Devices: 2, Placement: place.RoundRobin, Partitions: 2})
	type placed struct {
		req                  *sched.Request
		lane, dev, part, pos int
	}
	var got []placed
	var first *Arrival
	for i := 0; i < 4; i++ {
		a := e.Arrive(float64(i), job(i, "short"))
		if first == nil {
			first = a
		}
		got = append(got, placed{a.Req, a.Lane, a.Req.Device, a.Req.Partition, a.Pos})
	}
	if first.Req.ID != 3 || first.Lane != got[3].lane {
		t.Errorf("first *Arrival reads request %d on lane %d, want the latest arrival's decision", first.Req.ID, first.Lane)
	}
	for i, p := range got {
		if p.req.ID != i || p.req.Device != p.dev || p.req.Partition != p.part || e.Queue(p.lane).Requests()[p.pos] != p.req {
			t.Errorf("request %d: device %d partition %d, want %d and %d at position %d of lane %d",
				p.req.ID, p.req.Device, p.req.Partition, p.dev, p.part, p.pos, p.lane)
		}
	}
	if got[3].dev != 1 || got[3].part != 1 {
		t.Errorf("round-robin placed the fourth arrival on device %d partition %d, want 1 and 1", got[3].dev, got[3].part)
	}
}

// TestNewAllocs pins what building an engine costs the heap: a device of
// one slot keeps its ledger inline, and a partitioned one takes one slice
// for all its slots. The paper's evaluation grid builds hundreds of
// engines per pass, so a stray allocation here shows per request.
func TestNewAllocs(t *testing.T) {
	for _, c := range []struct {
		k   Knobs
		max float64
	}{
		{Knobs{Alpha: 4}, 10},
		{Knobs{Alpha: 4, Devices: 4}, 16},
		{Knobs{Alpha: 4, Devices: 2, Partitions: 2}, 18},
	} {
		got := testing.AllocsPerRun(50, func() { mustNew(t, c.k) })
		if got > c.max {
			t.Errorf("New with %d devices of %d slots: %v allocations, want at most %v", c.k.Devices, c.k.Partitions, got, c.max)
		}
	}
}
