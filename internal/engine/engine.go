// Package engine is SPLIT's scheduler, written once: request wrapper →
// Algorithm 1 → token → block → boundary (§3.3–3.4), plus everything the
// reproduction grew around that path — fleet placement, micro-batching,
// partition lanes, the autoscaler, the admission gate, deadlines and fault
// retry.
//
// The engine owns no clock, no goroutine, no lock, no sink and no channel.
// Its whole surface is events in, decisions out, returned by reference:
//
//	Arrive(now, job)             the front door: admit → autoscale → place →
//	                             elastic split → deadline → Algorithm 1
//	Cancel(now, id)              queued work leaves now, in-flight work at
//	                             its next boundary
//	Grant(lane, now)             sweep → pop → batch → acquire → cost → draw
//	Settle(lane, now, stop)      retry or release, one fate per member, the
//	                             sibling lanes to wake
//
// Two drivers turn decisions into time. policy.Split is the virtual-clock
// driver: a Grant becomes a gpusim timer, a fate becomes a Record.
// serve.Server is the wall-clock driver: a Grant becomes a wall-clock timer
// armed under the server mutex, a fate becomes an RPC reply and a metric. Neither
// makes a scheduling decision of its own, and neither describes one: the
// Append* functions of narrate.go turn each decision value into its trace
// events, once, for both. That is what "the serving path exercises the same
// code path as the simulator" means.
//
// A returned decision is engine storage, and so are the slices inside it
// (Grant.Batch, Settlement.Fates, Settlement.Wake): a lane's *Grant and
// *Settlement stay valid until that lane's next Grant or Settle, an
// *Arrival until the engine's next Arrive. A caller that keeps a decision
// longer, or reads it without the engine's lock, copies it first. Handing
// out references is what keeps the grant loop free of allocations and of
// decision-sized copies in both drivers.
package engine

import (
	"fmt"
	"math"

	"split/internal/fleet"
	"split/internal/gpusim"
	"split/internal/model"
	"split/internal/modelid"
	"split/internal/place"
	"split/internal/sched"
	"split/internal/trace"
)

// Knobs are the scheduling knobs, declared once and embedded by both
// policy.Split and serve.Config, so a configuration tuned in the simulator
// carries to the server field for field. The zero value of every knob
// beyond Alpha and Elastic is "off", and off reproduces the paper's single
// shared GPU bit-for-bit.
type Knobs struct {
	// Alpha is the latency-target multiplier used in scheduling decisions.
	Alpha float64
	// Elastic configures §3.3 elastic splitting.
	Elastic sched.Elastic
	// StarveGuardRR, when > 0, enables the starvation-guard extension: a
	// waiting request whose predicted response ratio already reaches this
	// value cannot be passed by later arrivals. See sched.Queue.
	StarveGuardRR float64
	// EnforceDeadlines derives an absolute deadline ArriveMs + α·t_ext for
	// every request (unless the arrival supplies its own) and sheds expired
	// requests at block boundaries instead of letting them keep occupying
	// the device. Arrival-supplied deadlines are honored even when this is
	// off.
	EnforceDeadlines bool
	// PredictiveShed additionally sheds requests that can no longer finish
	// by their deadline even if granted the device immediately
	// (EdgeServing-style), rather than waiting for the deadline to pass.
	PredictiveShed bool
	// Faults, when non-nil, injects deterministic block-latency spikes and
	// transient block failures with bounded per-block retry. Draws are a
	// pure hash of (seed, request, block, attempt), so both drivers replay
	// identical fault schedules; on a fleet the schedule is split per
	// device (FaultInjector.ForDevice).
	Faults *gpusim.FaultInjector
	// Devices is the fleet size: each device is an independent timeline
	// with its own queue, elastic state, and fault schedule, fed by the
	// placement policy. 0 or 1 reproduces the paper's single shared GPU
	// bit-for-bit.
	Devices int
	// Placement names the fleet placement policy (see internal/place):
	// "round-robin", "least-loaded" or "affinity". Empty selects
	// place.Default. Ignored on a single device beyond validation.
	Placement string
	// BatchMax enables same-type micro-batching when > 1: at a block
	// boundary the granted request may coalesce up to BatchMax same-model,
	// same-boundary queue-front neighbors into one batched device grant
	// (sched.BatchPlanner), priced by gpusim.DefaultBatchCost(). <= 1 — the
	// default — grants batches of one and reproduces prior records and
	// traces bit-for-bit.
	BatchMax int
	// Partitions enables spatial sharing when > 1: every device is split
	// into that many concurrent partition slots (gpusim
	// ConfigurePartitions), each with its own scheduling lane — queue,
	// elastic state, hold — fed by lane-level placement. <= 1 — the
	// default — keeps the temporal-only path and reproduces prior records
	// and traces bit-for-bit.
	Partitions int
	// PartitionCost prices fractional-width block execution; the zero value
	// means gpusim.DefaultPartitionCost(). Ignored unless Partitions > 1.
	PartitionCost gpusim.PartitionCost
	// PartitionWidth names the hold-width policy under spatial sharing:
	// place.WidthFixed ("fixed", every hold takes one slot) or
	// place.WidthAdaptive ("adaptive", holds take the contiguous free span
	// at their anchor — full device width when idle). Empty selects
	// place.DefaultWidth. Ignored unless Partitions > 1.
	PartitionWidth string
	// Fleet configures the elastic autoscaler: when enabled (Max > 0) the
	// engine holds Fleet.Max devices of which [Min, Max] are active, scaled
	// on queue-depth and rolling-QoS signals with drain-then-release
	// semantics; Devices is superseded by the bounds. The zero value keeps
	// the fixed fleet of Devices — and the decision stream bit-identical to
	// the pre-elastic scheduler.
	Fleet fleet.AutoscaleConfig
	// Admission configures the front-door gate; the zero value admits
	// everything. A rejected arrival never touches a queue.
	Admission fleet.AdmissionConfig
}

// Job is one resolved arrival: the driver has already looked the model up
// in its catalog, so the engine never sees one.
type Job struct {
	ID    int
	Model string
	Class model.RequestClass
	// ExtMs is t_ext, the isolated unsplit execution time.
	ExtMs float64
	// Plan is the deployed block plan; empty means one unsplit block of
	// ExtMs. Read-only: the request executes this very slice (or a single
	// ExtMs block when elastic splitting suppresses it), which is typically
	// the catalog's own, shared by every request of the model.
	Plan []float64
	// DeadlineMs, when > 0, is the client's deadline that many milliseconds
	// after arrival; 0 derives α·t_ext when EnforceDeadlines is on.
	DeadlineMs float64
}

// Scale is one autoscaler actuation, reported so AppendArrival can narrate
// it and drivers can count it. Dir is fleet.Hold when nothing happened.
type Scale struct {
	Dir fleet.Decision
	// Device is the device that joined (scale-out) or began
	// drain-then-release (scale-in).
	Device int
	// Active is the active prefix size after the action.
	Active int
	// Depth is the signal behind the action: requests waiting across the
	// active fleet for a scale-out, requests still queued on the draining
	// device for a scale-in.
	Depth int
}

// Arrival is the front door's decision for one job.
type Arrival struct {
	// Rejected reports an admission-gate rejection; Detail is then one of
	// the fleet.Detail* strings and every placement field is zero.
	Rejected bool
	Detail   string
	// Scale is the autoscaler actuation this arrival triggered, if any. It
	// happened after the admission decision and before placement.
	Scale Scale
	// Req is the wrapped request, already inserted at Pos of Lane's queue;
	// its Device and Partition carry the placement.
	Req  *sched.Request
	Lane int
	Pos  int
	// QueueLen is the lane's queue length before the insertion — the depth
	// the placer saw.
	QueueLen int
	// Scanned is Algorithm 1's scan length: the neighbor comparisons made
	// to find Pos.
	Scanned int
	// Idle reports that the lane's anchor slot is free, so the driver
	// should Grant the lane now.
	Idle bool
	// model is the job's model ID, which the arrival's events carry.
	model modelid.ID
	// placer names the placement policy on engines with more than one lane,
	// where an arrival narrates its Place event; the zero Word on a single
	// lane.
	placer trace.Word
}

// Grant is one boundary-delimited device hold: Batch (a scalar grant is a
// batch of one) executes block Block for HoldMs. OK is false when the lane
// had nothing to run — covered anchor, or an empty queue after the sweep.
type Grant struct {
	OK   bool
	Lane int
	// Shed lists the doomed requests the boundary sweep removed before the
	// token was granted, in queue order; each is a deadline shed. Set even
	// when OK is false.
	Shed []*sched.Request
	// Batch is the grant's membership in FIFO order; Batch[0] leads (its ID
	// keys the fault draws). BatchID numbers grants of two or more from 1
	// and is 0 for a batch of one.
	Batch   []*sched.Request
	BatchID int
	Block   int
	// BaseMs is the leader's profiled block time; RunMs is one attempt's
	// device time after the batch and partition cost models; HoldMs is
	// RunMs stretched by the current attempt's latency spike.
	BaseMs float64
	RunMs  float64
	HoldMs float64
	// Frac is the device fraction the hold was granted (1 unpartitioned).
	Frac float64
	// Attempt counts fault retries of this block from 0; Spike is the
	// current attempt's latency factor (1 = none).
	Attempt int
	Spike   float64
	// fail is the current attempt's drawn outcome.
	fail bool
	// spatial marks a hold on a partitioned device, whose narration names
	// the granted fraction.
	spatial bool
}

// FateKind is what became of one grant member at its boundary.
type FateKind uint8

const (
	// Served: the request finished its plan; DoneMs is set.
	Served FateKind = iota
	// Requeued: blocks remain; the request re-entered its queue at Pos.
	Requeued
	// Shed: the request is dropped for Reason — a trace.Reason* constant, or
	// the shutdown reason the driver passed to Settle.
	Shed
)

// Fate is one member's outcome of a settled grant.
type Fate struct {
	Req    *sched.Request
	Kind   FateKind
	Reason string
	// Pos is a requeue's chosen position; Pos > 0 counted as a preemption.
	Pos int
}

// Settlement is the boundary decision for one hold. Retry means the block
// failed transiently and runs again: hold the lane for HoldMs more and call
// Settle again. Otherwise the hold is released and Fates says what became
// of each member.
type Settlement struct {
	Retry bool
	// Attempt is the attempt now current — the one to run on Retry, the one
	// that exhausted the budget on Terminal. HoldMs and Spike describe the
	// attempt a Retry runs.
	Attempt int
	HoldMs  float64
	Spike   float64
	// Terminal reports that the block kept failing past the retry budget;
	// every member's fate is then a device-fault shed.
	Terminal bool
	Fates    []Fate
	// Wake lists the sibling lanes of the released device that hold queued
	// work behind an anchor slot this release may have uncovered, in the
	// order they must be granted — before the settled lane itself, which
	// is what makes an adaptive hold shrink under contention.
	Wake []int
}

// CancelState reports what a cancellation found.
type CancelState uint8

const (
	// CancelUnknown: no pending request with that ID.
	CancelUnknown CancelState = iota
	// CancelQueued: the request was waiting; it has been removed and is
	// shed now.
	CancelQueued
	// CancelInflight: the request holds (or shares) a grant; it is shed at
	// the grant's boundary unless that boundary completes it.
	CancelInflight
)

// String is the state as trace details and the RPC surface spell it.
func (s CancelState) String() string {
	return [...]string{"unknown", "queued", "inflight"}[s]
}

// Cancellation is Cancel's decision. Marked is false when an in-flight
// request had already been canceled, so drivers do not report it twice.
type Cancellation struct {
	State  CancelState
	Req    *sched.Request
	Marked bool
}

// Stats summarizes the control plane's activity.
type Stats struct {
	// DeviceHoursMs is the summed attached device-time, the elastic
	// fleet's cost denominator. A fixed fleet reports Devices x horizon.
	DeviceHoursMs float64
	// ScaleOuts / ScaleIns count autoscaler actuations.
	ScaleOuts int
	ScaleIns  int
	// MaxActive is the largest active fleet size reached.
	MaxActive int
	// Admitted / Rejected count front-door admission decisions; both stay
	// 0 when the gate is disabled.
	Admitted int
	Rejected int
}

// lane is one scheduling lane — a (device, partition) pair with its own
// queue and token. Unpartitioned, a lane IS a device and every lane index
// is a device index; under spatial sharing the sibling lanes of a device
// share its *gpusim.Device slot ledger, anchored at distinct slots.
type lane struct {
	dev *gpusim.Device
	// part is the lane's anchor partition slot; want is the hold width the
	// lane requests at every grant (1 fixed, Partitions adaptive — the
	// ledger clamps to the contiguous free span).
	part  int
	want  int
	queue *sched.Queue
	// inflight is the leader of the lane's current grant, nil while idle.
	// It is not in the queue; Cancel marks it cancel-at-next-boundary.
	inflight *sched.Request
	// g is the lane's single in-flight grant. A lane holds at most one, so
	// its state — and the batch and fate buffers it points into — is reused
	// for every hold. refused is the lane's not-OK grant, kept apart so that
	// asking a covered lane for work leaves the grant Settle reads intact;
	// st is the lane's settlement.
	g       Grant
	refused Grant
	st      Settlement
	scratch []*sched.Request
	fates   []Fate
}

// Engine is the decision core. It is not safe for concurrent use: the
// simulator calls it from its event loop, the server under its mutex.
type Engine struct {
	// PartialPreemption degrades full preemption to the straggler-prone
	// partial scheme of Figure 3(a): a preempted request's remaining blocks
	// re-enter the queue at the back instead of at their greedy position.
	// Only the simulator's Figure 3 ablation sets it; the serving path
	// ships full preemption, so it is not a Knob.
	PartialPreemption bool

	k       Knobs
	lanes   []lane
	devices []*gpusim.Device
	placer  place.Placer
	// placedBy is the placer's name on engines with more than one lane, where
	// arrivals narrate a Place event; the zero Word on a single lane. Built
	// once: a Spatial placer composes its name.
	placedBy  trace.Word
	spatial   *place.Spatial
	planner   sched.BatchPlanner
	batchCost gpusim.BatchCost
	partCost  gpusim.PartitionCost
	// parts is the per-device partition count (1 unpartitioned — every
	// index formula degenerates to the device index).
	parts    int
	batchSeq int
	// active is the size of the active device prefix devices[:active];
	// devices at or past it are draining (finishing queued work, then
	// detaching) or detached. Without the autoscaler it is len(devices)
	// forever.
	active    int
	maxActive int
	scaler    *fleet.Autoscaler
	admit     *fleet.Admission
	// window feeds the autoscaler's rolling violation rate with the same
	// per-request predicate as metrics.ViolationRate; nil without a scaler.
	window *fleet.Window
	// deviceIDs is 0..len(devices)-1; its prefixes are the Resize argument.
	// view and wake are reusable buffers: the placer's fleet view and
	// Settlement.Wake.
	deviceIDs []int
	view      []place.Load
	wake      []int
	// slab is the unused tail of the current request chunk, chunk that
	// chunk's size, free the requests drivers have handed back, and drawn
	// how many slab entries newRequest has handed out in all; see
	// newRequest, Release and Outstanding.
	slab  []sched.Request
	chunk int
	free  []*sched.Request
	drawn int
	// wholes holds the one-block plans of requests that run unsplit, one
	// entry per distinct ExtMs seen; see wholePlan.
	wholes []float64
	// arrival is the front door's decision, rewritten by every Arrive.
	arrival Arrival
	// models resolves each job's model name to the ID its events carry,
	// once per model.
	models modelid.Memo
}

// Slab chunks double from slabMin to slabMax requests: a run of a few
// arrivals pays for a few requests, a long one allocates under 0.01 times
// per request, and no chunk is so large (18 KB) that a live server's
// in-flight requests pin much dead weight.
const (
	slabMin = 8
	slabMax = 128
)

// newRequest hands out a released request if there is one, else the next
// slab entry. A driver that never calls Release leaves each chunk to the
// collector once the last request in it has left the system.
//
//lint:hotpath every arrival draws its request here
func (e *Engine) newRequest() *sched.Request {
	if n := len(e.free); n > 0 {
		r := e.free[n-1]
		e.free = e.free[:n-1]
		return r
	}
	if len(e.slab) == 0 {
		e.chunk = min(max(2*e.chunk, slabMin), slabMax)
		//lint:ignore hotalloc amortized slab refill: one allocation per chunk of arrivals
		e.slab = make([]sched.Request, e.chunk)
	}
	r := &e.slab[0]
	e.slab = e.slab[1:]
	e.drawn++
	return r
}

// Release hands a request's storage back for a later arrival. The caller
// promises that the request has met its terminal fate (served, shed or
// canceled out of the queue), that it releases it once, and that no
// pointer to it will be read again. Both drivers release every admitted
// request at its fate: the simulator as it files the request's record, the
// server once it has copied what the waiter needs into the outcome. A run's
// requests therefore occupy a few warm chunks however long it lasts.
//
//lint:hotpath both drivers release every admitted request at its fate
func (e *Engine) Release(r *sched.Request) {
	//lint:ignore hotalloc bounded by the peak number of requests in flight
	e.free = append(e.free, r)
}

// Outstanding reports how many requests the engine has handed out that no
// driver has released, and how many it holds twice over on its free list;
// a driver that has released every request at its fate reads (0, 0) once
// idle. It walks the free list, so it is for tests, not the hot path.
func (e *Engine) Outstanding() (held, twice int) {
	seen := make(map[*sched.Request]bool, len(e.free))
	for _, r := range e.free {
		if seen[r] {
			twice++
		}
		seen[r] = true
	}
	return e.drawn - len(seen), twice
}

// wholeMemo is how many distinct one-block plans an engine shares.
const wholeMemo = 8

// wholePlan is the plan of a request that runs as one block of extMs: no
// split plan, or §3.3 suppressed it. A trace names a handful of models, so
// the plans are shared (BlockTimes is read-only) from a memo scanned by
// value; wholes never reallocates, so a plan cut from it stays put. Past
// wholeMemo distinct times a request pays for its own.
//
//lint:hotpath every unsplit arrival takes its plan here
func (e *Engine) wholePlan(extMs float64) []float64 {
	for i, w := range e.wholes {
		if w == extMs {
			return e.wholes[i : i+1 : i+1]
		}
	}
	if n := len(e.wholes); n < cap(e.wholes) {
		e.wholes = append(e.wholes, extMs)
		return e.wholes[n : n+1 : n+1]
	}
	//lint:ignore hotalloc only past wholeMemo distinct unsplit execution times
	return []float64{extMs}
}

// The widest engine and the longest plan a trace event can describe:
// trace.Event carries its device and block as int16 and its partition
// slot as int8. New refuses a wider fleet, and the drivers refuse a longer
// plan where it enters their catalog (CheckPlan).
const (
	MaxDevices    = math.MaxInt16
	MaxPartitions = math.MaxInt8
	MaxBlocks     = math.MaxInt16
)

// CheckPlan refuses a plan of more than MaxBlocks blocks for the named
// model.
func CheckPlan(name string, blocks int) error {
	if blocks > MaxBlocks {
		return fmt.Errorf("engine: %s plan has %d blocks, more than %d", name, blocks, MaxBlocks)
	}
	return nil
}

// New validates k and builds an idle engine. Errors come back exactly as
// place and fleet phrase them; drivers add their own prefix.
func New(k Knobs) (*Engine, error) {
	if math.IsNaN(k.Alpha) || math.IsInf(k.Alpha, 0) {
		return nil, fmt.Errorf("engine: Alpha must be finite, got %g", k.Alpha)
	}
	if k.Devices > MaxDevices || k.Fleet.Max > MaxDevices {
		return nil, fmt.Errorf("engine: a fleet of %d devices is more than %d", max(k.Devices, k.Fleet.Max), MaxDevices)
	}
	if k.Partitions > MaxPartitions {
		return nil, fmt.Errorf("engine: %d partitions per device is more than %d", k.Partitions, MaxPartitions)
	}
	scaler, err := fleet.NewAutoscaler(k.Fleet)
	if err != nil {
		return nil, err
	}
	admit, err := fleet.NewAdmission(k.Admission)
	if err != nil {
		return nil, err
	}
	n := max(k.Devices, 1)
	active := n
	if scaler != nil {
		// The engine holds Max devices; the autoscaler moves the active
		// prefix between Min and Max. A fixed Devices setting is superseded
		// by the controller's bounds.
		n = k.Fleet.Max
		active = max(k.Fleet.Min, 1)
	}
	parts := max(k.Partitions, 1)
	// Placement is lane-level under spatial sharing: the inner policy picks
	// among n*parts lanes and the Spatial wrapper maps the pick to a
	// (device, partition, width) decision. Unpartitioned, lanes == devices
	// and the placer is exactly the device-level policy it always was.
	placer, err := place.New(k.Placement, n*parts)
	if err != nil {
		return nil, err
	}
	var spatial *place.Spatial
	want := 1
	if parts > 1 {
		if spatial, err = place.NewSpatial(placer, parts, k.PartitionWidth); err != nil {
			return nil, err
		}
		placer = spatial
		if spatial.Width() != place.WidthFixed {
			want = parts
		}
	}
	e := &Engine{
		k:         k,
		lanes:     make([]lane, n*parts),
		devices:   make([]*gpusim.Device, n),
		deviceIDs: make([]int, n),
		placer:    placer,
		spatial:   spatial,
		planner:   sched.BatchPlanner{Max: k.BatchMax},
		batchCost: gpusim.DefaultBatchCost(),
		partCost:  k.PartitionCost.OrDefault(),
		parts:     parts,
		active:    active,
		maxActive: active,
		scaler:    scaler,
		admit:     admit,
		view:      make([]place.Load, n*parts),
		wake:      make([]int, 0, parts),
		wholes:    make([]float64, 0, wholeMemo),
	}
	if len(e.lanes) > 1 {
		e.placedBy = trace.WordOf(placer.Name())
	}
	if scaler != nil {
		e.window = fleet.NewWindow(0)
	}
	for i := range e.devices {
		e.deviceIDs[i] = i
		d := &gpusim.Device{ID: i, Faults: k.Faults.ForDevice(i)}
		if i < active {
			d.Attach(0)
		}
		d.ConfigurePartitions(parts)
		e.devices[i] = d
	}
	for i := range e.lanes {
		q := sched.NewQueue(k.Alpha)
		q.StarveGuardRR = k.StarveGuardRR
		e.lanes[i] = lane{dev: e.devices[i/parts], part: i % parts, want: want, queue: q, refused: Grant{Lane: i}}
	}
	return e, nil
}

// Lanes is the number of scheduling lanes, Devices x Parts.
func (e *Engine) Lanes() int { return len(e.lanes) }

// Devices is the number of physical devices the engine holds (Fleet.Max
// under the autoscaler).
func (e *Engine) Devices() int { return len(e.devices) }

// Parts is the per-device partition count, 1 unpartitioned.
func (e *Engine) Parts() int { return e.parts }

// Active is the size of the actively placed device prefix.
func (e *Engine) Active() int { return e.active }

// Elastic reports whether the autoscaler is enabled.
func (e *Engine) Elastic() bool { return e.scaler != nil }

// Gated reports whether the admission gate is enabled.
func (e *Engine) Gated() bool { return e.admit != nil }

// Batching reports whether grants can coalesce more than one request.
func (e *Engine) Batching() bool { return e.planner.Enabled() }

// PlacerName names the placement policy as traces print it; under spatial
// sharing it carries the width policy ("least-loaded+adaptive").
func (e *Engine) PlacerName() string { return e.placer.Name() }

// Placement names the device-level placement policy alone.
func (e *Engine) Placement() string {
	if e.spatial != nil {
		return e.spatial.Inner().Name()
	}
	return e.placer.Name()
}

// Queue returns the lane's waiting queue for inspection; callers must not
// mutate it.
func (e *Engine) Queue(lane int) *sched.Queue { return e.lanes[lane].queue }

// Inflight returns the leader of the lane's current grant, nil while idle.
func (e *Engine) Inflight(lane int) *sched.Request { return e.lanes[lane].inflight }

// Depth is the total number of waiting requests across every lane.
func (e *Engine) Depth() int {
	depth := 0
	for i := range e.lanes {
		depth += e.lanes[i].queue.Len()
	}
	return depth
}

// DeviceDepth is the number of requests waiting on one device's lanes.
func (e *Engine) DeviceDepth(dev int) int {
	depth := 0
	for i := dev * e.parts; i < (dev+1)*e.parts; i++ {
		depth += e.lanes[i].queue.Len()
	}
	return depth
}

// DeviceBusyMs is one device's occupancy over its settled holds, pro-rated
// by granted fraction.
func (e *Engine) DeviceBusyMs(dev int) float64 { return e.devices[dev].BusyMs() }

// Stats reports the control plane's activity up to now.
func (e *Engine) Stats(now float64) Stats {
	st := Stats{MaxActive: e.maxActive}
	for _, d := range e.devices {
		st.DeviceHoursMs += d.ActiveMs(now)
	}
	if e.admit != nil {
		as := e.admit.Stats()
		st.Admitted, st.Rejected = as.Admitted, as.Rejected
	}
	if e.scaler != nil {
		st.ScaleOuts, st.ScaleIns = e.scaler.Events()
	}
	return st
}

// Arrive is the front door, in one fixed order: admission gate, the
// throttled autoscale evaluation, placement, the §3.3 elastic split
// decision, deadline derivation, and the Algorithm 1 insertion. Any other
// interleaving would let two drivers diverge under the same schedule.
//
//lint:hotpath the front door runs once per request, in the simulator's event loop and under the server mutex
func (e *Engine) Arrive(now float64, job *Job) *Arrival {
	out := &e.arrival
	//lint:ignore hotalloc a model's name is interned once, at its first arrival
	*out = Arrival{model: e.models.ID(job.Model)}
	if e.admit != nil {
		if ok, detail := e.admit.Admit(now, job.ExtMs, e.k.Alpha, e.admitView()); !ok {
			// Rejected at the door: never enqueued, never started.
			out.Rejected, out.Detail = true, detail
			out.Scale = e.autoscale(now)
			return out
		}
	}
	out.Scale = e.autoscale(now)
	view := e.fleetView()
	planned := job.ExtMs
	if len(job.Plan) > 0 {
		planned = 0
		for _, b := range job.Plan {
			planned += b
		}
	}
	preq := place.Request{ID: job.ID, Model: job.Model, ExtMs: job.ExtMs, PlannedMs: planned}
	var dev, idx int
	if e.spatial != nil {
		dec := e.spatial.Decide(preq, view)
		dev, idx = dec.Device, place.LaneOf(dec.Device, dec.Partition, e.parts)
	} else {
		dev = e.placer.Place(preq, view)
		idx = dev
	}
	if idx < 0 || idx >= len(view) {
		// Placers are built by name inside New, never injected: a lane
		// outside the view is a bug in this module, not an input.
		panic(fmt.Sprintf("engine: placer %q chose lane %d of %d", e.placer.Name(), idx, len(view)))
	}
	ln := &e.lanes[idx]
	blocks := job.Plan
	// The §3.3 same-type run the arrival would join includes the request
	// occupying the placed lane, not just its queued neighbors.
	if len(blocks) == 0 || len(blocks) > 1 && !e.k.Elastic.ShouldSplitWith(ln.queue, out.model, ln.inflight) {
		blocks = e.wholePlan(job.ExtMs)
	}
	r := e.newRequest()
	r.Init(job.ID, job.Model, out.model, job.Class, now, job.ExtMs, blocks)
	r.Device = dev
	r.Partition = ln.part
	if job.DeadlineMs > 0 {
		r.DeadlineMs = now + job.DeadlineMs
	} else if e.k.EnforceDeadlines {
		r.SetDeadline(e.k.Alpha)
	}
	out.Req, out.Lane, out.QueueLen = r, idx, ln.queue.Len()
	out.placer = e.placedBy
	out.Pos = ln.queue.InsertGreedy(now, r)
	// A fresh arrival is the latest of its task, so Algorithm 1 starts at
	// the back: one comparison per neighbor passed, plus the one that
	// stopped it unless it reached the front.
	out.Scanned = out.QueueLen - out.Pos
	if out.Pos > 0 {
		out.Scanned++
	}
	out.Idle = !ln.dev.PartitionBusy(ln.part)
	return out
}

// Cancel cancels a pending request. Queued work is removed and shed now;
// a request holding or sharing a grant is marked and sheds at the grant's
// boundary — one member's cancellation never discards its batch-mates'
// attempt.
func (e *Engine) Cancel(now float64, id int) Cancellation {
	for i := range e.lanes {
		if r := e.lanes[i].queue.Remove(id); r != nil {
			r.Canceled = true
			e.observe(r, true)
			return Cancellation{State: CancelQueued, Req: r, Marked: true}
		}
	}
	for i := range e.lanes {
		if e.lanes[i].inflight == nil {
			continue
		}
		for _, m := range e.lanes[i].g.Batch {
			if m.ID == id {
				marked := !m.Canceled
				m.Canceled = true
				return Cancellation{State: CancelInflight, Req: m, Marked: marked}
			}
		}
	}
	return Cancellation{}
}

// Unqueue removes and returns the lane's next waiting request without
// granting it, nil when the queue is empty. Shutdown uses it to shed the
// backlog.
func (e *Engine) Unqueue(lane int) *sched.Request { return e.lanes[lane].queue.PopFront() }

// Grant hands the lane's token to its next runnable request. A lane whose
// anchor slot is still covered — by its own hold or a sibling's wider one —
// gets nothing and waits for the release that names it in Settlement.Wake.
// Doomed queued work is shed first, so an expired request never occupies
// the device for another block. An empty queue on a draining device is the
// release half of drain-then-release: the device detaches once every one of
// its lanes is drained.
//
//lint:hotpath the grant decision runs at every block boundary
func (e *Engine) Grant(idx int, now float64) *Grant {
	ln := &e.lanes[idx]
	if ln.dev.PartitionBusy(ln.part) {
		return ln.refuse(nil)
	}
	//lint:ignore hotalloc SweepExpired allocates only when something actually expired — the shed path, not the steady grant loop
	shed := ln.queue.SweepExpired(now, e.k.PredictiveShed)
	for _, r := range shed {
		e.observe(r, true)
	}
	lead := ln.queue.PopFront()
	if lead == nil {
		e.detachIfDrained(ln.dev, now)
		return ln.refuse(shed)
	}
	batch := e.planner.FormInto(ln.scratch[:0], ln.queue, lead, now)
	ln.scratch = batch
	n := len(batch)
	id := 0
	if n > 1 {
		// Batch ids ride trace events as int32: wrap to 1, never to 0,
		// which means unbatched.
		if e.batchSeq == math.MaxInt32 {
			e.batchSeq = 0
		}
		e.batchSeq++
		id = e.batchSeq
	}
	block := lead.Next
	base := lead.BlockTimes[block]
	// A batch of one costs the block's own time bit-for-bit, and so does a
	// full-width hold: both cost models are the identity at 1.
	run := e.batchCost.BlockMs(base, n)
	frac := 1.0
	if e.parts > 1 {
		frac = ln.dev.AcquirePartition(now, ln.part, ln.want)
		run = e.partCost.BlockMs(run, frac)
	} else {
		ln.dev.Acquire(now)
	}
	for _, m := range batch {
		if m.StartMs < 0 {
			m.StartMs = now
		}
		m.Next++
	}
	ln.inflight = lead
	// Field by field: a composite literal would be built aside and copied in.
	// draw sets Spike, fail and HoldMs.
	g := &ln.g
	g.OK, g.Lane, g.Shed, g.Batch, g.BatchID = true, idx, shed, batch, id
	g.Block, g.BaseMs, g.RunMs, g.Frac = block, base, run, frac
	g.Attempt, g.spatial = 0, e.parts > 1
	ln.draw()
	return g
}

// refuse is the lane's not-OK grant: nothing to run, and the sweep's sheds.
// Shed is the only field of refused that is ever written after New.
func (ln *lane) refuse(shed []*sched.Request) *Grant {
	ln.refused.Shed = shed
	return &ln.refused
}

// draw draws the current attempt's fault. Draws key on the leader, so a
// batch of one replays the scalar fault schedule exactly.
func (ln *lane) draw() {
	g := &ln.g
	f := ln.dev.Faults.Draw(g.Batch[0].ID, g.Block, g.Attempt)
	g.Spike, g.fail = f.SpikeFactor, f.Fail
	g.HoldMs = g.RunMs * f.SpikeFactor
}

// Settle decides the lane's hold at its boundary. stop is empty while the
// driver is running; a driver past granting work passes the reason it is
// shutting down for, and unfinished members are shed under it. A transient
// fault within the retry budget re-runs the block (Retry) — unless the
// grant is a batch of one whose request was canceled, expired, or is being
// shut down, which is abandoned rather than given more device time; batches
// never abandon mid-retry, because one member's fate must not discard its
// batch-mates' attempt. Otherwise the hold is released and each member gets
// one fate, in grant (FIFO) order so completions and re-inserts keep the
// arrival order the batch was formed under:
//
//	terminal fault        → shed device_fault (every member, whatever else is true of it)
//	plan finished         → served, even if canceled meanwhile: the work is done
//	canceled              → shed canceled
//	stopping              → shed stop
//	deadline passed       → shed deadline
//	otherwise             → requeued by Algorithm 1 (full preemption)
//
//lint:hotpath every granted block settles here at its boundary
func (e *Engine) Settle(idx int, now float64, stop string) *Settlement {
	ln := &e.lanes[idx]
	g, st := &ln.g, &ln.st
	terminal := false
	if g.fail {
		lead := g.Batch[0]
		switch {
		case ln.dev.Faults.Exhausted(g.Attempt):
			terminal = true
		case len(g.Batch) == 1 && (lead.Canceled || stop != "" || lead.Expired(now)):
			// An attempt boundary is a block boundary for lifecycle
			// purposes: abandon, and let the fate below name the reason.
		default:
			g.Attempt++
			ln.draw()
			st.Retry, st.Attempt, st.HoldMs, st.Spike = true, g.Attempt, g.HoldMs, g.Spike
			st.Terminal, st.Fates, st.Wake = false, nil, nil
			return st
		}
	}
	if e.parts > 1 {
		ln.dev.ReleasePartition(now, ln.part)
	} else {
		ln.dev.Release(now)
	}
	ln.inflight = nil
	fates := ln.fates[:0]
	for _, m := range g.Batch {
		//lint:ignore hotalloc bounded by BatchMax: the per-lane fate buffer stops growing after the first full batch
		fates = append(fates, e.fate(ln, m, now, terminal, stop))
	}
	ln.fates = fates
	// A wide adaptive hold can span sibling anchors, so its release is
	// their wake-up signal.
	wake := e.wake[:0]
	if e.parts > 1 {
		base := ln.dev.ID * e.parts
		for i := base; i < base+e.parts; i++ {
			sib := &e.lanes[i]
			if i != idx && sib.inflight == nil && sib.queue.Len() > 0 && !sib.dev.PartitionBusy(sib.part) {
				//lint:ignore hotalloc bounded by Partitions: the wake buffer is sized once in New
				wake = append(wake, i)
			}
		}
	}
	st.Retry, st.Attempt, st.HoldMs, st.Spike = false, g.Attempt, 0, 0
	st.Terminal, st.Fates, st.Wake = terminal, fates, wake
	return st
}

// fate decides one member of a released grant.
func (e *Engine) fate(ln *lane, m *sched.Request, now float64, terminal bool, stop string) Fate {
	f := Fate{Req: m, Kind: Shed}
	switch {
	case terminal:
		f.Reason = trace.ReasonDeviceFault
	case !ln.g.fail && m.Finished():
		m.DoneMs = now
		f.Kind = Served
	case m.Canceled:
		f.Reason = trace.ReasonCanceled
	case stop != "":
		f.Reason = stop
	case m.Expired(now):
		f.Reason = trace.ReasonDeadline
	default:
		f.Kind = Requeued
		if e.PartialPreemption {
			ln.queue.PushBack(m)
			f.Pos = ln.queue.Len() - 1
		} else {
			f.Pos = ln.queue.InsertGreedy(now, m)
		}
		if f.Pos > 0 {
			m.Preemptions++
		}
		return f
	}
	e.observe(m, f.Kind != Served)
	return f
}

// observe feeds the autoscaler's rolling violation window: a shed request
// violated its target by definition, a served one if RR > α — the
// predicate of metrics.ViolationRate.
func (e *Engine) observe(r *sched.Request, shed bool) {
	if e.window == nil {
		return
	}
	e.window.Observe(shed || r.ResponseRatio() > e.k.Alpha)
}

// detachIfDrained releases a draining device (scaled in while loaded) the
// moment every one of its lanes is empty and idle.
func (e *Engine) detachIfDrained(d *gpusim.Device, now float64) {
	if e.scaler == nil || d.ID < e.active || !d.Attached() || d.Busy() {
		return
	}
	for i := d.ID * e.parts; i < (d.ID+1)*e.parts; i++ {
		if e.lanes[i].inflight != nil || e.lanes[i].queue.Len() > 0 {
			return
		}
	}
	d.Detach(now)
}

// fleetView snapshots the active lanes' placement-relevant load into the
// reusable view buffer: queued remaining ms plus the in-flight leader's
// uncommitted blocks. Draining and detached devices are excluded —
// placement must never target them. Busy is the lane's anchor-slot
// occupancy, which unpartitioned is the device's.
func (e *Engine) fleetView() []place.Load {
	lanes := e.active * e.parts
	for i := 0; i < lanes; i++ {
		ln := &e.lanes[i]
		e.view[i] = place.Load{
			Device:   i,
			Queued:   ln.queue.Len(),
			QueuedMs: ln.queue.TotalRemainingMs(),
			Busy:     ln.dev.PartitionBusy(ln.part),
		}
		if ln.inflight != nil {
			e.view[i].InflightMs = ln.inflight.RemainingMs()
		}
	}
	return e.view[:lanes]
}

// admitView assembles from the active prefix what the gate's mode reads of
// its view: nothing for the token bucket, the queue depth for the queue-length
// cap, and the shortest backlog, which walks every queue, for predicted RR.
func (e *Engine) admitView() fleet.View {
	v := fleet.View{ActiveDevices: e.active}
	switch e.k.Admission.Mode {
	case fleet.AdmitTokenBucket:
		return v
	case fleet.AdmitQueueLength:
		for i := 0; i < e.active*e.parts; i++ {
			v.QueueDepth += e.lanes[i].queue.Len()
		}
		return v
	}
	v.ShortestBacklogMs = math.MaxFloat64
	for i := 0; i < e.active*e.parts; i++ {
		ln := &e.lanes[i]
		v.QueueDepth += ln.queue.Len()
		backlog := ln.queue.TotalRemainingMs()
		if ln.inflight != nil {
			backlog += ln.inflight.RemainingMs()
		}
		if backlog < v.ShortestBacklogMs {
			v.ShortestBacklogMs = backlog
		}
	}
	return v
}

// autoscale runs one throttled controller evaluation and actuates its
// decision. It is piggybacked on arrivals — a driver must not plant
// self-perpetuating timers, or a simulator's event heap never drains —
// which is sufficient: an idle stretch with no arrivals has nothing to
// scale out for, and the evaluation at the next arrival observes the idle
// period via the controller's persistence clocks.
func (e *Engine) autoscale(now float64) Scale {
	if e.scaler == nil || !e.scaler.Due(now) {
		return Scale{}
	}
	depth, inflight := 0, 0
	for i := 0; i < e.active*e.parts; i++ {
		depth += e.lanes[i].queue.Len()
		if e.lanes[i].inflight != nil {
			inflight++
		}
	}
	dir := e.scaler.Evaluate(fleet.Signals{
		NowMs: now, Active: e.active, QueueDepth: depth,
		Inflight: inflight, ViolRate: e.window.Rate(),
	})
	switch dir {
	case fleet.ScaleOut:
		d := e.devices[e.active]
		if !d.Attached() {
			// Re-including a device that never finished draining skips
			// the attach: its timeline never left the fleet.
			d.Attach(now)
		}
		e.SetActive(e.active + 1)
		return Scale{Dir: dir, Device: d.ID, Active: e.active, Depth: depth}
	case fleet.ScaleIn:
		e.SetActive(e.active - 1)
		d := e.devices[e.active]
		// Drain-then-release: an idle empty device detaches now; a busy one
		// keeps running and detaches when Grant finds every lane drained.
		drain := e.DeviceDepth(d.ID)
		e.detachIfDrained(d, now)
		return Scale{Dir: dir, Device: d.ID, Active: e.active, Depth: drain}
	}
	return Scale{}
}

// SetActive moves the active device prefix to [0, n) and tells the
// placement policy, so stateful placers (affinity homes) cannot reference a
// draining device. The autoscaler actuates through it.
func (e *Engine) SetActive(n int) {
	e.active = n
	e.maxActive = max(e.maxActive, n)
	e.placer.Resize(e.deviceIDs[:n])
}
