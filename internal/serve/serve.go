// Package serve is the online serving path of SPLIT (§4.1-4.2), realized
// over a framed RPC transport of its own (wire.go): a Responder accepts user
// requests on a connection and appends them to the request queue; the
// Request Wrapper turns them into block-granular scheduler requests using
// the deployed split plans; the Token Scheduler orders the queue with the
// greedy preemption algorithm; the Token Assigner hands the token to the
// highest-priority request, whose next block then occupies the (simulated)
// device for its profiled duration; the Responder finally returns the
// inference result to the user.
//
// Block execution is wall-clock: a block of d ms holds the device for
// d·TimeScale real milliseconds, so TimeScale=1 serves in true Jetson-Nano
// time and small TimeScale values accelerate tests.
//
// Beyond the paper, the package hardens the request lifecycle for overload
// and shutdown: per-request deadlines derived from α·t_ext with expiry
// sweeps that shed doomed requests at block boundaries, client cancellation
// (an RPC plus connection-loss detection), graceful drain with a bounded
// timeout, and deterministic fault injection with bounded per-block retry.
// Every terminal outcome is a typed error, a split_drops_total reason, and
// a trace event.
package serve

import (
	"errors"
	"fmt"
	"math"
	"net"
	"net/rpc"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"split/internal/engine"
	"split/internal/fleet"
	"split/internal/model"
	"split/internal/modelid"
	"split/internal/obs"
	"split/internal/place"
	"split/internal/policy"
	"split/internal/sched"
	"split/internal/trace"
	"split/internal/workload"
)

// Typed rejection and shedding errors, so clients and metrics can
// distinguish drop causes. The messages are the wire codes: an error the
// server returns for a typed outcome begins with that outcome's message
// (%w first), and the Client decodes it back so errors.Is works on both
// sides of the wire.
var (
	// ErrNotStarted rejects requests arriving before Start starts the clock.
	ErrNotStarted = errors.New("serve: server not started")
	// ErrStopped rejects requests arriving at a stopped server.
	ErrStopped = errors.New("serve: server stopped")
	// ErrUnknownModel rejects requests naming a model not in the catalog.
	ErrUnknownModel = errors.New("serve: model not deployed")
	// ErrDeadlineExceeded sheds requests whose deadline passed before they
	// could finish; they never occupy the device for another block.
	ErrDeadlineExceeded = errors.New("serve: deadline exceeded")
	// ErrCanceled sheds requests canceled by the client (an explicit
	// Cancel call or a lost connection).
	ErrCanceled = errors.New("serve: request canceled")
	// ErrDrained sheds requests still queued when a graceful drain hit its
	// timeout.
	ErrDrained = errors.New("serve: shed by drain timeout")
	// ErrDeviceFault sheds requests whose block kept failing past the
	// injected-fault retry budget.
	ErrDeviceFault = errors.New("serve: device fault")
	// ErrAdmissionRejected rejects requests at the front door when the
	// fleet.Admission gate decides the fleet cannot absorb them (token
	// bucket empty, queue over its cap, or predicted RR past the limit).
	ErrAdmissionRejected = errors.New("serve: admission rejected")
)

// Drop reasons as they appear in the split_drops_total metric and in
// trace.Drop / trace.Shed event details. The reasons the simulator also
// reports alias the shared trace.Reason* vocabulary so the two layers
// cannot drift apart; the rest are serve-only lifecycle reasons.
const (
	DropStopped      = "stopped"
	DropUnknownModel = "unknown_model"
	DropNotStarted   = "not_started"
	DropDeadline     = trace.ReasonDeadline
	DropCanceled     = trace.ReasonCanceled
	DropDrained      = "drained"
	DropDeviceFault  = trace.ReasonDeviceFault
	DropAdmission    = trace.ReasonAdmission
)

// Config parameterizes a server: the scheduling knobs it shares with the
// simulator, plus what only a live server has — a catalog, a wall clock,
// and observability sinks.
type Config struct {
	// Knobs are the scheduling knobs, shared field for field with
	// policy.Split (which embeds the same struct), so a configuration tuned
	// in the simulator carries over verbatim; cfg.Devices = 4 reads and
	// writes through the embedding. Alpha <= 0 falls back to the paper's 4.
	engine.Knobs
	// Catalog holds the deployed models and split plans.
	Catalog policy.Catalog
	// TimeScale converts simulated block milliseconds to wall-clock
	// milliseconds (1.0 = real time; 0.01 = 100× accelerated).
	TimeScale float64
	// Obs, when non-nil, receives live metrics (request/completion/drop
	// counters, queue-depth and elastic gauges, wait/e2e/RR histograms)
	// under the split_* names documented in the README.
	Obs *obs.Registry
	// Sink, when non-nil, receives the live scheduling event stream
	// (place, arrive, block start/end, preempt, elastic transitions,
	// complete, drop, shed, cancel, fault, scale, drain) — typically a trace.Ring
	// flight recorder, a Tracer, or a Fanout of both.
	Sink trace.Sink
	// QoSWindow sizes the rolling online QoS window (completions);
	// <= 0 selects obs.DefaultQoSWindow.
	QoSWindow int
	// ArrivalRecorder, when non-nil, records every admitted arrival (and
	// any later cancellation) in workload trace form, so the live run can
	// be written with workload.WriteTrace and re-simulated deterministically
	// through policy.Split.
	ArrivalRecorder *workload.Recorder
}

// outcome is what a waiter receives: a copy of the served request, or a
// typed terminal error (deadline, cancel, drain, stop, device fault) and a
// zero request. It is a copy because the request itself goes back to the
// engine at its fate (resolveLocked).
type outcome struct {
	req sched.Request
	err error
}

// set builds the outcome of r's fate in place: a copy of r if it was
// served (err nil), else err.
func (o *outcome) set(r *sched.Request, err error) {
	if o.err = err; err == nil {
		o.req = *r
	} else {
		o.req = sched.Request{}
	}
}

// A recipient is where outcomes go: a connection's Responder, which frames
// each as the reply to call seq. out is only valid during the call.
type recipient interface {
	resolve(seq uint64, out *outcome)
}

// waiter is a request's claim on its outcome: call seq on connection to,
// attached from arrival for an Infer and once its Wait comes for a Submit.
// An outcome no call is attached to yet is parked in Server.parked. A
// waiter holds no outcome, so the waiters map keeps it in line.
type waiter struct {
	to       recipient
	seq      uint64
	attached bool
}

// delivery is an outcome on its way to the call waiting for it.
type delivery struct {
	to  recipient
	seq uint64
	out outcome
}

// outbound is what a caller takes out from under s.mu to deliver after
// releasing it; each connection reader owns one it reuses, and each hold
// timer callback takes one from outbounds.
type outbound struct {
	evs  []trace.Event
	dels []delivery
}

// outbounds recycles the hold timers' outbound scratch. A callback cannot
// keep one per lane: the lane's next fire can come while the previous one
// is still delivering, since an arrival may grant the idle lane in between.
var outbounds = sync.Pool{New: func() any { return new(outbound) }}

// Server is the wall-clock driver of internal/engine, shaped like
// policy.Split, the virtual-clock one. The engine makes every scheduling
// decision; the server adds what only a live process has: the mutex the
// decisions are serialized under, one timer per lane that times each
// granted hold, the waiters, and the metrics, time series and recorder.
// The engine narrates its own decisions (engine.Append*) into pending; the
// server writes only pre-engine drops, elastic transitions and drain
// markers.
type Server struct {
	cfg Config
	// tracing caches cfg.Sink != nil: narration is gated on it so no event
	// is built (or allocates) unsinked.
	tracing bool
	clk     clock

	mu sync.Mutex
	// eng is the decision core (queues, placer, planner, ledgers, autoscaler,
	// admission gate); it is not concurrency-safe and is only called under mu.
	eng     *engine.Engine
	nextID  int
	closed  bool
	served  int
	dropped int
	// holds are the lanes' timers, one per lane; armed counts those timing
	// a grant, and a drain ends cleanly when it reaches 0.
	holds []hold
	armed int
	// draining is true between a Drain call and either the backlog
	// emptying or the drain timeout shedding it.
	draining bool
	// stopReason labels the shed of a request in flight when the server
	// closes ("stopped", or "drained" once a drain times out).
	stopReason string
	// elasticSuppressed is the last §3.3 decision for a splittable arrival:
	// true while the elastic mechanism is disabling splitting.
	elasticSuppressed bool
	// waiters holds each admitted request's waiter until its outcome leaves;
	// parked holds the outcomes of Submits whose Wait has not come yet.
	waiters map[int]waiter
	parked  map[int]*outcome
	// perModel accumulates QoS aggregates per model since start.
	perModel map[string]*modelAgg

	// pending buffers trace events recorded under s.mu. The sink is caller
	// code that may take its own locks or call back into the server, so
	// events reach Config.Sink only after s.mu is released.
	pending []trace.Event
	// pendingOut buffers outcomes for attached waiters the same way.
	pendingOut []delivery

	// met caches metric handles (nil without Config.Obs); qos, the rolling
	// estimator, and series, behind /timeseriesz, always exist.
	met    *serveMetrics
	qos    *obs.RollingQoS
	series *obs.TimeSeries

	listener net.Listener
	// wg counts the accept loop and the armed holds: Stop and Drain wait on
	// it. A settling hold adds the holds it grants before it is done.
	wg sync.WaitGroup
}

// hold is one lane's device hold: a grant arms its timer for the hold's
// wall time, and the timer's callback, fire, settles it. g is the engine's
// own grant, which stays valid while the hold is armed because only fire
// settles or re-grants the lane then; startMs is when the grant began, and
// busyMs the lane's virtual-ms occupancy, pro-rated by granted fraction;
// width is the slot width of the lane's last settled hold.
type hold struct {
	s       *Server
	dev     int
	g       *engine.Grant
	startMs float64
	busyMs  float64
	width   int
	timer   timer
}

// A clock is the server's time in ms since Start, 0 before it, and the maker
// of its timers: arm(ms) has one call fire ms later. stop, once every hold
// has settled, releases what start took, and no timer fires after it. Tests
// step a gpusim.Sim; a live server runs on a wallClock (wallclock.go).
type clock interface {
	start()
	now() float64
	timer(fire func()) timer
	stop()
}

type timer interface{ arm(ms float64) }

// NewServer validates cfg and builds a stopped server on the wall clock;
// newServer builds it on clk.
func NewServer(cfg Config) (*Server, error) { return newServer(cfg, new(wallClock)) }

func newServer(cfg Config, clk clock) (*Server, error) {
	if len(cfg.Catalog) == 0 {
		return nil, errors.New("serve: empty catalog")
	}
	for name, info := range cfg.Catalog {
		if info.Plan != nil {
			if err := engine.CheckPlan(name, len(info.Plan.BlockTimesMs)); err != nil {
				return nil, fmt.Errorf("serve: %w", err)
			}
		}
	}
	if cfg.Alpha <= 0 {
		cfg.Alpha = 4
	}
	if math.IsNaN(cfg.TimeScale) || math.IsInf(cfg.TimeScale, 0) {
		return nil, fmt.Errorf("serve: TimeScale must be finite, got %g", cfg.TimeScale)
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	eng, err := engine.New(cfg.Knobs)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	// The effective fleet size: at least one device, Fleet.Max under the
	// autoscaler.
	cfg.Devices = eng.Devices()
	s := &Server{
		cfg:        cfg,
		tracing:    cfg.Sink != nil,
		clk:        clk,
		eng:        eng,
		waiters:    make(map[int]waiter),
		parked:     make(map[int]*outcome),
		perModel:   make(map[string]*modelAgg),
		qos:        obs.NewRollingQoS(cfg.Alpha, cfg.QoSWindow),
		series:     obs.NewTimeSeries(cfg.Alpha, 0, 0, eng.Devices()),
		stopReason: DropStopped,
	}
	s.holds = make([]hold, eng.Lanes())
	for lane := range s.holds {
		h := &s.holds[lane]
		h.s = s
		h.dev, _ = place.LaneDevice(lane, eng.Parts())
		h.timer = clk.timer(h.fire)
	}
	if cfg.Obs != nil {
		s.met = newServeMetrics(cfg.Obs, cfg.Catalog, eng)
		s.registerGauges(cfg.Obs)
	}
	return s, nil
}

// stoppingLocked reports whether the server is past granting work: stopped,
// or a drain that timed out. Caller holds s.mu.
func (s *Server) stoppingLocked() bool { return s.closed && !s.draining }

// stopLocked is what Settle is told: empty while the server grants work,
// else the reason unfinished work is shed under. Caller holds s.mu.
func (s *Server) stopLocked() string {
	if s.stoppingLocked() {
		return s.stopReason
	}
	return ""
}

// shedBacklogLocked sheds every queued request on every lane for the given
// reason and returns how many it shed. Caller holds s.mu.
func (s *Server) shedBacklogLocked(now float64, reason string) int {
	shed := 0
	for lane := 0; lane < s.eng.Lanes(); lane++ {
		for r := s.eng.Unqueue(lane); r != nil; r = s.eng.Unqueue(lane) {
			if s.tracing {
				s.pending = engine.AppendShed(s.pending, now, r, reason)
			}
			s.shedLocked(now, r, reason)
			shed++
		}
	}
	return shed
}

// dropsHelp is the split_drops_total help text; the family covers both
// pre-enqueue rejections and post-enqueue sheds, keyed by reason.
const dropsHelp = "requests dropped, by reason (rejections before enqueue and sheds after)"

// serveMetrics caches the registry handles the serving path updates, so the
// hot path never rebuilds label keys. The per-model and per-reason families
// are seeded at construction and open-ended after it (see labeled). Gauges
// have no handles: registerGauges has each read the state it reports.
type serveMetrics struct {
	reg         *obs.Registry
	requests    map[string]*obs.Counter
	completions map[string]*obs.Counter
	drops       map[string]*obs.Counter
	preemptions *obs.Counter
	retries     *obs.Counter
	waitMs      *obs.Histogram
	e2eMs       *obs.Histogram
	rr          *obs.Histogram
	// The families below are registered only where they apply, so other
	// deployments keep their exact /metrics output. Per device, on fleets
	// (devices > 1):
	deviceBlocks []*obs.Counter
	deviceDrops  []*obs.Counter
	// Micro-batching (BatchMax > 1):
	batchedBlocks *obs.Counter
	batchSize     *obs.Histogram
	// The autoscaler / admission gate:
	scaleOuts *obs.Counter
	scaleIns  *obs.Counter
	admitted  *obs.Counter
	// Per lane (device*parts+part) under spatial sharing (Partitions > 1).
	partBlocks []*obs.Counter
}

func newServeMetrics(reg *obs.Registry, catalog policy.Catalog, eng *engine.Engine) *serveMetrics {
	devices, parts := eng.Devices(), eng.Parts()
	m := &serveMetrics{
		reg:         reg,
		requests:    make(map[string]*obs.Counter, len(catalog)),
		completions: make(map[string]*obs.Counter, len(catalog)),
		drops:       make(map[string]*obs.Counter, 8),
		preemptions: reg.Counter(obs.MetricPreemptions, "block-boundary preemptions (requests passed while re-entering the queue)"),
		retries:     reg.Counter(obs.MetricBlockRetries, "block re-executions after injected transient device failures"),
		waitMs:      reg.Histogram(obs.MetricWaitMs, "waiting latency (e2e - t_ext) of completed requests, virtual ms", obs.DefaultLatencyBuckets()),
		e2eMs:       reg.Histogram(obs.MetricE2EMs, "end-to-end latency of completed requests, virtual ms", obs.DefaultLatencyBuckets()),
		rr:          reg.Histogram(obs.MetricResponseRatio, "response ratio t_ete/t_ext of completed requests", obs.DefaultRatioBuckets()),
	}
	for name := range catalog {
		m.requestCounter(name)
		m.completionCounter(name)
	}
	for _, reason := range []string{
		DropStopped, DropUnknownModel, DropNotStarted,
		DropDeadline, DropCanceled, DropDrained, DropDeviceFault,
	} {
		m.dropCounter(reason)
	}
	if devices > 1 {
		for i := 0; i < devices; i++ {
			d := strconv.Itoa(i)
			m.deviceBlocks = append(m.deviceBlocks,
				reg.Counter(obs.MetricDeviceBlocks, "blocks executed per fleet device", "device", d))
			m.deviceDrops = append(m.deviceDrops,
				reg.Counter(obs.MetricDeviceDrops, "post-enqueue sheds per fleet device", "device", d))
		}
	}
	if eng.Batching() {
		m.batchedBlocks = reg.Counter(obs.MetricBatchedBlocks, "device grants that executed a same-type micro-batch (size > 1)")
		m.batchSize = reg.Histogram(obs.MetricBatchSize, "members per batched device grant",
			[]float64{1, 2, 3, 4, 6, 8, 12, 16})
	}
	if eng.Elastic() {
		m.scaleOuts = reg.Counter(obs.MetricAutoscaleEvents, "autoscaler actuations, by direction", "direction", "out")
		m.scaleIns = reg.Counter(obs.MetricAutoscaleEvents, "autoscaler actuations, by direction", "direction", "in")
	}
	if eng.Gated() {
		m.admitted = reg.Counter(obs.MetricAdmittedTotal, "requests admitted through the front-door gate")
		m.dropCounter(DropAdmission)
	}
	if parts > 1 {
		for i := 0; i < devices; i++ {
			for p := 0; p < parts; p++ {
				m.partBlocks = append(m.partBlocks, reg.Counter(obs.MetricPartitionBlocks,
					"blocks executed per partition lane", "device", strconv.Itoa(i), "part", strconv.Itoa(p)))
			}
		}
	}
	return m
}

// registerGauges registers every gauge family, each reading at scrape time
// state the server, the engine or the rolling window already keeps; nothing
// writes a gauge after this. The reads take s.mu (the window has its own
// lock), which no registry lock is held under: labeled registers series
// under s.mu, and WritePrometheus reads with the registry unlocked.
func (s *Server) registerGauges(reg *obs.Registry) {
	locked := func(read func() float64) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return read()
		}
	}
	eng := s.eng
	reg.GaugeFunc(obs.MetricQueueDepth, "requests waiting in the scheduler queue",
		locked(func() float64 { return float64(eng.Depth()) }))
	reg.GaugeFunc(obs.MetricElasticSuppress, "1 while the elastic mechanism is suppressing splitting (§3.3), else 0",
		locked(func() float64 {
			if s.elasticSuppressed {
				return 1
			}
			return 0
		}))
	reg.GaugeFunc(obs.MetricViolationRate, "fraction of the rolling completion window with RR > α",
		func() float64 { return s.qos.Snapshot().ViolationRate })
	reg.GaugeFunc(obs.MetricJitterMs, "stddev of e2e latency over the rolling completion window",
		func() float64 { return s.qos.Snapshot().JitterMs })
	if eng.Devices() > 1 {
		for i := 0; i < eng.Devices(); i++ {
			d := strconv.Itoa(i)
			reg.GaugeFunc(obs.MetricDeviceQueueDepth, "requests waiting per fleet device",
				locked(func() float64 { return float64(eng.DeviceDepth(i)) }), "device", d)
			reg.GaugeFunc(obs.MetricDeviceBusyMs, "cumulative virtual-ms block occupancy per fleet device",
				locked(func() float64 { return eng.DeviceBusyMs(i) }), "device", d)
		}
	}
	if eng.Elastic() {
		reg.GaugeFunc(obs.MetricFleetActive, "devices in the actively placed fleet prefix",
			locked(func() float64 { return float64(eng.Active()) }))
	}
	if eng.Parts() > 1 {
		for lane := range s.holds {
			h := &s.holds[lane]
			dev, part := place.LaneDevice(lane, eng.Parts())
			d, pt := strconv.Itoa(dev), strconv.Itoa(part)
			reg.GaugeFunc(obs.MetricPartitionBusyMs, "virtual-ms occupancy per partition lane, pro-rated by granted fraction",
				locked(func() float64 { return h.busyMs }), "device", d, "part", pt)
			reg.GaugeFunc(obs.MetricPartitionWidth, "slot width of the lane's most recent hold",
				locked(func() float64 { return float64(h.width) }), "device", d, "part", pt)
		}
	}
}

// labeled returns the family's counter for one label value from its cache,
// registering an unseen value (a model deployed later, a new drop reason)
// rather than handing back a nil counter. Caller holds s.mu or constructs.
func (m *serveMetrics) labeled(cache map[string]*obs.Counter, family, help, label, value string) *obs.Counter {
	c := cache[value]
	if c == nil {
		c = m.reg.Counter(family, help, label, value)
		cache[value] = c
	}
	return c
}

func (m *serveMetrics) requestCounter(modelName string) *obs.Counter {
	return m.labeled(m.requests, obs.MetricRequestsTotal, "requests accepted into the queue", "model", modelName)
}

func (m *serveMetrics) completionCounter(modelName string) *obs.Counter {
	return m.labeled(m.completions, obs.MetricCompletionsTotal, "requests completed", "model", modelName)
}

func (m *serveMetrics) dropCounter(reason string) *obs.Counter {
	return m.labeled(m.drops, obs.MetricDropsTotal, dropsHelp, "reason", reason)
}

// emit records a live event for the configured sink, if any. Caller holds
// s.mu; the event reaches the sink at the next takeOut/deliver pair.
func (s *Server) emit(e trace.Event) {
	if s.cfg.Sink != nil {
		s.pending = append(s.pending, e)
	}
}

// takeOut copies the buffered events and deliveries into o, emptying the
// buffers but keeping their capacity. Caller holds s.mu and passes o to
// deliver after unlocking.
func (s *Server) takeOut(o *outbound) {
	o.evs = append(o.evs[:0], s.pending...)
	o.dels = append(o.dels[:0], s.pendingOut...)
	s.pending, s.pendingOut = s.pending[:0], s.pendingOut[:0]
}

// deliver forwards taken-out events to the sink and outcomes to their
// waiters' outboxes. Caller must NOT hold s.mu.
func (s *Server) deliver(o *outbound) {
	for _, e := range o.evs {
		s.cfg.Sink.Emit(e)
	}
	// Indexed: the address of a range variable's outcome would escape.
	for i := range o.dels {
		d := &o.dels[i]
		d.to.resolve(d.seq, &d.out)
	}
}

// drop counts and traces one pre-enqueue rejection. Caller holds s.mu.
// The Drop names its model only if the process has seen the name: a
// client's unknown model is looked up, never interned, so no client can
// grow the process-wide name table.
func (s *Server) drop(nowMs float64, modelName, reason string) {
	s.dropped++
	if s.met != nil {
		s.met.dropCounter(reason).Inc()
	}
	model, _ := modelid.Lookup(modelName)
	s.emit(trace.Event{AtMs: nowMs, Kind: trace.Drop, ReqID: -1, Model: model,
		Note: trace.NoteWord, Args: [4]float64{float64(trace.WordOf(reason))}})
}

// shedLocked accounts one request, already detached from its queue (or in
// flight), leaving unserved: it counts the reason and resolves the waiter
// with the reason's typed error; the Shed event is the narrator's. Caller
// holds s.mu.
//
//lint:hotpath boundary sweeps shed through here on the grant loop
func (s *Server) shedLocked(nowMs float64, r *sched.Request, reason string) {
	s.dropped++
	// A shed enters the rolling QoS window as a violation, as offline, or
	// heavy shedding would *improve* the live QoS; the window's latency
	// statistics skip non-served records.
	rec := policy.RecordOf(r, nowMs, reason)
	s.qos.Observe(rec)
	s.series.ObserveOutcome(rec)
	if s.met != nil {
		//lint:ignore hotalloc steady-state reasons hit the cached map; Registry.Counter runs once per never-seen reason
		s.met.dropCounter(reason).Inc()
		if len(s.met.deviceDrops) > 0 {
			s.met.deviceDrops[r.Device].Inc()
		}
	}
	//lint:ignore hotalloc the resolved error must carry request identity for the client; sheds are the rare path
	s.resolveLocked(r, fmt.Errorf("%w (request %d, %s)", reasonErr[reason], r.ID, r.Model))
}

// resolveLocked is every admitted request's exit, as policy.Split's record
// is the simulator's: it builds the outcome of r's fate (r served if err is
// nil) for r's waiter, then hands r back to the engine. The outcome goes
// to the waiter's call by way of pendingOut, or is parked until a Submit's
// Wait comes; a request whose connection hung up has no waiter and leaves
// no outcome. Caller holds s.mu.
//
// The outcome is built in place, in its pendingOut slot, never as a local:
// fire's boundary chain (fire → fateLocked → resolveLocked, then deliver →
// resolve → sendLocked → frame) runs on a hold's fresh timer goroutine and
// only just fits in its starting stack. A frame that grows by an outcome
// pushes every short hold over the edge, and runtime.newstack then costs
// more than the serving it interrupts (EXPERIMENTS P12, P13).
//
//lint:hotpath every admitted request leaves through here
func (s *Server) resolveLocked(r *sched.Request, err error) {
	id := r.ID
	switch w, ok := s.waiters[id]; {
	case !ok:
	case w.attached:
		delete(s.waiters, id)
		n := len(s.pendingOut)
		s.pendingOut = slices.Grow(s.pendingOut, 1)[:n+1]
		d := &s.pendingOut[n]
		d.to, d.seq = w.to, w.seq
		d.out.set(r, err)
	default:
		//lint:ignore hotalloc only a Submit whose outcome beats its Wait parks
		p := new(outcome)
		p.set(r, err)
		s.parked[id] = p
	}
	s.eng.Release(r)
}

// modelAgg accumulates per-model QoS outcomes (under s.mu).
type modelAgg struct {
	served     int
	sumRR      float64
	maxRR      float64
	sumWaitMs  float64
	violations int // RR > α
	preempts   int
}

// nowMs is the server's virtual time, the clock's over the TimeScale.
func (s *Server) nowMs() float64 { return s.clk.now() / s.cfg.TimeScale }

// Start begins serving RPCs on l. It returns immediately; Stop or Drain
// shuts everything down.
func (s *Server) Start(l net.Listener) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener != nil {
		return errors.New("serve: already started")
	}
	s.clk.start()
	s.listener = l
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the listening address, or "" before Start.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Stop closes the listener, sheds every queued request with ErrStopped,
// and grants nothing after each lane's current block — whose request is
// NOT shed: if that block completes its plan, the completion is delivered
// to its client, otherwise the client receives ErrStopped at the boundary.
// For a shutdown that finishes the backlog first, use Drain.
func (s *Server) Stop() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.shutDown()
		return
	}
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	s.shedBacklogLocked(s.nowMs(), DropStopped)
	var out outbound
	s.takeOut(&out)
	s.mu.Unlock()
	s.deliver(&out)
	s.shutDown()
}

// shutDown waits for the accept loop and every armed hold, then stops the
// clock: Stop and Drain return with no goroutine or timer of the server's
// left running.
func (s *Server) shutDown() {
	s.wg.Wait()
	s.clk.stop()
}

// Drain stops accepting new work and lets the lanes finish the backlog.
// If the backlog is not done within timeout, every still-queued request is
// shed with ErrDrained and the in-flight request is shed at its next block
// boundary (or delivered, if that boundary completes it). Drain returns
// the number of requests shed, 0 for a clean drain. Calling Drain on an
// already-closed server just waits for shutdown to finish.
func (s *Server) Drain(timeout time.Duration) int {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.shutDown()
		return 0
	}
	s.closed = true
	s.draining = true
	if s.listener != nil {
		s.listener.Close()
	}
	now := s.nowMs()
	s.emit(trace.Event{AtMs: now, Kind: trace.DrainStart, ReqID: -1,
		Note: trace.NoteDrainStart, Args: [4]float64{float64(s.eng.Depth()), float64(timeout) / float64(time.Millisecond)}})
	s.drainedLocked(now)
	var out outbound
	s.takeOut(&out)
	s.mu.Unlock()
	s.deliver(&out)

	clean := make(chan bool, 2) // true once every hold settled, false at the timeout
	go func() {
		s.wg.Wait()
		clean <- true
	}()
	s.clk.timer(func() { clean <- false }).arm(float64(timeout) / float64(time.Millisecond))
	if <-clean {
		s.clk.stop() // the timeout's timer, still pending, never fires
		return 0
	}

	// Timed out: shed the backlog and demote the in-flight request's
	// eventual boundary outcome to "drained".
	s.mu.Lock()
	shed := 0
	if s.draining {
		s.draining = false
		s.stopReason = DropDrained
		now := s.nowMs()
		shed = s.shedBacklogLocked(now, DropDrained)
		s.emit(trace.Event{AtMs: now, Kind: trace.DrainEnd, ReqID: -1,
			Note: trace.NoteDrainTimeout, Args: [4]float64{float64(shed)}})
	}
	s.takeOut(&out)
	s.mu.Unlock()
	s.deliver(&out)
	<-clean
	s.clk.stop()
	return shed
}

// Cancel removes a queued request (its client receives ErrCanceled) or
// marks the in-flight request cancel-at-next-boundary, and reports which.
// Unknown IDs — never enqueued, already completed, already shed — return
// CancelUnknown.
func (s *Server) Cancel(id int) CancelState {
	var out outbound
	s.mu.Lock()
	state := s.cancelLocked(id, "client cancel")
	s.takeOut(&out)
	s.mu.Unlock()
	s.deliver(&out)
	return state
}

// CancelState reports what a cancellation found, in the engine's words
// (engine.CancelState.String).
type CancelState string

// Cancel outcomes.
const (
	// CancelQueued: the request was waiting and has been removed and shed.
	CancelQueued CancelState = "queued"
	// CancelInflight: the request is executing a block; it will be shed at
	// the next block boundary instead of continuing its plan.
	CancelInflight CancelState = "inflight"
	// CancelUnknown: no pending request with that ID.
	CancelUnknown CancelState = "unknown"
)

// cancelLocked is the body of Cancel and of hangUp's cancels. Caller
// holds s.mu.
func (s *Server) cancelLocked(id int, why string) CancelState {
	now := s.nowMs()
	c := s.eng.Cancel(now, id)
	if !c.Marked {
		// Unknown, or an in-flight request that was already canceled.
		return CancelState(c.State.String())
	}
	if s.tracing {
		s.pending = engine.AppendCancel(s.pending, now, c, why)
	}
	// A grant holder (in flight, or in the current batch) sheds at its boundary.
	if c.State == engine.CancelQueued {
		s.shedLocked(now, c.Req, DropCanceled)
	}
	if s.cfg.ArrivalRecorder != nil {
		s.cfg.ArrivalRecorder.ObserveCancel(id, now)
	}
	return CancelState(c.State.String())
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		go (&Responder{srv: s}).serve(conn)
	}
}

// hangUp forgets every waiter on a connection that dropped and cancels its
// request, an Infer's as much as an unclaimed Submit's, in ascending ID
// order: the client is gone, so its work would burn device time unread.
func (s *Server) hangUp(r *Responder) {
	s.mu.Lock()
	var ids []int
	for id, w := range s.waiters {
		if w.to != recipient(r) {
			continue
		}
		delete(s.waiters, id)
		if _, ok := s.parked[id]; ok {
			delete(s.parked, id)
		} else {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids) // deterministic cancel order for traces
	for _, id := range ids {
		s.cancelLocked(id, "connection lost")
	}
	s.takeOut(&r.held)
	s.mu.Unlock()
	s.deliver(&r.held)
}

// grantLocked asks the engine for the lane's next hold and arms the lane's
// timer for it, unless the server is past granting work. Caller holds s.mu.
//
//lint:hotpath the grant runs at every block boundary and idle arrival
func (s *Server) grantLocked(lane int, now float64) {
	if s.stoppingLocked() {
		return
	}
	g := s.eng.Grant(lane, now)
	if s.tracing {
		s.pending = engine.AppendGrant(s.pending, now, g)
	}
	for _, r := range g.Shed {
		s.shedLocked(now, r, DropDeadline)
	}
	if !g.OK {
		// An empty queue, or a covered anchor slot: the release that
		// uncovers it names this lane in Settlement.Wake.
		return
	}
	if s.met != nil && g.BatchID != 0 && s.met.batchedBlocks != nil {
		s.met.batchedBlocks.Inc()
		s.met.batchSize.Observe(float64(len(g.Batch)))
	}
	h := &s.holds[lane]
	h.g, h.startMs = g, now
	s.armed++
	s.wg.Add(1)
	h.timer.arm(g.HoldMs * s.cfg.TimeScale)
}

// fire is the hold's boundary, policy.Split's onTimer on the wall clock:
// the engine settles the hold, and the server re-arms a retry, or accounts
// the hold's busy time and each member's fate and grants the lanes the
// release woke, siblings first — they were waiting — then its own. It
// delivers with s.mu released.
//
// A hold shorter than the kernel timer's cut-off fires on a fresh
// goroutine, and the chain below fire (fateLocked → resolveLocked, then
// deliver → resolve → sendLocked → frame) only just fits in its starting
// stack: one more frame or a bigger one, and every such hold copies its
// stack in runtime.newstack. That is why outcomes are built in place in
// their pendingOut slots and recipients take *outcome (see resolveLocked).
//
//lint:hotpath block-boundary settlement for every device hold
func (h *hold) fire() {
	s := h.s
	s.mu.Lock()
	g, now := h.g, s.nowMs()
	lane := g.Lane
	st := s.eng.Settle(lane, now, s.stopLocked())
	if s.tracing {
		s.pending = engine.AppendSettle(s.pending, now, g, st)
	}
	// st is the engine's, and this lane's next fire may settle it again
	// once s.mu is released.
	retry := st.Retry
	if retry {
		if s.met != nil {
			s.met.retries.Inc()
		}
		h.timer.arm(st.HoldMs * s.cfg.TimeScale)
	} else {
		s.armed--
		// Pro-rated by Frac (1 unpartitioned): temporal and spatial sums compare.
		h.busyMs += (now - h.startMs) * g.Frac
		h.width = int(g.Frac*float64(s.eng.Parts()) + 0.5)
		//lint:ignore hotalloc lazy per-window busy buckets: one make per window until the ring is full, recycled after
		s.series.ObserveBusyFrac(h.dev, h.startMs, now, g.Frac)
		if s.met != nil && len(s.met.deviceBlocks) > 0 {
			s.met.deviceBlocks[h.dev].Inc()
		}
		if s.met != nil && len(s.met.partBlocks) > 0 {
			s.met.partBlocks[lane].Inc()
		}
		for _, f := range st.Fates {
			s.fateLocked(now, f)
		}
		for _, sib := range st.Wake {
			s.grantLocked(sib, now)
		}
		s.grantLocked(lane, now)
		s.drainedLocked(now)
	}
	out := outbounds.Get().(*outbound)
	s.takeOut(out)
	s.mu.Unlock()
	s.deliver(out)
	outbounds.Put(out)
	if !retry {
		s.wg.Done()
	}
}

// drainedLocked ends a drain cleanly once no hold is armed: every lane has
// worked off its queue. Caller holds s.mu.
func (s *Server) drainedLocked(now float64) {
	if s.draining && s.armed == 0 {
		s.draining = false
		s.emit(trace.Event{AtMs: now, Kind: trace.DrainEnd, ReqID: -1, Note: trace.NoteDrainClean})
	}
}

// fateLocked accounts one grant member's boundary outcome, as the engine
// decided it: deliver the completion, shed with the typed cause, or count
// the re-insertion. Caller holds s.mu.
//
//lint:hotpath every granted block's members are reported here at the boundary
func (s *Server) fateLocked(nowMs float64, f engine.Fate) {
	r := f.Req
	switch f.Kind {
	case engine.Served:
		// Deliver even if canceled or stopping: the client paid for the answer.
		s.served++
		agg := s.perModel[r.Model]
		if agg == nil {
			//lint:ignore hotalloc one aggregate per model name over the server lifetime, not per grant
			agg = &modelAgg{}
			s.perModel[r.Model] = agg
		}
		rr := r.ResponseRatio()
		agg.served++
		agg.sumRR += rr
		agg.maxRR = max(agg.maxRR, rr)
		agg.sumWaitMs += r.E2EMs() - r.ExtMs
		if rr > s.cfg.Alpha {
			agg.violations++
		}
		agg.preempts += r.Preemptions
		//lint:ignore hotalloc deployed models hit the cached counter map; Registry.Counter runs once per never-seen model
		s.observeCompletion(r, rr)
		s.resolveLocked(r, nil)
	case engine.Shed:
		s.shedLocked(nowMs, r, f.Reason)
	case engine.Requeued:
		if f.Pos > 0 && s.met != nil {
			s.met.preemptions.Inc()
		}
	}
}

// observeCompletion feeds the rolling QoS window and completion metrics.
// Caller holds s.mu.
func (s *Server) observeCompletion(r *sched.Request, rr float64) {
	rec := policy.RecordOf(r, r.DoneMs, policy.OutcomeServed)
	s.qos.Observe(rec)
	s.series.ObserveOutcome(rec)
	if s.met == nil {
		return
	}
	s.met.completionCounter(r.Model).Inc()
	s.met.waitMs.Observe(r.E2EMs() - r.ExtMs)
	s.met.e2eMs.Observe(r.E2EMs())
	s.met.rr.Observe(rr)
}

// arrive wraps a model request (request wrapper + token scheduler insert),
// registers w as its waiter and returns the request ID, using out as the
// caller's scratch. deadlineMs > 0 sets a client-supplied deadline that
// many virtual milliseconds after arrival. Every rejection is typed and
// counted so live metrics can distinguish causes.
func (s *Server) arrive(modelName string, deadlineMs float64, w waiter, out *outbound) (int, error) {
	s.mu.Lock()
	id, err := s.arriveLocked(modelName, deadlineMs, w)
	s.takeOut(out)
	s.mu.Unlock()
	s.deliver(out)
	return id, err
}

// arriveLocked is the body of arrive: the serve-only rejections, the
// engine's front door, then the metrics and waiter. Every job reaching the
// front door takes an ID, admitted or not, so a rejection's Drop never
// shares one with a later request. Caller holds s.mu.
func (s *Server) arriveLocked(modelName string, deadlineMs float64, w waiter) (int, error) {
	now := s.nowMs()
	if s.listener == nil {
		s.drop(now, modelName, DropNotStarted)
		return 0, ErrNotStarted
	}
	if s.closed {
		s.drop(now, modelName, DropStopped)
		return 0, ErrStopped
	}
	job, ok := s.cfg.Catalog.Job(s.nextID, modelName, deadlineMs)
	if !ok {
		s.drop(now, modelName, DropUnknownModel)
		return 0, fmt.Errorf("%w: %q", ErrUnknownModel, modelName)
	}
	s.nextID++
	d := s.eng.Arrive(now, &job)
	if s.tracing {
		s.pending = engine.AppendArrival(s.pending, now, &job, d)
	}
	// After a scale-in the device's lanes work off their queues and idle:
	// placement never targets them again.
	switch {
	case s.met == nil:
	case d.Scale.Dir == fleet.ScaleIn:
		s.met.scaleIns.Inc()
	case d.Scale.Dir == fleet.ScaleOut:
		s.met.scaleOuts.Inc()
	}
	if d.Rejected {
		s.dropped++
		if s.met != nil {
			s.met.dropCounter(DropAdmission).Inc()
		}
		return 0, fmt.Errorf("%w (%s: %s)", ErrAdmissionRejected, modelName, d.Detail)
	}
	r := d.Req
	id := r.ID
	depth := s.eng.Depth()
	if len(job.Plan) > 1 {
		s.setElastic(now, len(r.BlockTimes) == 1, depth-1)
	}
	if s.met != nil {
		if s.met.admitted != nil {
			s.met.admitted.Inc()
		}
		s.met.requestCounter(modelName).Inc()
	}
	s.series.ObserveArrival(now)
	s.series.ObserveDepth(now, depth)
	s.waiters[id] = w
	if s.cfg.ArrivalRecorder != nil {
		s.cfg.ArrivalRecorder.Observe(id, modelName, now, deadlineMs)
	}
	if d.Idle {
		s.grantLocked(d.Lane, now)
	}
	return id, nil
}

// setElastic tracks §3.3 elastic-mode transitions for the gauge and event
// stream at fleet-wide queue depth depth. Caller holds s.mu.
func (s *Server) setElastic(nowMs float64, suppressed bool, depth int) {
	if suppressed == s.elasticSuppressed {
		return
	}
	s.elasticSuppressed = suppressed
	kind := trace.ElasticOff
	if suppressed {
		kind = trace.ElasticOn
	}
	s.emit(trace.Event{AtMs: nowMs, Kind: kind, ReqID: -1, Note: trace.NoteDepth, Args: [4]float64{float64(depth)}})
}

// QueuedRequest is one waiting request in a QueueSnapshot.
type QueuedRequest struct {
	ID          int                `json:"id"`
	Model       string             `json:"model"`
	Class       model.RequestClass `json:"class"`
	Pos         int                `json:"pos"`
	BlocksDone  int                `json:"blocks_done"`
	BlocksTotal int                `json:"blocks_total"`
	WaitedMs    float64            `json:"waited_ms"`
	// CurrentRR is the plain response ratio the request would finish with
	// if it ran its remaining blocks immediately (PredictedPlainRR with
	// zero extra wait) — the live Figure 6 axis value.
	CurrentRR   float64 `json:"current_rr"`
	Preemptions int     `json:"preemptions"`
	// DeadlineMs is the absolute virtual-time deadline, 0 when none.
	DeadlineMs float64 `json:"deadline_ms,omitempty"`
	// Device is the fleet device the request is queued on (omitted on
	// single-device deployments, where it is always 0).
	Device int `json:"device,omitempty"`
	// Part is the partition lane the request is queued on (omitted on
	// unpartitioned deployments, where it is always 0).
	Part int `json:"part,omitempty"`
}

// DeviceSnapshot is one fleet device's live state in a QueueSnapshot.
type DeviceSnapshot struct {
	Device int `json:"device"`
	// Part is the partition lane this row describes; unpartitioned fleets
	// have one row per device with Part 0 (omitted).
	Part  int  `json:"part,omitempty"`
	Depth int  `json:"depth"`
	Busy  bool `json:"busy"`
	// InflightID is the executing request's ID, -1 while idle.
	InflightID int `json:"inflight_id"`
	// BusyMsTotal is cumulative virtual-ms block occupancy.
	BusyMsTotal float64 `json:"busy_ms_total"`
}

// QueueSnapshot is the /queuez payload: the live queue plus rolling QoS.
type QueueSnapshot struct {
	NowMs             float64         `json:"now_ms"`
	Alpha             float64         `json:"alpha"`
	Depth             int             `json:"depth"`
	Busy              bool            `json:"busy"`
	Draining          bool            `json:"draining"`
	Served            int             `json:"served"`
	Dropped           int             `json:"dropped"`
	ElasticSuppressed bool            `json:"elastic_suppressed"`
	QoS               obs.QoSSnapshot `json:"qos"`
	Requests          []QueuedRequest `json:"requests"`
	// Placement and Devices describe the fleet; both omitted on
	// single-device deployments, whose payload is unchanged.
	Placement string           `json:"placement,omitempty"`
	Devices   []DeviceSnapshot `json:"devices,omitempty"`
	// ActiveDevices is the actively placed fleet prefix size; omitted
	// unless the autoscaler is enabled.
	ActiveDevices int `json:"active_devices,omitempty"`
}

// QueueSnapshot captures the live queue state for the admin endpoint. On a
// server that has not started, NowMs and all derived times are 0 rather
// than zero-epoch garbage.
func (s *Server) QueueSnapshot() QueueSnapshot {
	s.mu.Lock()
	now := s.nowMs()
	depth := s.eng.Depth()
	snap := QueueSnapshot{
		NowMs:             now,
		Alpha:             s.cfg.Alpha,
		Depth:             depth,
		Draining:          s.draining,
		Served:            s.served,
		Dropped:           s.dropped,
		ElasticSuppressed: s.elasticSuppressed,
		Requests:          make([]QueuedRequest, 0, depth),
	}
	for lane := 0; lane < s.eng.Lanes(); lane++ {
		snap.Busy = snap.Busy || s.eng.Inflight(lane) != nil
		for i, r := range s.eng.Queue(lane).Requests() {
			snap.Requests = append(snap.Requests, QueuedRequest{
				ID:          r.ID,
				Model:       r.Model,
				Class:       r.Class,
				Pos:         i,
				BlocksDone:  r.Next,
				BlocksTotal: len(r.BlockTimes),
				WaitedMs:    now - r.ArriveMs,
				CurrentRR:   r.PredictedPlainRR(now, 0),
				Preemptions: r.Preemptions,
				DeadlineMs:  r.DeadlineMs,
				Device:      r.Device,
				Part:        r.Partition,
			})
		}
	}
	if s.eng.Elastic() {
		snap.ActiveDevices = s.eng.Active()
	}
	if s.eng.Lanes() > 1 {
		snap.Placement = s.eng.PlacerName()
		for lane := 0; lane < s.eng.Lanes(); lane++ {
			dev, part := place.LaneDevice(lane, s.eng.Parts())
			ds := DeviceSnapshot{Device: dev, Part: part, Depth: s.eng.Queue(lane).Len(),
				InflightID: -1, BusyMsTotal: s.holds[lane].busyMs}
			if r := s.eng.Inflight(lane); r != nil {
				ds.Busy, ds.InflightID = true, r.ID
			}
			snap.Devices = append(snap.Devices, ds)
		}
	}
	s.mu.Unlock()
	// The rolling window has its own lock; read it outside s.mu.
	snap.QoS = s.qos.Snapshot()
	return snap
}

// RollingQoS exposes the online estimator (e.g. for tests comparing live
// numbers against offline metrics over the same records).
func (s *Server) RollingQoS() *obs.RollingQoS { return s.qos }

// TimeSeries snapshots the windowed QoS trajectory — the /timeseriesz
// payload: per-window throughput, viol@α, mean queue depth and per-device
// busy fractions in virtual time.
func (s *Server) TimeSeries() obs.TimeSeriesSnapshot { return s.series.Snapshot() }

// Health is the /healthz payload.
type Health struct {
	Status     string  `json:"status"` // "ok", "draining" or "stopped"
	UptimeS    float64 `json:"uptime_s"`
	Models     int     `json:"models"`
	Served     int     `json:"served"`
	Dropped    int     `json:"dropped"`
	QueueDepth int     `json:"queue_depth"`
	// Version and GoVersion identify the binary answering the probe (VCS
	// revision from the embedded build info; "unknown" without stamping).
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
}

// Health reports liveness for the admin endpoint.
func (s *Server) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := Health{
		Status:     "ok",
		Models:     len(s.cfg.Catalog),
		Served:     s.served,
		Dropped:    s.dropped,
		QueueDepth: s.eng.Depth(),
		Version:    obs.BuildVersion(),
		GoVersion:  runtime.Version(),
		UptimeS:    s.clk.now() / 1000,
	}
	if s.closed {
		h.Status = "stopped"
		if s.draining {
			h.Status = "draining"
		}
	}
	return h
}

// Responder is one client connection (§4.2 "Responder"). Its reader (serve)
// dispatches calls in the order they were written; its outbox's writer
// writes the replies. No call gets a goroutine or channel of its own: a
// waiting request is a (Responder, seq) waiter whose outcome becomes a reply
// frame appended to the outbox.
type Responder struct {
	srv *Server
	// The reader's decoder, the strings it decoded, Infer/Submit args and
	// outbound scratch.
	in    coder
	names nameMemo
	args  InferArgs
	held  outbound

	// outbox.mu also guards the completion being framed (reply); once the
	// outbox is closed, replies are dropped.
	outbox
	reply InferReply
}

// serve reads and dispatches conn's calls until it drops, then hangs up
// its waiters.
func (r *Responder) serve(conn net.Conn) {
	r.open(conn)
	r.in.names = &r.names
	frames := newFrameReader(conn)
	for {
		seq, kind, body, err := frames.next()
		if err != nil {
			break
		}
		if int(kind) >= len(methods) {
			r.send(seq, nil, fmt.Errorf("serve: unknown method %d", kind))
			continue
		}
		methods[kind].serve(r, seq, body)
	}
	r.mu.Lock()
	r.closeLocked()
	r.mu.Unlock()
	conn.Close()
	r.srv.hangUp(r)
}

// resolve makes r a recipient: an outcome becomes the reply to the call
// waiting for it.
func (r *Responder) resolve(seq uint64, out *outcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if out.err == nil {
		r.reply.fill(&out.req)
	}
	r.sendLocked(seq, &r.reply, out.err)
}

// send frames the reply to call seq for the writer: reply, or err's
// message if err is not nil.
func (r *Responder) send(seq uint64, reply wirer, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sendLocked(seq, reply, err)
}

func (r *Responder) sendLocked(seq uint64, reply wirer, err error) {
	if r.closed {
		return
	}
	r.cond.Signal() // the writer wakes once r.mu is released
	kind := byte(replyOK)
	if err != nil {
		msg := message(err.Error())
		kind, reply = replyErr, &msg
	}
	r.out.frame(seq, kind, reply)
}

func (r *Responder) infer(seq uint64, body []byte)  { r.enqueue(seq, body, true) }
func (r *Responder) submit(seq uint64, body []byte) { r.enqueue(seq, body, false) }

// enqueue serves Infer, whose reply is the request's outcome, and Submit,
// whose reply is the request's ID while the outcome waits for a Wait.
func (r *Responder) enqueue(seq uint64, body []byte, infer bool) {
	err := r.in.decode(body, &r.args)
	var id int
	if err == nil {
		id, err = r.srv.arrive(r.args.Model, r.args.DeadlineMs, waiter{to: r, seq: seq, attached: infer}, &r.held)
	}
	switch {
	case err != nil:
		r.send(seq, nil, err)
	case !infer:
		r.send(seq, &SubmitReply{ReqID: id}, nil)
	}
}

// wait serves Wait: it replies with the parked outcome, or attaches seq to
// the waiter. A request has one waiter, so a Wait on a request a call
// already waits for, or on another connection's, fails at once.
func (r *Responder) wait(seq uint64, body []byte) {
	var args WaitArgs
	err := r.in.decode(body, &args)
	s := r.srv
	s.mu.Lock()
	w, ok := s.waiters[args.ReqID]
	parked := s.parked[args.ReqID]
	switch {
	case err != nil:
	case !ok || w.to != recipient(r):
		err = fmt.Errorf("serve: no pending request %d on this connection", args.ReqID)
	case parked != nil:
		delete(s.waiters, args.ReqID)
		delete(s.parked, args.ReqID)
	case w.attached:
		err = fmt.Errorf("serve: request %d already has a waiter", args.ReqID)
	default:
		w.seq, w.attached = seq, true
		s.waiters[args.ReqID] = w
	}
	s.mu.Unlock()
	switch {
	case err != nil:
		r.send(seq, nil, err)
	case parked != nil:
		r.resolve(seq, parked)
	}
}

// InferArgs names the model a user wants to run.
type InferArgs struct {
	Model string
	// DeadlineMs, when > 0, sets the request's deadline that many virtual
	// milliseconds after arrival, overriding the server-derived α·t_ext
	// deadline. A request past its deadline is shed at the next block
	// boundary with ErrDeadlineExceeded.
	DeadlineMs float64
}

// InferReply reports the completed request's QoS outcome.
type InferReply struct {
	ReqID         int
	Model         string
	Blocks        int
	E2EMs         float64
	ExtMs         float64
	WaitMs        float64
	ResponseRatio float64
	Preemptions   int
	// Device is the fleet device that served the request (0 on
	// single-device deployments).
	Device int
}

// fill populates the reply from a completed request.
func (reply *InferReply) fill(req *sched.Request) {
	*reply = InferReply{
		ReqID:         req.ID,
		Model:         req.Model,
		Blocks:        len(req.BlockTimes),
		E2EMs:         req.E2EMs(),
		ExtMs:         req.ExtMs,
		WaitMs:        req.E2EMs() - req.ExtMs,
		ResponseRatio: req.ResponseRatio(),
		Preemptions:   req.Preemptions,
		Device:        req.Device,
	}
}

// SubmitReply reports the ID of an asynchronously submitted request.
type SubmitReply struct {
	ReqID int
}

// WaitArgs names the submitted request to wait for.
type WaitArgs struct {
	ReqID int
}

// CancelArgs names the request to cancel.
type CancelArgs struct {
	ReqID int
}

// CancelReply reports what the cancellation found ("queued", "inflight",
// "unknown").
type CancelReply struct {
	State string
}

// StatsReply reports server-level counters and the fleet shape.
type StatsReply struct {
	Served  int
	Queued  int
	Models  int
	UptimeS float64
	// Devices is the physical device count; Placement the device-level
	// placement policy. Partition lanes are an implementation detail of the
	// server and never leak into the fleet shape.
	Devices   int
	Placement string
	// Partitions is the spatial-sharing lane count per device (0 on
	// unpartitioned servers).
	Partitions int
}

// stats answers Stats: server counters and the fleet shape.
func (s *Server) stats(*empty) (StatsReply, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	reply := StatsReply{
		Served:    s.served,
		Queued:    s.eng.Depth(),
		Models:    len(s.cfg.Catalog),
		Devices:   s.eng.Devices(),
		Placement: s.eng.Placement(),
		UptimeS:   s.clk.now() / 1000,
	}
	if parts := s.eng.Parts(); parts > 1 {
		reply.Partitions = parts
	}
	return reply, nil
}

// ModelQoS is one model's serving-time QoS digest.
type ModelQoS struct {
	Model         string
	Served        int
	MeanRR        float64
	MaxRR         float64
	MeanWaitMs    float64
	ViolationRate float64 // fraction with RR > α
	Preemptions   int
}

// ModelStatsReply reports per-model QoS since server start.
type ModelStatsReply struct {
	Alpha  float64
	Models []ModelQoS
}

// modelStats answers ModelStats: the per-model QoS digest (§5.2's
// metrics, live).
func (s *Server) modelStats(*empty) (ModelStatsReply, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	reply := ModelStatsReply{Alpha: s.cfg.Alpha}
	names := make([]string, 0, len(s.perModel))
	for name := range s.perModel {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := s.perModel[name]
		q := ModelQoS{
			Model:       name,
			Served:      a.served,
			MaxRR:       a.maxRR,
			Preemptions: a.preempts,
		}
		if a.served > 0 {
			q.MeanRR = a.sumRR / float64(a.served)
			q.MeanWaitMs = a.sumWaitMs / float64(a.served)
			q.ViolationRate = float64(a.violations) / float64(a.served)
		}
		reply.Models = append(reply.Models, q)
	}
	return reply, nil
}

// Client is one connection to a SPLIT server, the Responder's other end.
// Calls are framed into its outbox; its reader (readLoop) decodes each
// reply straight into the call pending under the reply's seq and completes
// it. No call gets a goroutine of its own. Every method but InferAsync goes
// through call, so errors.Is works on the typed outcomes it returns.
type Client struct {
	// outbox.mu also guards the last seq sent, the calls sent and not yet
	// answered (nil once closed), InferAsync's args and closing, set by
	// Close.
	outbox
	seq     uint64
	pending map[uint64]*rpc.Call
	args    InferArgs
	closing bool

	devices    int
	placement  string
	partitions int
}

// Dial connects to a SPLIT server and reads its fleet shape with one Stats
// call.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := newClient(conn)
	st, err := c.Stats()
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("serve: dial %s: read fleet shape: %w", addr, err)
	}
	c.devices, c.placement, c.partitions = st.Devices, st.Placement, st.Partitions
	return c, nil
}

// call makes one call and returns its reply, with its error decoded.
func call[R any, PR msg[R]](c *Client, method string, args wirer) (R, error) {
	var reply R
	err := fromWire((<-c.send(method, args, PR(&reply)).Done).Error)
	return reply, err
}

// Fleet reports the server's device count and placement policy as read at
// Dial.
func (c *Client) Fleet() (devices int, placement string) {
	return c.devices, c.placement
}

// Partitions reports the server's spatial-sharing lane count per device as
// read at Dial (0 on unpartitioned servers).
func (c *Client) Partitions() int { return c.partitions }

// Infer runs one request synchronously.
func (c *Client) Infer(modelName string) (InferReply, error) {
	return c.InferDeadline(modelName, 0)
}

// InferDeadline runs one request synchronously with a client-supplied
// deadline (virtual milliseconds after arrival; 0 = server default).
func (c *Client) InferDeadline(modelName string, deadlineMs float64) (InferReply, error) {
	return call[InferReply](c, "SPLIT.Infer", &InferArgs{Model: modelName, DeadlineMs: deadlineMs})
}

// inferCall is an InferAsync call and its reply, allocated together.
type inferCall struct {
	rpc.Call
	reply InferReply
}

// InferAsync starts a request and returns the pending call, whose Reply
// is an *InferReply and whose Args is nil: the args are framed from the
// connection's own. Its Error is raw; IsShed classifies it.
func (c *Client) InferAsync(modelName string) *rpc.Call {
	// The reply names the model already, so decoding its name copies nothing.
	ic := &inferCall{reply: InferReply{Model: modelName}}
	ic.ServiceMethod, ic.Reply, ic.Done = "SPLIT.Infer", &ic.reply, make(chan *rpc.Call, 1)
	c.mu.Lock()
	c.args.Model = modelName
	err := c.sendLocked(&ic.Call, &c.args)
	c.mu.Unlock()
	if err != nil {
		finish(&ic.Call, err)
	}
	return &ic.Call
}

// Submit enqueues a request and returns its ID without waiting.
func (c *Client) Submit(modelName string, deadlineMs float64) (int, error) {
	reply, err := call[SubmitReply](c, "SPLIT.Submit", &InferArgs{Model: modelName, DeadlineMs: deadlineMs})
	return reply.ReqID, err
}

// Wait claims the outcome of a submitted request.
func (c *Client) Wait(reqID int) (InferReply, error) {
	return call[InferReply](c, "SPLIT.Wait", &WaitArgs{ReqID: reqID})
}

// Cancel cancels a pending request and reports what it found.
func (c *Client) Cancel(reqID int) (CancelState, error) {
	reply, err := call[CancelReply](c, "SPLIT.Cancel", &CancelArgs{ReqID: reqID})
	return CancelState(reply.State), err
}

// Stats fetches server counters and the fleet shape.
func (c *Client) Stats() (StatsReply, error) { return call[StatsReply](c, "SPLIT.Stats", &empty{}) }

// ModelStats fetches the per-model QoS digest.
func (c *Client) ModelStats() (ModelStatsReply, error) {
	return call[ModelStatsReply](c, "SPLIT.ModelStats", &empty{})
}
