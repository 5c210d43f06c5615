// Package serve is the online serving path of SPLIT (§4.1-4.2), realized
// with Go's net/rpc: a Responder accepts user requests over RPC and appends
// them to the request queue; the Request Wrapper turns them into
// block-granular scheduler requests using the deployed split plans; the
// Token Scheduler orders the queue with the greedy preemption algorithm; the
// Token Assigner hands the token to the highest-priority request, whose next
// block then occupies the (simulated) device for its profiled duration; the
// Responder finally returns the inference result to the user.
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
	"context"
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"split/internal/engine"
	"split/internal/fleet"
	"split/internal/model"
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
	// ErrNotStarted rejects requests arriving before Start: the virtual
	// clock has no epoch yet, so enqueueing would record garbage times.
	ErrNotStarted = errors.New("serve: server not started")
	// ErrStopped rejects requests arriving at a stopped server.
	ErrStopped = errors.New("serve: server stopped")
	// ErrUnknownModel rejects requests naming a model not in the catalog.
	ErrUnknownModel = errors.New("serve: model not deployed")
	// ErrQueueFull rejects requests when Config.MaxQueue is reached.
	ErrQueueFull = errors.New("serve: queue full")
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
	DropQueueFull    = "queue_full"
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
	// MaxQueue caps the number of waiting requests; arrivals beyond it are
	// rejected with ErrQueueFull before they reach the front door. 0 means
	// unbounded (the paper's setting). For the gate both drivers share —
	// with typed drop reasons and parity-comparable decisions — use
	// Admission instead.
	MaxQueue int
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

// outcome is what a waiter receives: the completed request, or a typed
// terminal error (deadline, cancel, drain, stop, device fault).
type outcome struct {
	req *sched.Request
	err error
}

// delivery pairs a waiter channel with its outcome. Like trace events,
// deliveries are buffered while s.mu is held and sent only after it is
// released; the channels are buffered (capacity 1, one send each), so the
// sends can never block the serving path either way.
type delivery struct {
	ch  chan outcome
	out outcome
}

// Server is the wall-clock driver of internal/engine. The engine makes
// every scheduling decision; the server adds what only a live process has:
// the mutex and condition variable the decisions are serialized under, one
// executor goroutine per lane that sleeps out each granted hold, the
// waiters RPC replies are delivered through, and the metrics, time series
// and recorder that account for it all. The engine narrates its own
// decisions (engine.Append*) into the pending buffer; the server writes only
// the events no engine decision is behind — pre-engine drops, elastic
// transitions and drain markers.
type Server struct {
	cfg Config
	// tracing caches cfg.Sink != nil: narration is gated on it so no event
	// is built (or allocates) unsinked.
	tracing bool
	start   time.Time

	mu   sync.Mutex
	cond *sync.Cond
	// eng is the decision core: queues, placer, planner, ledgers, autoscaler
	// and admission gate. It is not concurrency-safe and is only called with
	// mu held.
	eng *engine.Engine
	// busyMs accumulates virtual-ms occupancy per lane, pro-rated by the
	// granted device fraction.
	busyMs  []float64
	nextID  int
	closed  bool
	served  int
	dropped int
	// running counts live executor goroutines; the last one to exit under a
	// drain owns the clean DrainEnd event.
	running int
	// draining is true between a Drain call and either the backlog
	// emptying or the drain timeout shedding it.
	draining bool
	// stopReason labels the shed applied to the in-flight request when the
	// server closes under it ("stopped", or "drained" once a drain times
	// out).
	stopReason string
	// elasticSuppressed is the last §3.3 decision for a splittable arrival:
	// true while the elastic mechanism is disabling splitting.
	elasticSuppressed bool
	waiters           map[int]chan outcome
	// perModel accumulates QoS aggregates per model since start.
	perModel map[string]*modelAgg

	// pending buffers trace events recorded while s.mu is held. The sink is
	// caller-supplied code that may take its own locks or call back into the
	// server, so events are flushed to Config.Sink only after s.mu is
	// released.
	pending []trace.Event
	// pendingOut buffers waiter deliveries the same way.
	pendingOut []delivery

	// met holds cached metric handles (nil when Config.Obs is nil); qos is
	// the rolling online estimator and always exists, as does series, the
	// windowed trajectory behind /timeseriesz.
	met    *serveMetrics
	qos    *obs.RollingQoS
	series *obs.TimeSeries

	listener net.Listener
	wg       sync.WaitGroup
}

// NewServer validates cfg and builds a stopped server.
func NewServer(cfg Config) (*Server, error) {
	if len(cfg.Catalog) == 0 {
		return nil, errors.New("serve: empty catalog")
	}
	if cfg.Alpha <= 0 {
		cfg.Alpha = 4
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
		eng:        eng,
		busyMs:     make([]float64, eng.Lanes()),
		waiters:    make(map[int]chan outcome),
		perModel:   make(map[string]*modelAgg),
		qos:        obs.NewRollingQoS(cfg.Alpha, cfg.QoSWindow),
		series:     obs.NewTimeSeries(cfg.Alpha, 0, 0, eng.Devices()),
		stopReason: DropStopped,
	}
	if cfg.Obs != nil {
		s.met = newServeMetrics(cfg.Obs, cfg.Catalog, eng)
		if s.met.fleetActive != nil {
			s.met.fleetActive.SetInt(eng.Active())
		}
	}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// stoppingLocked reports whether the server is past granting work: stopped,
// or a drain that timed out. Caller holds s.mu.
func (s *Server) stoppingLocked() bool { return s.closed && !s.draining }

// stopLocked is what the engine's Settle is told: empty while the server
// grants work, else the reason unfinished work is shed under. Caller holds
// s.mu.
func (s *Server) stopLocked() string {
	if s.stoppingLocked() {
		return s.stopReason
	}
	return ""
}

// anyBusyLocked reports whether any lane is executing a block. Caller
// holds s.mu.
func (s *Server) anyBusyLocked() bool {
	for lane := 0; lane < s.eng.Lanes(); lane++ {
		if s.eng.Inflight(lane) != nil {
			return true
		}
	}
	return false
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
	if s.met != nil {
		s.met.queueDepth.SetInt(0)
		for _, g := range s.met.deviceDepth {
			g.SetInt(0)
		}
	}
	return shed
}

// depthChangedLocked refreshes the queue-depth gauges after one of dev's
// queues changed: the fleet-wide gauge, and on fleets the per-device one
// (summing the device's partition lanes when spatially shared). Caller
// holds s.mu.
func (s *Server) depthChangedLocked(dev int) {
	if s.met == nil {
		return
	}
	s.met.queueDepth.SetInt(s.eng.Depth())
	if len(s.met.deviceDepth) > 0 {
		s.met.deviceDepth[dev].SetInt(s.eng.DeviceDepth(dev))
	}
}

// dropsHelp is the split_drops_total help text; the family covers both
// pre-enqueue rejections and post-enqueue sheds, keyed by reason.
const dropsHelp = "requests dropped, by reason (rejections before enqueue and sheds after)"

// serveMetrics caches the registry handles the serving path updates, so the
// hot path never rebuilds label keys. The per-model and per-reason families
// are seeded at construction and open-ended after it — Deploy adds models,
// callers and future outcomes add drop reasons — so labeled registers
// unseen label values on first use instead of handing back a nil counter.
type serveMetrics struct {
	reg         *obs.Registry
	requests    map[string]*obs.Counter
	completions map[string]*obs.Counter
	drops       map[string]*obs.Counter
	preemptions *obs.Counter
	retries     *obs.Counter
	queueDepth  *obs.Gauge
	elastic     *obs.Gauge
	violRate    *obs.Gauge
	jitter      *obs.Gauge
	waitMs      *obs.Histogram
	e2eMs       *obs.Histogram
	rr          *obs.Histogram
	// Per-device families, indexed by device ID. Registered only on fleets
	// (devices > 1) so single-device deployments keep today's exact
	// /metrics output.
	deviceDepth  []*obs.Gauge
	deviceBusyMs []*obs.Gauge
	deviceBlocks []*obs.Counter
	deviceDrops  []*obs.Counter
	// Batch families, registered only when micro-batching is enabled
	// (BatchMax > 1), for the same reason: deployments that never batch
	// keep their exact /metrics output.
	batchedBlocks *obs.Counter
	batchSize     *obs.Histogram
	// Control-plane families, registered only when the autoscaler /
	// admission gate is enabled, again to keep fixed deployments' /metrics
	// output byte-stable.
	fleetActive *obs.Gauge
	scaleOuts   *obs.Counter
	scaleIns    *obs.Counter
	admitted    *obs.Counter
	// Spatial-sharing families, indexed by lane (device*parts+part) and
	// registered only when Partitions > 1, so temporal deployments keep
	// their exact /metrics output. Busy-ms is pro-rated by the granted
	// fraction; width is the slot count of the most recent hold.
	partBusyMs []*obs.Gauge
	partBlocks []*obs.Counter
	partWidth  []*obs.Gauge
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
		queueDepth:  reg.Gauge(obs.MetricQueueDepth, "requests waiting in the scheduler queue"),
		elastic:     reg.Gauge(obs.MetricElasticSuppress, "1 while the elastic mechanism is suppressing splitting (§3.3), else 0"),
		violRate:    reg.Gauge(obs.MetricViolationRate, "fraction of the rolling completion window with RR > α"),
		jitter:      reg.Gauge(obs.MetricJitterMs, "stddev of e2e latency over the rolling completion window"),
		waitMs:      reg.Histogram(obs.MetricWaitMs, "waiting latency (e2e - t_ext) of completed requests, virtual ms", obs.DefaultLatencyBuckets()),
		e2eMs:       reg.Histogram(obs.MetricE2EMs, "end-to-end latency of completed requests, virtual ms", obs.DefaultLatencyBuckets()),
		rr:          reg.Histogram(obs.MetricResponseRatio, "response ratio t_ete/t_ext of completed requests", obs.DefaultRatioBuckets()),
	}
	for name := range catalog {
		m.requestCounter(name)
		m.completionCounter(name)
	}
	for _, reason := range []string{
		DropStopped, DropUnknownModel, DropQueueFull, DropNotStarted,
		DropDeadline, DropCanceled, DropDrained, DropDeviceFault,
	} {
		m.dropCounter(reason)
	}
	if devices > 1 {
		for i := 0; i < devices; i++ {
			d := strconv.Itoa(i)
			m.deviceDepth = append(m.deviceDepth,
				reg.Gauge(obs.MetricDeviceQueueDepth, "requests waiting per fleet device", "device", d))
			m.deviceBusyMs = append(m.deviceBusyMs,
				reg.Gauge(obs.MetricDeviceBusyMs, "cumulative virtual-ms block occupancy per fleet device", "device", d))
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
		m.fleetActive = reg.Gauge(obs.MetricFleetActive, "devices in the actively placed fleet prefix")
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
				d, pt := strconv.Itoa(i), strconv.Itoa(p)
				m.partBusyMs = append(m.partBusyMs,
					reg.Gauge(obs.MetricPartitionBusyMs, "virtual-ms occupancy per partition lane, pro-rated by granted fraction", "device", d, "part", pt))
				m.partBlocks = append(m.partBlocks,
					reg.Counter(obs.MetricPartitionBlocks, "blocks executed per partition lane", "device", d, "part", pt))
				m.partWidth = append(m.partWidth,
					reg.Gauge(obs.MetricPartitionWidth, "slot width of the lane's most recent hold", "device", d, "part", pt))
			}
		}
	}
	return m
}

// labeled returns the family's counter for one label value from its cache,
// registering a value not seeded in newServeMetrics on first use — a model
// deployed later or an unknown drop reason must cost one registry lookup,
// not a nil dereference on the serving path. Caller holds s.mu (or is the
// constructor), which also serializes access to the map.
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

// takeOut hands the buffered events and waiter deliveries to the caller
// and resets the buffers. Caller holds s.mu and passes the result to
// deliver after unlocking.
func (s *Server) takeOut() ([]trace.Event, []delivery) {
	evs, dels := s.pending, s.pendingOut
	s.pending, s.pendingOut = nil, nil
	return evs, dels
}

// deliver forwards buffered events to the sink and buffered outcomes to
// their waiters. Caller must NOT hold s.mu.
func (s *Server) deliver(evs []trace.Event, dels []delivery) {
	for _, e := range evs {
		s.cfg.Sink.Emit(e)
	}
	for _, d := range dels {
		d.ch <- d.out
	}
}

// drop counts and traces one pre-enqueue rejection. Caller holds s.mu.
func (s *Server) drop(nowMs float64, modelName, reason string) {
	s.dropped++
	if s.met != nil {
		s.met.dropCounter(reason).Inc()
	}
	s.emit(trace.Event{AtMs: nowMs, Kind: trace.Drop, ReqID: -1, Model: modelName, Detail: reason})
}

// shedLocked accounts one already-enqueued request leaving unserved: it
// counts the reason and resolves the request's waiter with the reason's
// typed error. The Shed event is the narrator's. The caller has already
// detached r from the queue (or owns it in flight). Caller holds s.mu.
//
//lint:hotpath boundary sweeps shed through here on the grant loop
func (s *Server) shedLocked(nowMs float64, r *sched.Request, reason string) {
	s.dropped++
	// Sheds enter the rolling QoS window with their drop reason as the
	// record outcome: the live violation rate must count a deadline-shed
	// request as a violated one, exactly as the offline harness does —
	// otherwise heavy shedding *improves* the reported rolling QoS. The
	// window's latency statistics (jitter, mean RR/wait) skip non-served
	// records, so sheds cannot pollute them.
	rec := policy.RecordOf(r, nowMs, reason)
	s.qos.Observe(rec)
	s.series.ObserveOutcome(rec)
	if s.met != nil {
		//lint:ignore hotalloc steady-state reasons hit the cached map; Registry.Counter runs once per never-seen reason
		s.met.dropCounter(reason).Inc()
		if len(s.met.deviceDrops) > 0 {
			s.met.deviceDrops[r.Device].Inc()
		}
		vr, jit := s.qos.Gauges()
		s.met.violRate.Set(vr)
		s.met.jitter.Set(jit)
	}
	//lint:ignore hotalloc the resolved error must carry request identity for the client; sheds are the rare path
	s.resolveLocked(r.ID, outcome{err: fmt.Errorf("%w (request %d, %s)", reasonErr[reason], r.ID, r.Model)})
}

// resolveLocked queues the waiter's outcome for delivery and forgets the
// waiter. Caller holds s.mu.
func (s *Server) resolveLocked(id int, out outcome) {
	ch, ok := s.waiters[id]
	if !ok {
		return
	}
	delete(s.waiters, id)
	s.pendingOut = append(s.pendingOut, delivery{ch, out})
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

// nowMs returns milliseconds of virtual time since the server started, or
// 0 before Start: time.Since on the zero epoch would report decades of
// garbage uptime, poisoning every ArriveMs/WaitedMs derived from it.
func (s *Server) nowMs() float64 {
	if s.start.IsZero() {
		return 0
	}
	return float64(time.Since(s.start)) / float64(time.Millisecond) / s.cfg.TimeScale
}

// Start begins serving RPCs on l and launches the executor. It returns
// immediately; Stop or Drain shuts everything down.
func (s *Server) Start(l net.Listener) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener != nil {
		return errors.New("serve: already started")
	}
	s.start = time.Now()
	s.listener = l
	s.running = s.eng.Lanes()
	s.wg.Add(1 + s.running)
	go s.acceptLoop()
	for lane := 0; lane < s.running; lane++ {
		go s.executor(lane)
	}
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
// and stops the executor after the current block — whose request is NOT
// shed: if that block completes its plan, the completion is delivered to
// its client, otherwise the client receives ErrStopped at the boundary.
// For a shutdown that finishes the backlog first, use Drain.
func (s *Server) Stop() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	s.shedBacklogLocked(s.nowMs(), DropStopped)
	s.cond.Broadcast()
	evs, dels := s.takeOut()
	s.mu.Unlock()
	s.deliver(evs, dels)
	s.wg.Wait()
}

// Drain stops accepting new work and lets the executor finish the backlog.
// If the backlog is not done within timeout, every still-queued request is
// shed with ErrDrained and the in-flight request is shed at its next block
// boundary (or delivered, if that boundary completes it). Drain returns
// the number of requests shed, 0 for a clean drain. Calling Drain on an
// already-closed server just waits for shutdown to finish.
func (s *Server) Drain(timeout time.Duration) int {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return 0
	}
	s.closed = true
	s.draining = true
	if s.listener != nil {
		s.listener.Close()
	}
	s.emit(trace.Event{AtMs: s.nowMs(), Kind: trace.DrainStart, ReqID: -1,
		Detail: fmt.Sprintf("depth=%d timeout=%s", s.eng.Depth(), timeout)})
	s.cond.Broadcast()
	evs, dels := s.takeOut()
	s.mu.Unlock()
	s.deliver(evs, dels)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return 0
	case <-time.After(timeout):
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
			Detail: fmt.Sprintf("timeout, shed=%d", shed)})
		s.cond.Broadcast()
	}
	evs, dels = s.takeOut()
	s.mu.Unlock()
	s.deliver(evs, dels)
	<-done
	return shed
}

// Cancel removes a queued request (its client receives ErrCanceled) or
// marks the in-flight request cancel-at-next-boundary, and reports which.
// Unknown IDs — never enqueued, already completed, already shed — return
// CancelUnknown.
func (s *Server) Cancel(id int) CancelState {
	return s.cancel(id, "client cancel")
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

func (s *Server) cancel(id int, why string) CancelState {
	s.mu.Lock()
	state := s.cancelLocked(id, why)
	evs, dels := s.takeOut()
	s.mu.Unlock()
	s.deliver(evs, dels)
	return state
}

// cancelLocked is the body of cancel. Caller holds s.mu.
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
	// A grant holder — a scalar in-flight request or any member of the
	// current micro-batch — sheds at its boundary, not here.
	if c.State == engine.CancelQueued {
		s.shedLocked(now, c.Req, DropCanceled)
		s.depthChangedLocked(c.Req.Device)
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
		go s.serveConn(conn)
	}
}

// serveConn serves one client connection with its own Responder, so that
// requests submitted on the connection can be canceled when it drops: a
// client that goes away must not keep occupying the device or the queue.
func (s *Server) serveConn(conn net.Conn) {
	resp := newResponder(s)
	rs := rpc.NewServer()
	if err := rs.RegisterName("SPLIT", resp); err != nil {
		conn.Close()
		return
	}
	rs.ServeConn(conn)
	resp.cancelOrphans()
}

// executor is one lane's wall clock: it asks the engine for the lane's next
// grant, sleeps out the hold with s.mu released, and hands the boundary
// back to the engine to settle. A fleet runs one executor per lane, all
// sharing s.mu and the condition variable. All lock transitions stay in
// this function so the buffered events and outcomes are always flushed
// with s.mu released.
//
//lint:hotpath the executor loop is the serving-path grant loop: one iteration per device hold
func (s *Server) executor(lane int) {
	defer s.wg.Done()
	dev, _ := place.LaneDevice(lane, s.eng.Parts())
	// Label the executor goroutine so CPU/goroutine profiles from
	// /debug/pprof split by device; per-block model/phase labels are applied
	// around the device hold below.
	idleCtx := pprof.WithLabels(context.Background(),
		pprof.Labels("subsystem", "executor", "device", strconv.Itoa(dev)))
	pprof.SetGoroutineLabels(idleCtx)
	defer pprof.SetGoroutineLabels(context.Background())
	s.mu.Lock()
	for {
		now := s.nowMs()
		var g engine.Grant
		if !s.stoppingLocked() {
			g = s.eng.Grant(lane, now)
			if s.tracing {
				s.pending = engine.AppendGrant(s.pending, now, g)
			}
			if len(g.Shed) > 0 {
				for _, r := range g.Shed {
					s.shedLocked(now, r, DropDeadline)
				}
				s.depthChangedLocked(dev)
			}
		}
		if !g.OK {
			// No grant means an empty queue OR a covered anchor slot; a
			// draining lane that still holds work is the latter and must
			// wait for the sibling's release, not exit.
			if s.closed && (!s.draining || s.eng.Queue(lane).Len() == 0) {
				// Stopped, or draining with this lane's backlog empty:
				// exit. The last executor out of a drain owns the clean
				// DrainEnd — earlier exits would end the drain while other
				// devices still hold work.
				s.running--
				if s.draining && s.running == 0 {
					s.draining = false
					s.emit(trace.Event{AtMs: s.nowMs(), Kind: trace.DrainEnd, ReqID: -1, Detail: "clean"})
				}
				evs, dels := s.takeOut()
				s.mu.Unlock()
				s.deliver(evs, dels)
				return
			}
			// Idle. Flush buffered events and outcomes before blocking: a
			// shed client must not wait for the next arrival to learn its
			// fate.
			if len(s.pending) > 0 || len(s.pendingOut) > 0 {
				evs, dels := s.takeOut()
				s.mu.Unlock()
				s.deliver(evs, dels)
				s.mu.Lock()
				continue
			}
			s.cond.Wait()
			continue
		}

		// The engine granted block g.Block to g.Batch — a batch of one
		// unless micro-batching coalesced same-type neighbors — for
		// g.HoldMs of device time.
		lead := g.Batch[0]
		blockStartMs := now
		if s.met != nil && g.BatchID != 0 && s.met.batchedBlocks != nil {
			s.met.batchedBlocks.Inc()
			s.met.batchSize.Observe(float64(len(g.Batch)))
		}
		s.depthChangedLocked(dev)
		var st engine.Settlement
		for {
			evs, dels := s.takeOut()
			s.mu.Unlock()
			s.deliver(evs, dels)
			// The device hold is the executor's hot phase: label it with the
			// model and block so profiles attribute occupancy causally.
			pprof.SetGoroutineLabels(pprof.WithLabels(idleCtx,
				pprof.Labels("phase", "exec", "model", lead.Model, "block", strconv.Itoa(g.Block))))
			time.Sleep(time.Duration(g.HoldMs * s.cfg.TimeScale * float64(time.Millisecond)))
			pprof.SetGoroutineLabels(idleCtx)
			s.mu.Lock()
			now = s.nowMs()
			st = s.eng.Settle(lane, now, s.stopLocked())
			if s.tracing {
				s.pending = engine.AppendSettle(s.pending, now, g, st)
			}
			if !st.Retry {
				break
			}
			if s.met != nil {
				s.met.retries.Inc()
			}
			g.HoldMs = st.HoldMs
		}
		if len(st.Wake) > 0 {
			// Sibling lanes were waiting for anchor slots this release
			// uncovered.
			s.cond.Broadcast()
		}
		// Busy-ms pro-rates by the occupied fraction so per-device sums stay
		// comparable between temporal and spatial runs (Frac is 1 unpartitioned).
		busyMs := (now - blockStartMs) * g.Frac
		s.busyMs[lane] += busyMs
		//lint:ignore hotalloc lazy per-window busy buckets: one make per elapsed time window, not per hold
		s.series.ObserveBusyFrac(dev, blockStartMs, now, g.Frac)
		if s.met != nil && len(s.met.deviceBusyMs) > 0 {
			s.met.deviceBusyMs[dev].Add(busyMs)
			s.met.deviceBlocks[dev].Inc()
		}
		if s.met != nil && len(s.met.partBusyMs) > 0 {
			s.met.partBusyMs[lane].Add(busyMs)
			s.met.partBlocks[lane].Inc()
			s.met.partWidth[lane].SetInt(int(g.Frac*float64(s.eng.Parts()) + 0.5))
		}
		for _, f := range st.Fates {
			s.fateLocked(now, f)
		}
		evs, dels := s.takeOut()
		s.mu.Unlock()
		s.deliver(evs, dels)
		s.mu.Lock()
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
		// Work is done — deliver even if the request was canceled or the
		// server is stopping: the client paid for the answer.
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
		if rr > agg.maxRR {
			agg.maxRR = rr
		}
		agg.sumWaitMs += r.E2EMs() - r.ExtMs
		if rr > s.cfg.Alpha {
			agg.violations++
		}
		agg.preempts += r.Preemptions
		//lint:ignore hotalloc deployed models hit the cached counter map; Registry.Counter runs once per never-seen model
		s.observeCompletion(r, rr)
		s.resolveLocked(r.ID, outcome{req: r})
	case engine.Shed:
		s.shedLocked(nowMs, r, f.Reason)
	case engine.Requeued:
		if f.Pos > 0 && s.met != nil {
			s.met.preemptions.Inc()
		}
		s.depthChangedLocked(r.Device)
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
	vr, jit := s.qos.Gauges()
	s.met.violRate.Set(vr)
	s.met.jitter.Set(jit)
}

// enqueue wraps a model request (request wrapper + token scheduler insert)
// and returns the request ID and the channel that will deliver the
// outcome. deadlineMs > 0 sets a client-supplied deadline that many
// virtual milliseconds after arrival. Every rejection path is typed and
// counted so live metrics can distinguish causes.
func (s *Server) enqueue(modelName string, deadlineMs float64) (int, chan outcome, error) {
	s.mu.Lock()
	id, ch, err := s.enqueueLocked(modelName, deadlineMs)
	evs, dels := s.takeOut()
	s.mu.Unlock()
	s.deliver(evs, dels)
	return id, ch, err
}

// enqueueLocked is the body of enqueue: the serve-only rejections, then the
// engine's front door, then the metrics and waiter that account for what
// the engine decided. Every job that reaches the front door takes an ID,
// admitted or not, so a rejection's Drop never shares one with a later
// request. Caller holds s.mu.
func (s *Server) enqueueLocked(modelName string, deadlineMs float64) (int, chan outcome, error) {
	now := s.nowMs()
	if s.start.IsZero() {
		s.drop(now, modelName, DropNotStarted)
		return 0, nil, ErrNotStarted
	}
	if s.closed {
		s.drop(now, modelName, DropStopped)
		return 0, nil, ErrStopped
	}
	job, ok := s.cfg.Catalog.Job(s.nextID, modelName, deadlineMs)
	if !ok {
		s.drop(now, modelName, DropUnknownModel)
		return 0, nil, fmt.Errorf("%w: %q", ErrUnknownModel, modelName)
	}
	if s.cfg.MaxQueue > 0 {
		if depth := s.eng.Depth(); depth >= s.cfg.MaxQueue {
			s.drop(now, modelName, DropQueueFull)
			return 0, nil, fmt.Errorf("%w: %d waiting", ErrQueueFull, depth)
		}
	}
	s.nextID++
	d := s.eng.Arrive(now, job)
	if s.tracing {
		s.pending = engine.AppendArrival(s.pending, now, job, d)
	}
	if d.Scale.Dir != fleet.Hold {
		s.scaledLocked(d.Scale)
	}
	if d.Rejected {
		s.dropped++
		if s.met != nil {
			s.met.dropCounter(DropAdmission).Inc()
		}
		return 0, nil, fmt.Errorf("%w (%s: %s)", ErrAdmissionRejected, modelName, d.Detail)
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
	s.depthChangedLocked(r.Device)
	ch := make(chan outcome, 1)
	s.waiters[id] = ch
	if s.cfg.ArrivalRecorder != nil {
		s.cfg.ArrivalRecorder.Observe(id, modelName, now, deadlineMs)
	}
	// Broadcast, not Signal: only the placed lane's executor can run this
	// request, and Signal could wake a different one.
	s.cond.Broadcast()
	return id, ch, nil
}

// scaledLocked counts one autoscaler actuation: the gauge and the
// direction counter. After a scale-in the device's executors keep draining
// their queues and then idle; placement simply never targets them again.
// Caller holds s.mu.
func (s *Server) scaledLocked(sc engine.Scale) {
	if s.met == nil || s.met.fleetActive == nil {
		return
	}
	s.met.fleetActive.SetInt(sc.Active)
	if sc.Dir == fleet.ScaleIn {
		s.met.scaleIns.Inc()
	} else {
		s.met.scaleOuts.Inc()
	}
}

// setElastic tracks §3.3 elastic-mode transitions for the gauge and the
// event stream; depth is the fleet-wide queue depth the decision was made
// at. Caller holds s.mu.
func (s *Server) setElastic(nowMs float64, suppressed bool, depth int) {
	if s.met != nil {
		if suppressed {
			s.met.elastic.Set(1)
		} else {
			s.met.elastic.Set(0)
		}
	}
	if suppressed == s.elasticSuppressed {
		return
	}
	s.elasticSuppressed = suppressed
	kind := trace.ElasticOff
	if suppressed {
		kind = trace.ElasticOn
	}
	s.emit(trace.Event{AtMs: nowMs, Kind: kind, ReqID: -1,
		Detail: fmt.Sprintf("depth=%d", depth)})
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
		Busy:              s.anyBusyLocked(),
		Draining:          s.draining,
		Served:            s.served,
		Dropped:           s.dropped,
		ElasticSuppressed: s.elasticSuppressed,
		Requests:          make([]QueuedRequest, 0, depth),
	}
	for lane := 0; lane < s.eng.Lanes(); lane++ {
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
				InflightID: -1, BusyMsTotal: s.busyMs[lane]}
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
	}
	if !s.start.IsZero() {
		h.UptimeS = time.Since(s.start).Seconds()
	}
	if s.closed {
		h.Status = "stopped"
		if s.draining {
			h.Status = "draining"
		}
	}
	return h
}

// Responder is the RPC surface (§4.2 "Responder"): it accepts user
// requests, blocks until the scheduler completes or sheds them, and
// replies with the outcome. Each client connection gets its own Responder
// so that work submitted on a connection can be canceled when the
// connection is lost.
type Responder struct {
	srv *Server
	// mu guards calls: the requests submitted on this Responder's
	// connection whose outcomes have not yet been claimed.
	mu    sync.Mutex
	calls map[int]chan outcome
}

// newResponder builds the per-connection RPC handler.
func newResponder(s *Server) *Responder {
	return &Responder{srv: s, calls: make(map[int]chan outcome)}
}

func (r *Responder) track(id int, ch chan outcome) {
	r.mu.Lock()
	r.calls[id] = ch
	r.mu.Unlock()
}

func (r *Responder) untrack(id int) {
	r.mu.Lock()
	delete(r.calls, id)
	r.mu.Unlock()
}

// cancelOrphans cancels every request submitted on this Responder's
// connection that has not been delivered: the client is gone, so finishing
// its work would burn device time nobody will read.
func (r *Responder) cancelOrphans() {
	r.mu.Lock()
	ids := make([]int, 0, len(r.calls))
	for id := range r.calls {
		ids = append(ids, id)
	}
	r.calls = make(map[int]chan outcome)
	r.mu.Unlock()
	sort.Ints(ids) // deterministic cancel order for traces
	for _, id := range ids {
		r.srv.cancel(id, "connection lost")
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

// Infer runs one inference request to completion (or to a typed terminal
// error: deadline, cancellation, drain, stop, device fault).
func (r *Responder) Infer(args InferArgs, reply *InferReply) error {
	id, ch, err := r.srv.enqueue(args.Model, args.DeadlineMs)
	if err != nil {
		return err
	}
	r.track(id, ch)
	return r.claim(id, ch, reply)
}

// claim blocks until the tracked request id completes or is shed, forgets
// it, and fills reply from a completion.
func (r *Responder) claim(id int, ch chan outcome, reply *InferReply) error {
	out := <-ch
	r.untrack(id)
	if out.err != nil {
		return out.err
	}
	reply.fill(out.req)
	return nil
}

// SubmitReply reports the ID of an asynchronously submitted request.
type SubmitReply struct {
	ReqID int
}

// Submit enqueues a request and returns immediately with its ID; the
// client claims the outcome with Wait and may Cancel it meanwhile. The
// pending outcome is scoped to this connection: if the connection drops
// before Wait, the request is canceled.
func (r *Responder) Submit(args InferArgs, reply *SubmitReply) error {
	id, ch, err := r.srv.enqueue(args.Model, args.DeadlineMs)
	if err != nil {
		return err
	}
	r.track(id, ch)
	reply.ReqID = id
	return nil
}

// WaitArgs names the submitted request to wait for.
type WaitArgs struct {
	ReqID int
}

// Wait blocks until the submitted request completes or is shed, then
// reports the outcome. Waiting on an ID not submitted on this connection
// (or already claimed) is an error.
func (r *Responder) Wait(args WaitArgs, reply *InferReply) error {
	r.mu.Lock()
	ch := r.calls[args.ReqID]
	r.mu.Unlock()
	if ch == nil {
		return fmt.Errorf("serve: no pending request %d on this connection", args.ReqID)
	}
	return r.claim(args.ReqID, ch, reply)
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

// Cancel cancels a pending request: queued work is removed immediately,
// in-flight work stops at its next block boundary. The canceled request's
// Wait (or Infer) receives ErrCanceled.
func (r *Responder) Cancel(args CancelArgs, reply *CancelReply) error {
	reply.State = string(r.srv.Cancel(args.ReqID))
	return nil
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

// Stats reports server counters and the fleet shape.
func (r *Responder) Stats(_ struct{}, reply *StatsReply) error {
	r.srv.mu.Lock()
	defer r.srv.mu.Unlock()
	*reply = StatsReply{
		Served:    r.srv.served,
		Queued:    r.srv.eng.Depth(),
		Models:    len(r.srv.cfg.Catalog),
		Devices:   r.srv.eng.Devices(),
		Placement: r.srv.eng.Placement(),
	}
	if parts := r.srv.eng.Parts(); parts > 1 {
		reply.Partitions = parts
	}
	if !r.srv.start.IsZero() {
		reply.UptimeS = time.Since(r.srv.start).Seconds()
	}
	return nil
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

// ModelStats reports the per-model QoS digest (§5.2's metrics, live).
func (r *Responder) ModelStats(_ struct{}, reply *ModelStatsReply) error {
	r.srv.mu.Lock()
	defer r.srv.mu.Unlock()
	reply.Alpha = r.srv.cfg.Alpha
	names := make([]string, 0, len(r.srv.perModel))
	for name := range r.srv.perModel {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := r.srv.perModel[name]
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
	return nil
}

// Client is a thin wrapper over the rpc client. Every method but
// InferAsync goes through call, so every error it returns is decoded once:
// errors.Is works on typed outcomes across the wire.
type Client struct {
	rpc        *rpc.Client
	devices    int
	placement  string
	partitions int
}

// Dial connects to a SPLIT server and reads its fleet shape with one Stats
// call.
func Dial(addr string) (*Client, error) {
	rc, err := rpc.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{rpc: rc}
	st, err := c.Stats()
	if err != nil {
		rc.Close()
		return nil, fmt.Errorf("serve: dial %s: read fleet shape: %w", addr, err)
	}
	c.devices, c.placement, c.partitions = st.Devices, st.Placement, st.Partitions
	return c, nil
}

// call makes one RPC and decodes its error.
func (c *Client) call(method string, args, reply any) error {
	return fromWire(c.rpc.Call(method, args, reply))
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
	var reply InferReply
	err := c.call("SPLIT.Infer", InferArgs{Model: modelName, DeadlineMs: deadlineMs}, &reply)
	return reply, err
}

// InferAsync starts a request and returns the pending call. Its Error is
// raw; IsShed classifies it.
func (c *Client) InferAsync(modelName string) *rpc.Call {
	reply := new(InferReply)
	return c.rpc.Go("SPLIT.Infer", InferArgs{Model: modelName}, reply, nil)
}

// Submit enqueues a request and returns its ID without waiting.
func (c *Client) Submit(modelName string, deadlineMs float64) (int, error) {
	var reply SubmitReply
	err := c.call("SPLIT.Submit", InferArgs{Model: modelName, DeadlineMs: deadlineMs}, &reply)
	return reply.ReqID, err
}

// Wait claims the outcome of a submitted request.
func (c *Client) Wait(reqID int) (InferReply, error) {
	var reply InferReply
	err := c.call("SPLIT.Wait", WaitArgs{ReqID: reqID}, &reply)
	return reply, err
}

// Cancel cancels a pending request and reports what it found.
func (c *Client) Cancel(reqID int) (CancelState, error) {
	var reply CancelReply
	err := c.call("SPLIT.Cancel", CancelArgs{ReqID: reqID}, &reply)
	return CancelState(reply.State), err
}

// Stats fetches server counters and the fleet shape.
func (c *Client) Stats() (StatsReply, error) {
	var reply StatsReply
	err := c.call("SPLIT.Stats", struct{}{}, &reply)
	return reply, err
}

// ModelStats fetches the per-model QoS digest.
func (c *Client) ModelStats() (ModelStatsReply, error) {
	var reply ModelStatsReply
	err := c.call("SPLIT.ModelStats", struct{}{}, &reply)
	return reply, err
}

// Close tears down the connection.
func (c *Client) Close() error { return c.rpc.Close() }
