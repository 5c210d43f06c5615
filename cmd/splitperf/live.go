package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/rpc"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"split/internal/core"
	"split/internal/model"
	"split/internal/obs"
	"split/internal/policy"
	"split/internal/serve"
	"split/internal/stats"
	"split/internal/trace"
	"split/internal/workload"
	"split/internal/zoo"
)

// Default sizes of the live workloads; multiplied by env.scale.
const (
	// A pass of serve_saturate_tiny is 100,000 requests, about 1.5 s: six
	// passes fit the default budget, so the median over passes survives two
	// passes that the host disturbed.
	tinyRequests = 100_000
	tinyWarmup   = 50_000
	// callersPerConn is how many callers share one connection, each with
	// one Client.InferAsync call outstanding at a time.
	callersPerConn = 32
	tinyTimeScale  = 0.001
	// tinyTargetMs stands in for the RR <= 4 target on serve_saturate_tiny,
	// whose response ratio is taken against the pass's own mean latency and
	// so says nothing about a target.
	tinyTargetMs = 10

	// serve_open_zoo is sized for a steady tail, not for a small fleet: 64
	// round-robin devices are 64 independent queues, and 30,000 arrivals are
	// one pass of 8.8 s. At 16 devices and 5000 arrivals rr_p99 moved by a
	// third between seeds.
	zooArrivals = 30_000
	// zooSegments cuts a pass into runs of consecutive arrivals; the pass's
	// quality is the median over them. One host stall ruins the tail of the
	// segment it hits, and five others outvote it. Queues carry over from
	// one segment to the next, so only the first starts empty.
	zooSegments = 6
	// zooReducedDiv divides the schedule for the warm-up and traced passes.
	zooReducedDiv = 4
	zooDevices    = 64
	zooTimeScale  = 0.5
	zooLoad       = 0.75
	// drainTimeout bounds the clean drain every live workload ends with.
	drainTimeout = 10 * time.Second
)

// liveServer is an in-process serve.Server on a loopback port with its
// client connections.
type liveServer struct {
	srv       *serve.Server
	clients   []*serve.Client
	catalog   policy.Catalog
	timeScale float64
	// okTotal counts every request a client saw served, over the server's
	// whole life; close compares it with the server's own counter.
	okTotal int
	// goroutinesPeak is the most goroutines seen at any open-loop send.
	goroutinesPeak int
	// startMs, dialMs and drainMs are how long starting the server, dialling
	// the connections and the final drain took.
	startMs, dialMs, drainMs float64
}

// msSince is the wall milliseconds since start.
func msSince(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// startServer builds and starts the server, then dials conns connections.
func startServer(e *env, catalog policy.Catalog, timeScale float64, conns int, opts ...serve.Option) (*liveServer, error) {
	ls := &liveServer{catalog: catalog, timeScale: timeScale}
	var err error
	began := time.Now()
	e.spans.in("serve.start", func() {
		ls.srv, err = serve.New(catalog, append([]serve.Option{serve.WithTimeScale(timeScale)}, opts...)...)
		if err != nil {
			return
		}
		var l net.Listener
		if l, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return
		}
		err = ls.srv.Start(l)
	})
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	ls.startMs = msSince(began)
	began = time.Now()
	e.spans.in("serve.dial", func() {
		for i := 0; i < conns && err == nil; i++ {
			var c *serve.Client
			if c, err = serve.Dial(ls.srv.Addr()); err == nil {
				ls.clients = append(ls.clients, c)
			}
		}
	})
	if err != nil {
		ls.srv.Stop()
		return nil, fmt.Errorf("dial: %w", err)
	}
	ls.dialMs = msSince(began)
	return ls, nil
}

// close checks the server's served counter against the clients' and drains
// it; a drain that has to shed anything is a failure.
func (ls *liveServer) close() error {
	st, statsErr := ls.clients[0].Stats()
	for _, c := range ls.clients {
		c.Close()
	}
	start := time.Now()
	shed := ls.srv.Drain(drainTimeout)
	ls.drainMs = msSince(start)
	switch {
	case statsErr != nil:
		return fmt.Errorf("stats: %w", statsErr)
	case st.Served != ls.okTotal:
		return fmt.Errorf("server counts %d served, clients saw %d", st.Served, ls.okTotal)
	case shed != 0:
		return fmt.Errorf("drain shed %d requests, want a clean drain", shed)
	}
	return nil
}

// liveSample is one request as its client saw it. Times are offsets from
// the pass's start.
type liveSample struct {
	model string
	// due is when the schedule wanted the request sent (open loop); equal
	// to sent in a closed loop, whose callers have no schedule.
	due, sent, replied time.Duration
	reply              serve.InferReply
	err                error
}

// latMs is the latency a user of the schedule saw: from the due time, so
// a stalled sender cannot hide the wait it imposed on later requests.
func (s *liveSample) latMs() float64 {
	return float64(s.replied-s.due) / float64(time.Millisecond)
}

// finish waits for an InferAsync call and files its outcome.
func (s *liveSample) finish(call *rpc.Call, start time.Time) {
	<-call.Done
	s.replied = time.Since(start)
	s.err = call.Error
	if s.err == nil {
		s.reply = *call.Reply.(*serve.InferReply)
	}
}

// spans records one request's spans under parent: the request from due to
// replied, how late it was sent, its time in flight, and inside that the
// wait and execution the server reported (laid out from the send; what is
// left of the flight is RPC, locking and delivery).
func (s *liveSample) spans(l *spanLog, parent, req int, start time.Time, timeScale float64) {
	if l == nil {
		return
	}
	at := func(d time.Duration) time.Time { return start.Add(d) }
	root := l.add(parent, req, "request", at(s.due), at(s.replied))
	if s.sent > s.due {
		l.add(root, req, "loadgen.late", at(s.due), at(s.sent))
	}
	flight := l.add(root, req, "inflight", at(s.sent), at(s.replied))
	if s.err != nil {
		return
	}
	wall := func(virtualMs float64) time.Duration {
		return time.Duration(virtualMs * timeScale * float64(time.Millisecond))
	}
	waitEnd := s.sent + wall(s.reply.WaitMs)
	execEnd := s.sent + wall(s.reply.E2EMs)
	if execEnd > s.replied {
		execEnd = s.replied
	}
	if waitEnd > execEnd {
		waitEnd = execEnd
	}
	l.add(flight, req, "server.wait", at(s.sent), at(waitEnd))
	l.add(flight, req, "server.exec", at(waitEnd), at(execEnd))
}

// closedLoop issues len(models) requests from callers callers on every
// connection; each caller sends its next request when the previous one has
// been answered. models[i] is request i's model.
func (ls *liveServer) closedLoop(e *env, models []string, callers int) []liveSample {
	samples := make([]liveSample, len(models))
	parent := e.spans.current()
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range ls.clients {
		for k := 0; k < callers; k++ {
			wg.Add(1)
			go func(c *serve.Client) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(samples) {
						return
					}
					s := &samples[i]
					s.model = models[i]
					s.sent = time.Since(start)
					s.due = s.sent
					s.finish(c.InferAsync(s.model), start)
					s.spans(e.spans, parent, i, start, ls.timeScale)
				}
			}(c)
		}
	}
	wg.Wait()
	return samples
}

// issueFunc starts request i and returns the function that waits for it.
type issueFunc func(i int) (wait func())

// openLoop sends request i at start+due[i] whatever happened to the ones
// before it: one sender sleeps until the next due time, sends everything
// that is due, and never waits for a reply. It returns when every request
// has been answered. due must be ascending. sent[i] receives the actual
// send time as an offset from start.
func openLoop(start time.Time, due []time.Duration, sent []time.Duration, issue issueFunc) {
	var wg sync.WaitGroup
	for i := range due {
		if d := due[i] - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		sent[i] = time.Since(start)
		wait := issue(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			wait()
		}()
	}
	wg.Wait()
}

// replay sends the arrival schedule to the server, open loop, alternating
// over the connections. A trace millisecond lasts timeScale wall
// milliseconds.
func (ls *liveServer) replay(e *env, arrivals []workload.Arrival) []liveSample {
	samples := make([]liveSample, len(arrivals))
	due := make([]time.Duration, len(arrivals))
	sent := make([]time.Duration, len(arrivals))
	for i, a := range arrivals {
		samples[i].model = a.Model
		due[i] = time.Duration(a.AtMs * ls.timeScale * float64(time.Millisecond))
	}
	parent := e.spans.current()
	start := time.Now()
	openLoop(start, due, sent, func(i int) func() {
		if n := runtime.NumGoroutine(); n > ls.goroutinesPeak {
			ls.goroutinesPeak = n
		}
		call := ls.clients[i%len(ls.clients)].InferAsync(samples[i].model)
		return func() {
			s := &samples[i]
			s.due, s.sent = due[i], sent[i]
			s.finish(call, start)
			s.spans(e.spans, parent, i, start, ls.timeScale)
		}
	})
	return samples
}

// tally checks every sample — one reply or one typed shed each, and a
// reply that agrees with the catalog — and counts them.
func (ls *liveServer) tally(samples []liveSample) (served, failed int, err error) {
	for i := range samples {
		s := &samples[i]
		switch {
		case s.err == nil:
			info := ls.catalog[s.model]
			if s.reply.Model != s.model || s.reply.ExtMs != info.ExtMs {
				return 0, 0, fmt.Errorf("request %d: reply (%s, ext %v ms) does not match the catalog (%s, ext %v ms)",
					i, s.reply.Model, s.reply.ExtMs, s.model, info.ExtMs)
			}
			served++
		case serve.IsShed(s.err):
		default:
			failed++
			err = errors.Join(err, fmt.Errorf("request %d: %w", i, s.err))
		}
	}
	ls.okTotal += served
	if failed > 0 {
		return served, failed, fmt.Errorf("%d requests failed with untyped errors, first: %w", failed, err)
	}
	return served, 0, nil
}

// liveQoS summarizes one pass at the client. isolatedMs gives the wall
// milliseconds a model takes alone, the t_ext of its response ratio. A
// request meets its target when it was served with a response ratio of at
// most alpha; with targetMs > 0 the target is that latency instead.
func liveQoS(samples []liveSample, isolatedMs map[string]float64, short []string, targetMs float64) qos {
	lat := make([]float64, 0, len(samples))
	rr := make([]float64, 0, len(samples))
	byModel := make(map[string][]float64)
	ok := 0
	for i := range samples {
		s := &samples[i]
		if s.err != nil {
			continue
		}
		ms := s.latMs()
		ratio := ms / isolatedMs[s.model]
		lat = append(lat, ms)
		rr = append(rr, ratio)
		byModel[s.model] = append(byModel[s.model], ms)
		if (targetMs > 0 && ms <= targetMs) || (targetMs <= 0 && ratio <= alpha) {
			ok++
		}
	}
	jitter := make(map[string]float64, len(byModel))
	for m, xs := range byModel {
		jitter[m] = stats.StdDev(xs)
	}
	return newQoS(lat, rr, ok, len(samples), len(samples), shortJitterMs(jitter, short))
}

// tinyCatalog is serve_saturate_tiny's model set: a one-op model and a
// three-op model cut into three blocks, both with a service time so small
// that the program, not the simulated device, is the bottleneck.
func tinyCatalog() (policy.Catalog, error) {
	tiny := &model.Graph{Name: "tiny", Domain: "bench", Class: model.Short,
		Ops: []model.Op{{Name: "op", TimeMs: 0.01}}}
	tiny3 := &model.Graph{Name: "tiny3", Domain: "bench", Class: model.Short,
		Ops: []model.Op{{Name: "a", TimeMs: 0.02}, {Name: "b", TimeMs: 0.02}, {Name: "c", TimeMs: 0.02}}}
	plan, err := model.NewSplitPlan(tiny3, []int{1, 2}, model.DefaultCostModel())
	if err != nil {
		return nil, fmt.Errorf("split tiny3: %w", err)
	}
	return policy.NewCatalog(
		map[string]*model.Graph{"tiny": tiny, "tiny3": tiny3},
		map[string]*model.SplitPlan{"tiny3": plan}), nil
}

// tinyModelNames are both short-class, so both count towards jitter.
var tinyModelNames = []string{"tiny", "tiny3"}

// tinyModels draws n models, tiny to tiny3 three to one.
func tinyModels(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	models := make([]string, n)
	for i := range models {
		models[i] = "tiny"
		if rng.Intn(4) == 0 {
			models[i] = "tiny3"
		}
	}
	return models
}

// tinyRunner is serve_saturate_tiny: a closed loop against a server whose
// service time is about zero.
type tinyRunner struct {
	ls      *liveServer
	models  []string
	warmup  int
	samples []liveSample
}

func setupTiny(e *env, conns int, opts ...serve.Option) (*tinyRunner, error) {
	catalog, err := tinyCatalog()
	if err != nil {
		return nil, err
	}
	r := &tinyRunner{warmup: scaled(tinyWarmup, e.scale, 200)}
	e.spans.in("generate", func() { r.models = tinyModels(scaled(tinyRequests, e.scale, 1000), e.seed) })
	opts = append([]serve.Option{serve.WithDevices(2), serve.WithPlacement("least-loaded")}, opts...)
	r.ls, err = startServer(e, catalog, tinyTimeScale, conns, opts...)
	if err != nil {
		return nil, err
	}
	return r, nil
}

func (r *tinyRunner) pass(e *env) (passOut, error) {
	models := r.models
	if e.reduced {
		models = models[:r.warmup]
	}
	var cost heapCost
	e.spans.in("run", func() { cost = measured(func() { r.samples = r.ls.closedLoop(e, models, callersPerConn) }) })
	served, failed, err := r.ls.tally(r.samples)
	if err != nil {
		return passOut{}, err
	}
	return passOut{cost: cost, attempted: len(r.samples), served: served, failed: failed}, nil
}

func (r *tinyRunner) quality(e *env) (q qos, err error) {
	e.spans.in("summarize", func() { q = liveQoS(r.samples, meanLatencyMs(r.samples), tinyModelNames, tinyTargetMs) })
	return q, nil
}

// meanLatencyMs is each model's mean latency over the pass, which is what
// serve_saturate_tiny divides by in place of t_ext. The catalog's t_ext, 10
// ns of device time, is below anything the live path can resolve. And in a
// closed loop the mean latency is fixed by throughput (Little's law: callers
// / req_per_s), so dividing by it removes what req_per_s already says, and
// what a slow quarter of an hour on the host does to it, and leaves the
// shape of the distribution: how far the median sits under the mean and
// how far the tail reaches over it.
func meanLatencyMs(samples []liveSample) map[string]float64 {
	sum, n := map[string]float64{}, map[string]float64{}
	for i := range samples {
		if s := &samples[i]; s.err == nil {
			sum[s.model] += s.latMs()
			n[s.model]++
		}
	}
	for m := range sum {
		sum[m] /= n[m]
	}
	return sum
}

func (r *tinyRunner) close(*env) error { return r.ls.close() }

// zooRunner is serve_open_zoo: the five Table-1 models behind splitd's
// operator configuration, fed an arrival schedule.
type zooRunner struct {
	ls       *liveServer
	arrivals []workload.Arrival
	warmup   int
	rec      *workload.Recorder
	reg      *obs.Registry
	samples  []liveSample
}

// zooSchedule is one Poisson cohort, uniform over the five models, at
// zooLoad of the fleet's nominal capacity Devices / mean(ExtMs). Times are
// trace milliseconds; the server's TimeScale turns them into wall time.
func zooSchedule(catalog policy.Catalog, count int, seed int64) workload.CohortSetConfig {
	var ext []float64
	for _, m := range zoo.BenchmarkModels {
		ext = append(ext, catalog[m].ExtMs)
	}
	return workload.CohortSetConfig{
		Cohorts: []workload.Cohort{{
			Name:    "zoo",
			Models:  zoo.BenchmarkModels,
			Process: workload.Process{Kind: workload.ProcPoisson, MeanIntervalMs: stats.Mean(ext) / (zooDevices * zooLoad)},
		}},
		Count: count,
		Seed:  seed,
	}
}

func setupZoo(e *env, arrivals int) (*zooRunner, error) {
	var dep *core.Deployment
	var err error
	e.spans.in("deploy", func() { dep, err = core.DefaultPipeline().Deploy() })
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	r := &zooRunner{warmup: arrivals / zooReducedDiv, rec: workload.NewRecorder(), reg: obs.NewRegistry()}
	cfg := zooSchedule(dep.Catalog, arrivals, e.seed)
	var generated []workload.Arrival
	e.spans.in("generate", func() { generated, err = workload.GenerateCohorts(cfg) })
	if err != nil {
		return nil, fmt.Errorf("generate schedule: %w", err)
	}
	// The schedule takes the trace path a recorded production trace would.
	var file bytes.Buffer
	e.spans.in("trace.write", func() {
		err = workload.WriteTrace(&file, workload.TraceHeader{
			Count: len(generated), Seed: e.seed, ConfigHash: workload.ConfigHash(cfg), Source: "generate",
		}, generated)
	})
	if err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	e.spans.in("trace.read", func() { _, r.arrivals, err = workload.ReadTrace(&file) })
	if err != nil {
		return nil, fmt.Errorf("read trace: %w", err)
	}
	if len(r.arrivals) != len(generated) {
		return nil, fmt.Errorf("trace round trip kept %d of %d arrivals", len(r.arrivals), len(generated))
	}
	r.ls, err = startServer(e, dep.Catalog, zooTimeScale, senders(),
		serve.WithDevices(zooDevices), serve.WithObs(r.reg),
		serve.WithSink(trace.NewRing(4096)), serve.WithArrivalRecorder(r.rec))
	if err != nil {
		return nil, err
	}
	return r, nil
}

func (r *zooRunner) pass(e *env) (passOut, error) {
	arrivals := r.arrivals
	if e.reduced {
		arrivals = arrivals[:r.warmup]
	}
	var cost heapCost
	e.spans.in("run", func() { cost = measured(func() { r.samples = r.ls.replay(e, arrivals) }) })
	served, failed, err := r.ls.tally(r.samples)
	if err != nil {
		return passOut{}, err
	}
	// Nothing sheds on this configuration, so a shed is a failure too.
	failed += len(r.samples) - served
	out := passOut{cost: cost, attempted: len(r.samples), served: served, failed: failed}
	for i := range r.samples {
		s := &r.samples[i]
		out.lateMs = append(out.lateMs, float64(s.sent-s.due)/float64(time.Millisecond))
	}
	return out, nil
}

func (r *zooRunner) quality(e *env) (q qos, err error) {
	e.spans.in("summarize", func() {
		isolatedMs := r.isolatedMs()
		segments := make([]qos, zooSegments)
		for k := range segments {
			lo, hi := k*len(r.samples)/zooSegments, (k+1)*len(r.samples)/zooSegments
			segments[k] = liveQoS(r.samples[lo:hi], isolatedMs, shortModels, 0)
		}
		q = medianQoS(segments)
	})
	return q, nil
}

// isolatedMs is each zoo model's t_ext in wall milliseconds: the catalog's
// isolated execution time at the server's TimeScale.
func (r *zooRunner) isolatedMs() map[string]float64 {
	out := make(map[string]float64, len(r.ls.catalog))
	for name, info := range r.ls.catalog {
		out[name] = info.ExtMs * r.ls.timeScale
	}
	return out
}

func (r *zooRunner) close(*env) error { return r.ls.close() }
