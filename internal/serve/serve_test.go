package serve

import (
	"context"
	"errors"
	"maps"
	"math"
	"net"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"split/internal/engine"
	"split/internal/metrics"
	"split/internal/model"
	"split/internal/obs"
	"split/internal/policy"
	"split/internal/sched"
	"split/internal/trace"
)

// testCatalog: "long" = 3 x 4 ms blocks (12 ms), "short" = 1 ms unsplit.
// Times are tiny so real-time tests stay fast even at TimeScale 1.
func testCatalog() policy.Catalog {
	graphs := map[string]*model.Graph{
		"long": {
			Name: "long", Domain: "t", Class: model.Long,
			Ops: []model.Op{
				{Name: "a", TimeMs: 4}, {Name: "b", TimeMs: 4}, {Name: "c", TimeMs: 4},
			},
		},
		"short": {
			Name: "short", Domain: "t", Class: model.Short,
			Ops: []model.Op{{Name: "x", TimeMs: 1}},
		},
	}
	plans := map[string]*model.SplitPlan{
		"long": {Model: "long", Cuts: []int{1, 2}, BlockTimesMs: []float64{4, 4, 4}},
	}
	return policy.NewCatalog(graphs, plans)
}

func startServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer(Config{
		Knobs:     engine.Knobs{Alpha: 4, Elastic: sched.DefaultElastic()},
		Catalog:   testCatalog(),
		TimeScale: 1,
	})
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
	t.Cleanup(srv.Stop)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(Config{}); err == nil {
		t.Error("empty catalog accepted")
	}
	srv, err := NewServer(Config{Catalog: testCatalog()})
	if err != nil {
		t.Fatal(err)
	}
	if srv.cfg.Alpha != 4 || srv.cfg.TimeScale != 1 {
		t.Errorf("defaults not applied: %+v", srv.cfg)
	}
	for want, cfg := range map[string]Config{
		"TimeScale must be finite, got NaN":  {TimeScale: math.NaN()},
		"TimeScale must be finite, got +Inf": {TimeScale: math.Inf(1)},
		"Alpha must be finite, got NaN":      {Knobs: engine.Knobs{Alpha: math.NaN()}},
		"Alpha must be finite, got +Inf":     {Knobs: engine.Knobs{Alpha: math.Inf(1)}},
	} {
		cfg.Catalog = testCatalog()
		if _, err := NewServer(cfg); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("NewServer with %s: error %v", want, err)
		}
	}
}

func TestInferSingle(t *testing.T) {
	_, c := startServer(t)
	reply, err := c.Infer("short")
	if err != nil {
		t.Fatal(err)
	}
	if reply.Model != "short" || reply.Blocks != 1 {
		t.Errorf("reply = %+v", reply)
	}
	if reply.E2EMs < 1 {
		t.Errorf("e2e %v below execution time", reply.E2EMs)
	}
	if reply.ResponseRatio < 1 {
		t.Errorf("rr = %v", reply.ResponseRatio)
	}
}

func TestInferSplitModel(t *testing.T) {
	_, c := startServer(t)
	reply, err := c.Infer("long")
	if err != nil {
		t.Fatal(err)
	}
	if reply.Blocks != 3 {
		t.Errorf("blocks = %d, want 3", reply.Blocks)
	}
	if reply.E2EMs < 12 {
		t.Errorf("e2e %v below 12 ms of block time", reply.E2EMs)
	}
}

func TestInferUnknownModel(t *testing.T) {
	_, c := startServer(t)
	if _, err := c.Infer("mystery"); err == nil {
		t.Error("unknown model served")
	}
}

func TestConcurrentShortPreemptsLong(t *testing.T) {
	_, c := startServer(t)
	var wg sync.WaitGroup
	var longReply, shortReply InferReply
	wg.Add(2)
	go func() {
		defer wg.Done()
		longReply, _ = c.Infer("long")
	}()
	go func() {
		defer wg.Done()
		// The short goes in concurrently; the scheduler should slot it at a
		// block boundary of the long rather than after all of it.
		shortReply, _ = c.Infer("short")
	}()
	wg.Wait()
	if longReply.Model != "long" || shortReply.Model != "short" {
		t.Fatalf("replies: %+v / %+v", longReply, shortReply)
	}
	// The short must not have waited for the whole long model: its e2e
	// should be well under long's 12 ms + own 1 ms.
	if shortReply.E2EMs >= 12 {
		t.Errorf("short e2e %v — no preemption happened", shortReply.E2EMs)
	}
}

func TestManyConcurrentRequestsAllComplete(t *testing.T) {
	_, c := startServer(t)
	const n = 30
	var wg sync.WaitGroup
	errs := make(chan error, n)
	var mu sync.Mutex
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		wg.Add(1)
		m := "short"
		if i%5 == 0 {
			m = "long"
		}
		go func(m string) {
			defer wg.Done()
			reply, err := c.Infer(m)
			if err != nil {
				errs <- err
				return
			}
			mu.Lock()
			if seen[reply.ReqID] {
				errs <- errDuplicate(reply.ReqID)
			}
			seen[reply.ReqID] = true
			mu.Unlock()
		}(m)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != n {
		t.Errorf("completed %d of %d", len(seen), n)
	}
}

type errDuplicate int

func (e errDuplicate) Error() string { return "duplicate request id" }

func TestStats(t *testing.T) {
	_, c := startServer(t)
	if _, err := c.Infer("short"); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Served < 1 || st.Models != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDoubleStartFails(t *testing.T) {
	srv, _ := startServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := srv.Start(l); err == nil {
		t.Error("second Start succeeded")
	}
}

func TestStopRejectsNewWork(t *testing.T) {
	srv, c := startServer(t)
	srv.Stop()
	if _, err := c.Infer("short"); err == nil {
		t.Error("stopped server served a request")
	}
	// Stop is idempotent.
	srv.Stop()
}

func TestTimeScaleAcceleration(t *testing.T) {
	srv, err := NewServer(Config{
		Catalog:   testCatalog(),
		TimeScale: 0.05, // 20x accelerated
	})
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
	defer srv.Stop()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reply, err := c.Infer("long")
	if err != nil {
		t.Fatal(err)
	}
	// Virtual time still reports ~12 ms even though wall time was ~0.6 ms.
	if reply.E2EMs < 12 || reply.E2EMs > 200 {
		t.Errorf("virtual e2e = %v", reply.E2EMs)
	}
}

// TestInferAsync pins the contract a raw InferAsync caller relies on: a
// served call's Reply is an *InferReply, and a queued call shed by Stop has
// an Error that IsShed recognizes.
func TestInferAsync(t *testing.T) {
	srv, _, _ := startLifecycle(t, func(c *Config) { c.TimeScale = 10 })
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	call := c.InferAsync("quick")
	<-call.Done
	if call.Error != nil {
		t.Fatal(call.Error)
	}
	if reply := call.Reply.(*InferReply); reply.Model != "quick" {
		t.Errorf("async reply = %+v", reply)
	}

	inflight := c.InferAsync("solo")
	waitBusy(t, srv)
	queued := c.InferAsync("work")
	for i := 0; srv.QueueSnapshot().Depth != 1; i++ {
		if i == 2000 {
			t.Fatal("the second call never queued")
		}
		time.Sleep(time.Millisecond)
	}
	srv.Stop()
	<-queued.Done
	if !IsShed(queued.Error) {
		t.Errorf("queued call shed by Stop: IsShed(%v) = false", queued.Error)
	}
	<-inflight.Done
	if inflight.Error != nil {
		t.Fatalf("in-flight call: %v", inflight.Error)
	}
	if reply := inflight.Reply.(*InferReply); reply.Model != "solo" {
		t.Errorf("in-flight reply = %+v", reply)
	}
}

func TestModelStats(t *testing.T) {
	_, c := startServer(t)
	for i := 0; i < 3; i++ {
		if _, err := c.Infer("short"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Infer("long"); err != nil {
		t.Fatal(err)
	}
	st, err := c.ModelStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Alpha != 4 {
		t.Errorf("alpha = %v", st.Alpha)
	}
	if len(st.Models) != 2 {
		t.Fatalf("%d model digests", len(st.Models))
	}
	if st.Models[0].Model != "long" || st.Models[0].Served != 1 {
		t.Errorf("long digest: %+v", st.Models[0])
	}
	short := st.Models[1]
	if short.Model != "short" || short.Served != 3 {
		t.Errorf("short digest: %+v", short)
	}
	if short.MeanRR < 1 || short.MaxRR < short.MeanRR {
		t.Errorf("short RR stats inconsistent: %+v", short)
	}
}

// unstartedServer builds a server whose clock is running but whose executor
// is not, so queue contents are deterministic for enqueue/snapshot tests.
func unstartedServer(t *testing.T, mut func(*Config)) *Server {
	t.Helper()
	cfg := Config{Knobs: engine.Knobs{Alpha: 4}, Catalog: testCatalog(), TimeScale: 1}
	if mut != nil {
		mut(&cfg)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Start the virtual clock without Start's listener/executor machinery:
	// enqueue rejects requests while the epoch is unset.
	srv.start = time.Now()
	return srv
}

// chanBox is an in-process outbox: the outcome goes to a channel.
type chanBox chan outcome

func (c chanBox) resolve(_ uint64, out outcome) { c <- out }

// enqueue is the in-process front door the tests drive: an Infer with no
// connection behind it, whose outcome arrives on the returned channel.
func (s *Server) enqueue(modelName string, deadlineMs float64) (int, chan outcome, error) {
	ch := make(chan outcome, 1)
	id, err := s.arrive(modelName, deadlineMs, waiter{to: chanBox(ch), attached: true}, &outbound{})
	return id, ch, err
}

func TestEnqueueBeforeStartRejected(t *testing.T) {
	srv, err := NewServer(Config{Catalog: testCatalog()})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.enqueue("short", 0); !errors.Is(err, ErrNotStarted) {
		t.Errorf("enqueue before Start: %v", err)
	}
	// The snapshot of a never-started server must not report zero-epoch
	// garbage uptimes.
	snap := srv.QueueSnapshot()
	if snap.NowMs != 0 {
		t.Errorf("NowMs = %v before Start, want 0", snap.NowMs)
	}
	if h := srv.Health(); h.UptimeS != 0 || h.Dropped != 1 {
		t.Errorf("health = %+v", h)
	}
}

func TestTypedRejectionErrors(t *testing.T) {
	srv := unstartedServer(t, func(c *Config) { c.MaxQueue = 1 })
	if _, _, err := srv.enqueue("mystery", 0); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("unknown model: %v", err)
	}
	if _, _, err := srv.enqueue("long", 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.enqueue("short", 0); !errors.Is(err, ErrQueueFull) {
		t.Errorf("full queue: %v", err)
	}
	srv.Stop()
	if _, _, err := srv.enqueue("short", 0); !errors.Is(err, ErrStopped) {
		t.Errorf("stopped server: %v", err)
	}
	// Drops: mystery, queue-full short, the queued long shed by Stop, and
	// the post-stop short.
	h := srv.Health()
	if h.Status != "stopped" || h.Dropped != 4 {
		t.Errorf("health = %+v", h)
	}
}

func TestDropsCountedByReason(t *testing.T) {
	reg := obs.NewRegistry()
	srv := unstartedServer(t, func(c *Config) { c.MaxQueue = 1; c.Obs = reg })
	srv.enqueue("mystery", 0)
	srv.enqueue("long", 0)
	srv.enqueue("short", 0)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`split_drops_total{reason="unknown_model"} 1`,
		`split_drops_total{reason="queue_full"} 1`,
		`split_drops_total{reason="stopped"} 0`,
		`split_requests_total{model="long"} 1`,
		`split_queue_depth 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

func TestElasticSuppressionObserved(t *testing.T) {
	reg := obs.NewRegistry()
	ring := trace.NewRing(32)
	srv := unstartedServer(t, func(c *Config) {
		c.Obs = reg
		c.Sink = ring
		c.Elastic = sched.Elastic{Enabled: true, HighLoadQueueLen: 2}
	})
	srv.enqueue("long", 0)
	srv.enqueue("long", 0)
	// Queue now holds 2 requests: the elastic trigger fires for the third.
	if _, _, err := srv.enqueue("long", 0); err != nil {
		t.Fatal(err)
	}
	snap := srv.QueueSnapshot()
	if !snap.ElasticSuppressed {
		t.Error("elastic suppression not reflected in snapshot")
	}
	if last := snap.Requests[len(snap.Requests)-1]; last.BlocksTotal != 1 {
		t.Errorf("suppressed request has %d blocks, want 1 (unsplit)", last.BlocksTotal)
	}
	if g := reg.Gauge(obs.MetricElasticSuppress, ""); g.Value() != 1 {
		t.Errorf("elastic gauge = %v, want 1", g.Value())
	}
	var sawOn bool
	for _, e := range ring.Snapshot() {
		if e.Kind == trace.ElasticOn {
			sawOn = true
		}
	}
	if !sawOn {
		t.Error("no elastic_on event in the ring")
	}
}

func TestQueueSnapshotContents(t *testing.T) {
	srv := unstartedServer(t, nil)
	srv.enqueue("long", 0)
	srv.enqueue("short", 0)
	snap := srv.QueueSnapshot()
	if snap.Depth != 2 || len(snap.Requests) != 2 || snap.Alpha != 4 {
		t.Fatalf("snapshot = %+v", snap)
	}
	// The short bubbles ahead of the long (Algorithm 1).
	if snap.Requests[0].Model != "short" || snap.Requests[0].Pos != 0 {
		t.Errorf("front = %+v", snap.Requests[0])
	}
	long := snap.Requests[1]
	if long.Model != "long" || long.BlocksTotal != 3 || long.BlocksDone != 0 || long.Class != model.Long {
		t.Errorf("long = %+v", long)
	}
	if long.CurrentRR <= 0 || long.WaitedMs < 0 {
		t.Errorf("long live QoS: %+v", long)
	}
}

// TestLiveMetricsEndToEnd drives real RPC traffic through an instrumented
// server and checks counters, histograms, the event ring, and — the
// acceptance criterion — that the live rolling violation rate equals
// metrics.ViolationRate computed offline over the same completions.
func TestLiveMetricsEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	ring := trace.NewRing(1024)
	srv, err := NewServer(Config{
		Knobs:     engine.Knobs{Alpha: 4, Elastic: sched.DefaultElastic()},
		Catalog:   testCatalog(),
		TimeScale: 0.05,
		Obs:       reg,
		Sink:      ring,
	})
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
	defer srv.Stop()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var clientRecs []policy.Record
	for i := 0; i < 8; i++ {
		m := "short"
		if i%2 == 0 {
			m = "long"
		}
		reply, err := c.Infer(m)
		if err != nil {
			t.Fatal(err)
		}
		clientRecs = append(clientRecs, policy.Record{
			ID: reply.ReqID, Model: reply.Model,
			DoneMs: reply.E2EMs, ExtMs: reply.ExtMs,
		})
	}

	snap := srv.QueueSnapshot()
	if snap.QoS.Window != 8 || snap.Served != 8 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if want := metrics.ViolationRate(clientRecs, 4); snap.QoS.ViolationRate != want {
		t.Errorf("live violation rate %v != offline %v", snap.QoS.ViolationRate, want)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`split_requests_total{model="long"} 4`,
		`split_requests_total{model="short"} 4`,
		`split_completions_total{model="long"} 4`,
		`split_completions_total{model="short"} 4`,
		"split_e2e_ms_count 8",
		"split_wait_ms_count 8",
		"split_response_ratio_count 8",
		"split_queue_depth 0",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}

	kinds := map[trace.EventKind]int{}
	for _, e := range ring.Snapshot() {
		kinds[e.Kind]++
	}
	if kinds[trace.Arrive] != 8 || kinds[trace.Complete] != 8 {
		t.Errorf("event kinds = %v", kinds)
	}
	// 4 long × 3 blocks + 4 short × 1 block = 16 block executions.
	if kinds[trace.StartBlock] != 16 || kinds[trace.EndBlock] != 16 {
		t.Errorf("block events = %v", kinds)
	}
}

// TestHoldLabelsCached: an executor builds a hold's profiler context once
// per (model, block) and reuses it, and the cached context carries exactly
// the labels the per-hold construction did.
func TestHoldLabelsCached(t *testing.T) {
	idle := pprof.WithLabels(context.Background(), pprof.Labels("subsystem", "executor", "device", "1"))
	holds := map[holdKey]context.Context{}
	ctx := holdLabels(idle, holds, "vgg19", 2)
	if holdLabels(idle, holds, "vgg19", 2) != ctx {
		t.Error("a second hold of the same block built a new context")
	}
	if holdLabels(idle, holds, "vgg19", 3) == ctx || holdLabels(idle, holds, "ner", 2) == ctx {
		t.Error("different holds share a context")
	}
	labels := func(ctx context.Context) map[string]string {
		m := map[string]string{}
		pprof.ForLabels(ctx, func(k, v string) bool { m[k] = v; return true })
		return m
	}
	perHold := pprof.WithLabels(idle, pprof.Labels("phase", "exec", "model", "vgg19", "block", "2"))
	want := map[string]string{"subsystem": "executor", "device": "1", "phase": "exec", "model": "vgg19", "block": "2"}
	if got := labels(ctx); !maps.Equal(got, labels(perHold)) || !maps.Equal(got, want) {
		t.Errorf("cached labels %v, per-hold labels %v", got, labels(perHold))
	}
}
