package serve

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"split/internal/engine"
	"split/internal/gpusim"
	"split/internal/model"
	"split/internal/obs"
	"split/internal/policy"
	"split/internal/trace"
)

// lifecycleCatalog: "work" = 3 x 20 ms blocks (60 ms), "solo" = one 30 ms
// block, "quick" = one 1 ms block. Blocks are tens of milliseconds so that
// deadline margins dwarf wall-clock scheduling jitter.
func lifecycleCatalog() policy.Catalog {
	graphs := map[string]*model.Graph{
		"work": {
			Name: "work", Domain: "t", Class: model.Long,
			Ops: []model.Op{
				{Name: "a", TimeMs: 20}, {Name: "b", TimeMs: 20}, {Name: "c", TimeMs: 20},
			},
		},
		"solo": {
			Name: "solo", Domain: "t", Class: model.Long,
			Ops: []model.Op{{Name: "x", TimeMs: 30}},
		},
		"quick": {
			Name: "quick", Domain: "t", Class: model.Short,
			Ops: []model.Op{{Name: "x", TimeMs: 1}},
		},
	}
	plans := map[string]*model.SplitPlan{
		"work": {Model: "work", Cuts: []int{1, 2}, BlockTimesMs: []float64{20, 20, 20}},
	}
	return policy.NewCatalog(graphs, plans)
}

// startLifecycle boots an instrumented server on the lifecycle catalog.
func startLifecycle(t *testing.T, mut func(*Config)) (*Server, *obs.Registry, *trace.Ring) {
	t.Helper()
	reg := obs.NewRegistry()
	ring := trace.NewRing(1024)
	cfg := Config{
		Knobs:     engine.Knobs{Alpha: 4},
		Catalog:   lifecycleCatalog(),
		TimeScale: 1,
		Obs:       reg,
		Sink:      ring,
	}
	if mut != nil {
		mut(&cfg)
	}
	srv, err := NewServer(cfg)
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
	return srv, reg, ring
}

// await reads an outcome with a hang guard.
func await(t *testing.T, ch chan outcome) outcome {
	t.Helper()
	select {
	case out := <-ch:
		return out
	case <-time.After(10 * time.Second):
		t.Fatal("no outcome within 10s")
		return outcome{}
	}
}

// waitBusy polls until a lane holds a granted block.
func waitBusy(t *testing.T, srv *Server) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if srv.QueueSnapshot().Busy {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no lane ever held a block")
}

// startBlocks counts StartBlock events for one request in the ring.
func startBlocks(ring *trace.Ring, id int) int {
	n := 0
	for _, e := range ring.Snapshot() {
		if e.Kind == trace.StartBlock && e.ReqID == id {
			n++
		}
	}
	return n
}

func dropCount(reg *obs.Registry, reason string) int64 {
	return reg.Counter(obs.MetricDropsTotal, "", "reason", reason).Value()
}

// TestExpiredQueuedNeverRunsBlock pins the tentpole invariant: a request
// whose deadline passes while it waits is shed at the next block boundary
// and never occupies the device.
func TestExpiredQueuedNeverRunsBlock(t *testing.T) {
	srv, reg, ring := startLifecycle(t, nil)
	_, blocker, err := srv.enqueue("work", 0)
	if err != nil {
		t.Fatal(err)
	}
	victimID, victim, err := srv.enqueue("work", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	out := await(t, victim)
	if !errors.Is(out.err, ErrDeadlineExceeded) {
		t.Fatalf("victim outcome: %v", out.err)
	}
	if out.req.Model != "" {
		t.Error("shed request delivered a completion")
	}
	if n := startBlocks(ring, victimID); n != 0 {
		t.Errorf("expired request ran %d blocks", n)
	}
	if got := dropCount(reg, DropDeadline); got != 1 {
		t.Errorf("deadline drops = %d, want 1", got)
	}
	var shedSeen bool
	for _, e := range ring.Snapshot() {
		if e.Kind == trace.Shed && e.ReqID == victimID && e.Detail() == DropDeadline {
			shedSeen = true
		}
	}
	if !shedSeen {
		t.Error("no shed event for the expired request")
	}
	if out := await(t, blocker); out.err != nil {
		t.Errorf("blocker failed: %v", out.err)
	}
}

// TestInflightDeadlineShedAtBoundary: a request whose deadline passes while
// it executes is stopped at the next block boundary, not run to completion.
// On the stepped clock the boundaries fall exactly at 20 and 40 ms.
func TestInflightDeadlineShedAtBoundary(t *testing.T) {
	ring := trace.NewRing(1024)
	srv, sim := startStepped(t, Config{Knobs: engine.Knobs{Alpha: 4}, Catalog: lifecycleCatalog(), Sink: ring})
	// Deadline 30 ms into a 3x20 ms plan: block 0 ends at 20 (alive), block
	// 1 at 40 (past the deadline) — shed there, block 2 must never run.
	got, errs := make(fates, 1), make([]error, 1)
	arriveAt(sim, srv, 0, "work", 30, got, errs, 0)
	sim.Run()
	if errs[0] != nil || !errors.Is(got[0].err, ErrDeadlineExceeded) {
		t.Fatalf("front door %v, outcome %v, want %v", errs[0], got[0].err, ErrDeadlineExceeded)
	}
	if n := startBlocks(ring, 0); n != 2 {
		t.Errorf("expired in-flight request ran %d blocks, want 2", n)
	}
	var shedAt []float64
	for _, e := range ring.Snapshot() {
		if e.Kind == trace.Shed {
			shedAt = append(shedAt, e.AtMs)
		}
	}
	if len(shedAt) != 1 || shedAt[0] != 40 {
		t.Errorf("shed at %v ms, want once at 40, the second block's boundary", shedAt)
	}
}

// TestPredictiveShed: with predictive shedding, a request that can no
// longer meet its deadline is shed before wasting any device time.
func TestPredictiveShed(t *testing.T) {
	srv, _, ring := startLifecycle(t, func(c *Config) { c.PredictiveShed = true })
	// 60 ms of work against a 30 ms deadline: doomed on arrival.
	id, ch, err := srv.enqueue("work", 30)
	if err != nil {
		t.Fatal(err)
	}
	out := await(t, ch)
	if !errors.Is(out.err, ErrDeadlineExceeded) {
		t.Fatalf("outcome: %v", out.err)
	}
	if n := startBlocks(ring, id); n != 0 {
		t.Errorf("doomed request ran %d blocks", n)
	}
}

// TestEnforceDeadlinesDerivesAlphaTarget: with EnforceDeadlines and no RPC
// override, the deadline is α·t_ext after arrival (the paper's QoS target).
func TestEnforceDeadlinesDerivesAlphaTarget(t *testing.T) {
	srv, _, _ := startLifecycle(t, func(c *Config) {
		c.EnforceDeadlines = true
		c.Alpha = 0.5 // target 0.5·60 = 30 ms: unmeetable for 60 ms of work
	})
	_, ch, err := srv.enqueue("work", 0)
	if err != nil {
		t.Fatal(err)
	}
	if out := await(t, ch); !errors.Is(out.err, ErrDeadlineExceeded) {
		t.Fatalf("outcome: %v", out.err)
	}
}

func TestCancelQueuedAndUnknown(t *testing.T) {
	srv, reg, _ := startLifecycle(t, nil)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a, err := c.Submit("work", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitBusy(t, srv)
	b, err := c.Submit("work", 0)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Cancel(b); err != nil || st != CancelQueued {
		t.Fatalf("cancel queued: %v %v", st, err)
	}
	if _, err := c.Wait(b); err == nil || !errContains(err, "canceled") {
		t.Errorf("canceled wait error: %v", err)
	}
	if st, err := c.Cancel(b); err != nil || st != CancelUnknown {
		t.Errorf("second cancel: %v %v", st, err)
	}
	if st, err := c.Cancel(9999); err != nil || st != CancelUnknown {
		t.Errorf("unknown cancel: %v %v", st, err)
	}
	if _, err := c.Wait(a); err != nil {
		t.Errorf("uncanceled request failed: %v", err)
	}
	if got := dropCount(reg, DropCanceled); got != 1 {
		t.Errorf("canceled drops = %d, want 1", got)
	}
}

func TestCancelInflightStopsAtBoundary(t *testing.T) {
	srv, _, ring := startLifecycle(t, nil)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, err := c.Submit("work", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitBusy(t, srv)
	st, err := c.Cancel(id)
	if err != nil || st != CancelInflight {
		t.Fatalf("cancel inflight: %v %v", st, err)
	}
	if _, err := c.Wait(id); err == nil || !errContains(err, "canceled") {
		t.Fatalf("canceled wait error: %v", err)
	}
	if n := startBlocks(ring, id); n >= 3 {
		t.Errorf("canceled request ran all %d blocks", n)
	}
	var cancelSeen bool
	for _, e := range ring.Snapshot() {
		if e.Kind == trace.Cancel && e.ReqID == id {
			cancelSeen = true
		}
	}
	if !cancelSeen {
		t.Error("no cancel event in the ring")
	}
}

// TestConnLossCancelsOrphans: requests on a connection that drops — one in
// flight, one queued — are canceled rather than left occupying the queue
// and device, whether they were submitted or are Infers still waiting.
func TestConnLossCancelsOrphans(t *testing.T) {
	for _, row := range []struct {
		name  string
		start func(c *Client) error
	}{
		{"Submit", func(c *Client) error {
			_, err := c.Submit("work", 0)
			return err
		}},
		{"InferAsync", func(c *Client) error {
			c.InferAsync("work")
			return nil
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			srv, reg, _ := startLifecycle(t, nil)
			c, err := Dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			if err := row.start(c); err != nil {
				t.Fatal(err)
			}
			waitBusy(t, srv)
			if err := row.start(c); err != nil {
				t.Fatal(err)
			}
			for i := 0; srv.QueueSnapshot().Depth != 1; i++ {
				if i == 2000 {
					t.Fatal("second request never queued")
				}
				time.Sleep(time.Millisecond)
			}
			c.Close()
			deadline := time.Now().Add(10 * time.Second)
			for dropCount(reg, DropCanceled) < 2 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if got := dropCount(reg, DropCanceled); got != 2 {
				t.Fatalf("canceled drops after connection loss = %d, want 2", got)
			}
			if h := srv.Health(); h.QueueDepth != 0 || h.Served != 0 {
				t.Errorf("orphaned work went on: depth=%d served=%d", h.QueueDepth, h.Served)
			}
		})
	}
}

// TestStopDeliversInflightCompletion pins the shutdown bugfix: a request
// whose final block completes during Stop is delivered to its client, not
// failed with a closed channel.
func TestStopDeliversInflightCompletion(t *testing.T) {
	srv, _, _ := startLifecycle(t, nil)
	_, ch, err := srv.enqueue("solo", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitBusy(t, srv)
	srv.Stop()
	out := await(t, ch)
	if out.err != nil {
		t.Fatalf("completion lost in shutdown: %v", out.err)
	}
	if out.req.Model != "solo" || !out.req.Finished() {
		t.Errorf("delivered request: %+v", out.req)
	}
	if h := srv.Health(); h.Served != 1 {
		t.Errorf("served = %d, want 1", h.Served)
	}
}

// TestStopShedsQueuedWork: Stop fails queued waiters with ErrStopped
// instead of leaving them hanging.
func TestStopShedsQueuedWork(t *testing.T) {
	srv, reg, _ := startLifecycle(t, nil)
	_, inflight, err := srv.enqueue("solo", 0)
	if err != nil {
		t.Fatal(err)
	}
	waitBusy(t, srv)
	_, queued, err := srv.enqueue("work", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv.Stop()
	if out := await(t, queued); !errors.Is(out.err, ErrStopped) {
		t.Errorf("queued outcome: %v", out.err)
	}
	if out := await(t, inflight); out.err != nil {
		t.Errorf("in-flight outcome: %v", out.err)
	}
	if got := dropCount(reg, DropStopped); got != 1 {
		t.Errorf("stopped drops = %d, want 1", got)
	}
}

// TestDrainCompletesBacklog: a drain with enough budget finishes every
// queued request and delivers every completion.
func TestDrainCompletesBacklog(t *testing.T) {
	srv, _, ring := startLifecycle(t, nil)
	var chans []chan outcome
	for i := 0; i < 3; i++ {
		_, ch, err := srv.enqueue("solo", 0)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	if shed := srv.Drain(10 * time.Second); shed != 0 {
		t.Fatalf("clean drain shed %d requests", shed)
	}
	for i, ch := range chans {
		if out := await(t, ch); out.err != nil || out.req.Model == "" {
			t.Errorf("request %d: %v", i, out.err)
		}
	}
	if h := srv.Health(); h.Status != "stopped" || h.Served != 3 {
		t.Errorf("health after drain = %+v", h)
	}
	var start, end bool
	for _, e := range ring.Snapshot() {
		switch e.Kind {
		case trace.DrainStart:
			start = true
		case trace.DrainEnd:
			end = true
		}
	}
	if !start || !end {
		t.Errorf("drain events: start=%v end=%v", start, end)
	}
}

// TestDrainTimeoutShedsRemainder: when the backlog outlives the drain
// budget, every still-queued request is shed with ErrDrained and the
// in-flight request is shed at its boundary; nothing hangs.
func TestDrainTimeoutShedsRemainder(t *testing.T) {
	srv, reg, _ := startLifecycle(t, nil)
	var chans []chan outcome
	for i := 0; i < 4; i++ {
		_, ch, err := srv.enqueue("work", 0)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	waitBusy(t, srv)
	shed := srv.Drain(5 * time.Millisecond)
	if shed != 3 {
		t.Errorf("drain shed %d queued requests, want 3", shed)
	}
	drained := 0
	for _, ch := range chans {
		out := await(t, ch)
		if out.err == nil {
			continue // the in-flight request may legitimately complete
		}
		if !errors.Is(out.err, ErrDrained) {
			t.Errorf("outcome: %v", out.err)
			continue
		}
		drained++
	}
	if drained < 3 {
		t.Errorf("%d requests drained, want >= 3", drained)
	}
	if got := dropCount(reg, DropDrained); int(got) != drained {
		t.Errorf("drained drops = %d, outcomes = %d", got, drained)
	}
}

// TestFaultRetryExhaustion: a block that keeps failing is retried within
// the budget, then the request is shed as a device fault.
func TestFaultRetryExhaustion(t *testing.T) {
	srv, reg, ring := startLifecycle(t, func(c *Config) {
		c.Faults = &gpusim.FaultInjector{Seed: 1, FailProb: 1, MaxRetries: 2}
	})
	id, ch, err := srv.enqueue("quick", 0)
	if err != nil {
		t.Fatal(err)
	}
	out := await(t, ch)
	if !errors.Is(out.err, ErrDeviceFault) {
		t.Fatalf("outcome: %v", out.err)
	}
	if got := reg.Counter(obs.MetricBlockRetries, "").Value(); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
	if got := dropCount(reg, DropDeviceFault); got != 1 {
		t.Errorf("device_fault drops = %d, want 1", got)
	}
	faults := 0
	for _, e := range ring.Snapshot() {
		if e.Kind == trace.Fault && e.ReqID == id {
			faults++
		}
	}
	if faults != 3 { // two transient retries + one terminal
		t.Errorf("fault events = %d, want 3", faults)
	}
}

// TestFaultSpikeStretchesBlock: a latency spike multiplies the block's
// device time but the request still completes.
func TestFaultSpikeStretchesBlock(t *testing.T) {
	srv, sim := startStepped(t, Config{Catalog: lifecycleCatalog(), Knobs: engine.Knobs{Alpha: 4,
		Faults: &gpusim.FaultInjector{Seed: 1, SpikeProb: 1, SpikeFactor: 5}}})
	got, errs := make(fates, 1), make([]error, 1)
	arriveAt(sim, srv, 0, "quick", 0, got, errs, 0)
	sim.Run()
	if errs[0] != nil || got[0].err != nil {
		t.Fatalf("front door %v, outcome %v", errs[0], got[0].err)
	}
	// The 1 ms block held the device 5 ms, and nothing else did.
	if e2e := got[0].req.E2EMs(); e2e != 5 {
		t.Errorf("e2e = %v ms, want 5 (spiked)", e2e)
	}
}

func errContains(err error, sub string) bool {
	return err != nil && strings.Contains(err.Error(), sub)
}

// drainClock is a stepClock that hands the test the timers made once the
// server is built instead of arming them on the sim: Drain's timeout, which
// Drain arms from its own goroutine. The test fires it while the sim stands
// still, so the server never reads the sim's clock while the test steps it.
type drainClock struct {
	stepClock
	built   bool
	timeout chan func()
}

func (c *drainClock) timer(fire func()) timer {
	if !c.built {
		return c.stepClock.timer(fire)
	}
	return lateTimer{fire, c.timeout}
}

type lateTimer struct {
	fire    func()
	timeout chan<- func()
}

func (t lateTimer) arm(float64) { t.timeout <- t.fire }

// TestEveryFateReleasesItsRequest holds the server to the simulator's
// request lifecycle: whatever its fate, every admitted request goes back
// to the engine once, when it meets it. Each row drives terminal paths on
// the stepped clock; once the server is idle, the engine must hold no
// request unreleased and none twice over, and no waiter or parked outcome
// may be left. Arrivals that file into got are numbered in arrival order,
// and want is their outcomes; a row's conn is a connection without a
// socket, whose replies pile up in its outbox.
func TestEveryFateReleasesItsRequest(t *testing.T) {
	type rig struct {
		srv  *Server
		sim  *gpusim.Sim
		clk  *drainClock
		got  fates
		errs []error
		n    int
		conn *Responder
	}
	// arrive plants an arrival that files into got.
	arrive := func(r *rig, at float64, model string, deadlineMs float64) {
		arriveAt(r.sim, r.srv, at, model, deadlineMs, r.got, r.errs, r.n)
		r.n++
	}
	// call plants an Infer (infer) or Submit arriving on conn as call seq.
	call := func(r *rig, at float64, model string, deadlineMs float64, seq uint64, infer bool) {
		r.sim.At(at, func(float64) {
			w := waiter{to: r.conn, seq: seq, attached: infer}
			if _, err := r.srv.arrive(model, deadlineMs, w, &outbound{}); err != nil {
				t.Errorf("call %d: %v", seq, err)
			}
		})
	}
	// shutDown runs Stop or Drain on a goroutine of its own, as a signal
	// handler would, and steps the sim whenever it waits for the lanes.
	shutDown := func(r *rig, at float64, drain func(*Server) int, timeoutAt float64) {
		r.sim.RunUntil(at)
		done := make(chan struct{})
		go func() {
			drain(r.srv)
			close(done)
		}()
		if timeoutAt == 0 {
			for r.srv.Health().Status == "ok" {
				time.Sleep(time.Millisecond)
			}
		} else {
			timeout := <-r.clk.timeout
			if timeoutAt > 0 {
				r.sim.RunUntil(timeoutAt)
				timeout()
				for r.srv.Health().Status == "draining" {
					time.Sleep(time.Millisecond)
				}
			}
		}
		r.sim.Run()
		<-done
	}
	stop := func(s *Server) int { s.Stop(); return 0 }
	drain := func(s *Server) int { return s.Drain(time.Hour) }
	served, deadline, canceled, fault := policy.OutcomeServed, DropDeadline, DropCanceled, DropDeviceFault
	for _, row := range []struct {
		name   string
		faults *gpusim.FaultInjector
		run    func(r *rig)
		want   []string
	}{
		{"served", nil, func(r *rig) {
			arrive(r, 0, "work", 0)
			arrive(r, 0, "quick", 0)
			arrive(r, 1, "solo", 0)
		}, []string{served, served, served}},
		{"deadline", nil, func(r *rig) {
			arrive(r, 0, "work", 30)  // in flight past its deadline: shed at 40
			arrive(r, 0, "work", 0.5) // queued past it: the sweep at 20 sheds it
		}, []string{deadline, deadline}},
		{"cancel", nil, func(r *rig) {
			arrive(r, 0, "work", 0)
			arrive(r, 0, "work", 0)
			r.sim.At(5, func(float64) {
				for _, id := range []int{1, 0, 7} { // queued, in flight, unknown
					r.srv.Cancel(id)
				}
			})
		}, []string{canceled, canceled}},
		{"fault", &gpusim.FaultInjector{Seed: 1, FailProb: 1, MaxRetries: 1}, func(r *rig) {
			arrive(r, 0, "quick", 0)
			arrive(r, 0, "quick", 0)
		}, []string{fault, fault}},
		{"stop", nil, func(r *rig) {
			arrive(r, 0, "work", 0)
			arrive(r, 0, "work", 0)
			arrive(r, 0, "solo", 0)
			shutDown(r, 5, stop, 0)
		}, []string{DropStopped, DropStopped, DropStopped}},
		{"drain", nil, func(r *rig) {
			arrive(r, 0, "work", 0)
			arrive(r, 0, "solo", 0)
			arrive(r, 0, "quick", 0)
			shutDown(r, 5, drain, -1)
		}, []string{served, served, served}},
		{"drain timeout", nil, func(r *rig) {
			arrive(r, 0, "work", 0)
			arrive(r, 0, "work", 0)
			arrive(r, 0, "work", 0)
			shutDown(r, 5, drain, 30)
		}, []string{DropDrained, DropDrained, DropDrained}},
		{"parked", nil, func(r *rig) {
			call(r, 0, "solo", 0, 1, false)  // served at 30, before its Wait
			call(r, 0, "work", 10, 2, false) // shed by the sweep at 30
			r.sim.Run()
			for seq := uint64(1); seq <= 2; seq++ {
				var args coder
				(&WaitArgs{ReqID: int(seq) - 1}).wire(&args)
				r.conn.wait(10+seq, args.buf)
			}
			replies := newFrameReader(bytes.NewReader(r.conn.out.buf))
			for seq, want := uint64(11), byte(replyOK); seq <= 12; seq, want = seq+1, replyErr {
				if got, kind, _, err := replies.next(); err != nil || got != seq || kind != want {
					t.Errorf("reply %d: seq %d, kind %d, %v; want kind %d", seq, got, kind, err, want)
				}
			}
		}, nil},
		{"hang-up", nil, func(r *rig) {
			call(r, 0, "quick", 0, 1, false) // served at 1 and parked
			call(r, 0, "work", 0, 2, true)   // in flight from 1
			call(r, 0, "work", 0, 3, false)  // queued
			r.sim.At(5, func(float64) { r.srv.hangUp(r.conn) })
			r.sim.Run()
			if n := len(r.conn.out.buf); n != 0 {
				t.Errorf("%d reply bytes framed for a connection that hung up", n)
			}
		}, nil},
	} {
		t.Run(row.name, func(t *testing.T) {
			sim := gpusim.New()
			clk := &drainClock{stepClock: stepClock{sim}, timeout: make(chan func(), 1)}
			srv := startOn(t, Config{Knobs: engine.Knobs{Alpha: 4, Faults: row.faults}, Catalog: lifecycleCatalog()}, sim, clk)
			clk.built = true
			r := &rig{srv: srv, sim: sim, clk: clk, got: make(fates, 4), errs: make([]error, 4), conn: &Responder{srv: srv}}
			row.run(r)
			sim.Run()
			for i, want := range row.want {
				if r.errs[i] != nil {
					t.Errorf("arrival %d: front door %v", i, r.errs[i])
				} else if o := outcomeOf(r.got[i].err); o != want {
					t.Errorf("arrival %d: %s, want %s", i, o, want)
				}
			}
			srv.mu.Lock()
			held, twice := srv.eng.Outstanding()
			waiters, parked := len(srv.waiters), len(srv.parked)
			srv.mu.Unlock()
			if held != 0 || twice != 0 {
				t.Errorf("idle engine: %d requests never released, %d released twice", held, twice)
			}
			if waiters != 0 || parked != 0 {
				t.Errorf("idle server: %d waiters and %d parked outcomes left", waiters, parked)
			}
		})
	}
}
