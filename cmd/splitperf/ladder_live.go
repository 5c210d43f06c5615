package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"split/internal/metrics"
	"split/internal/obs"
	"split/internal/policy"
	"split/internal/serve"
	"split/internal/stats"
	"split/internal/trace"
	"split/internal/zoo"
)

// Default sizes of the live rungs; multiplied by env.scale.
const (
	ladderRTTs      = 400    // serial round trips per RPC kind
	ladderSaturate  = 40_000 // requests per closed-loop point
	ladderIdlePerM  = 5      // serial zoo requests per model
	ladderOpenZoo   = 5000   // arrivals of the open-loop rung
	ladderStartDial = 5      // servers started and dialled
)

// liveRungs measure the instrumentation and the live path.
var liveRungs = []rung{
	{"obs", rungObs},
	{"serve.lifecycle", rungLifecycle},
	{"serve.rtt", rungRTT},
	{"serve.concurrency", rungConcurrency},
	{"serve.idle_zoo", rungIdleZoo},
	{"serve.open_zoo", rungOpenZoo},
}

func rungObs(l *ladder) {
	reg := obs.NewRegistry()
	counter := reg.Counter(obs.MetricPreemptions, "bench")
	l.set("obs.counter_ns", l.perOp(l.n(4096), nil, func(int) { counter.Inc() }))
	hist := reg.Histogram(obs.MetricWaitMs, "bench", obs.DefaultLatencyBuckets())
	l.set("obs.histogram_ns", l.perOp(l.n(4096), nil, func(i int) { hist.Observe(float64(i % 500)) }))

	rec := policy.Record{Model: "vgg19", ArriveMs: 0, StartMs: 5, DoneMs: 80, ExtMs: 67.5}
	rolling := obs.NewRollingQoS(alpha, 0)
	l.set("obs.qos_observe_ns", l.perOp(l.n(4096), nil, func(int) { rolling.Observe(rec) }))
	series := obs.NewTimeSeries(alpha, 0, 0, zooDevices)
	l.set("obs.timeseries_observe_ns", l.perOp(l.n(4096), nil, func(i int) {
		rec.DoneMs = float64(i)
		series.ObserveOutcome(rec)
	}))
}

// rungLifecycle times bringing a server up and connecting to it once.
func rungLifecycle(l *ladder) {
	catalog, err := tinyCatalog()
	if err != nil {
		l.fail(err)
		return
	}
	var startMs, dialMs []float64
	for i := 0; i < l.n(ladderStartDial); i++ {
		ls, err := startServer(&env{}, catalog, tinyTimeScale, 1, serve.WithDevices(2))
		if err != nil {
			l.fail(err)
			return
		}
		startMs, dialMs = append(startMs, ls.startMs), append(dialMs, ls.dialMs)
		l.fail(ls.close())
	}
	l.set("serve.start_ms", median(startMs))
	l.set("serve.dial_ms", median(dialMs))
}

// rungRTT makes serial calls to an idle server: nothing queues, so each
// round trip is the fixed cost of its RPC. Stats touches the server lock
// and nothing else, so it is the floor the scheduling calls stand on.
func rungRTT(l *ladder) {
	catalog, err := tinyCatalog()
	if err != nil {
		l.fail(err)
		return
	}
	ls, err := startServer(&env{}, catalog, tinyTimeScale, 1, serve.WithDevices(2), serve.WithPlacement("least-loaded"))
	if err != nil {
		l.fail(err)
		return
	}
	c := ls.clients[0]
	n := l.n(ladderRTTs)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	var statsUs, inferUs, submitUs, waitUs, cancelUs []float64
	for i := 0; i < n && l.err == nil; i++ {
		t0 := time.Now()
		_, err := c.Stats()
		t1 := time.Now()
		l.fail(err)
		_, err = c.Infer("tiny")
		t2 := time.Now()
		l.fail(err)
		id, err := c.Submit("tiny", 0)
		t3 := time.Now()
		l.fail(err)
		_, err = c.Wait(id)
		t4 := time.Now()
		l.fail(err)
		// The request is done, so this is the cost of a cancel that finds
		// nothing: RPC, lock, lookup.
		_, err = c.Cancel(id)
		t5 := time.Now()
		l.fail(err)
		statsUs = append(statsUs, us(t1.Sub(t0)))
		inferUs = append(inferUs, us(t2.Sub(t1)))
		submitUs = append(submitUs, us(t3.Sub(t2)))
		waitUs = append(waitUs, us(t4.Sub(t3)))
		cancelUs = append(cancelUs, us(t5.Sub(t4)))
	}
	ls.okTotal = 2 * n
	l.fail(ls.close())
	if l.err != nil {
		return
	}
	l.set("serve.stats_rtt_us", median(statsUs))
	l.set("serve.infer_rtt_us", median(inferUs))
	l.set("serve.submit_rtt_us", median(submitUs))
	l.set("serve.wait_rtt_us", median(waitUs))
	l.set("serve.cancel_rtt_us", median(cancelUs))
	l.set("serve.sched_share", (median(inferUs)-median(statsUs))/median(inferUs))
}

// saturate runs one closed-loop point against a fresh tiny server and
// returns requests completed per wall second.
func (l *ladder) saturate(conns, callers, requests int, opts ...serve.Option) float64 {
	t, err := setupTiny(&env{seed: l.e.seed, scale: l.e.scale}, conns, opts...)
	if err != nil {
		l.fail(err)
		return 0
	}
	start := time.Now()
	samples := t.ls.closedLoop(&env{}, t.models[:requests], callers)
	wall := time.Since(start).Seconds()
	served, _, err := t.ls.tally(samples)
	l.fail(err)
	l.fail(t.ls.close())
	return float64(served) / wall
}

// rungConcurrency is the throughput curve over outstanding requests, and
// the price of the operator's instrumentation at its top.
func rungConcurrency(l *ladder) {
	requests := l.n(ladderSaturate)
	l.set("serve.rps.w1", l.saturate(1, 1, requests/16))
	l.set("serve.rps.w8", l.saturate(senders(), 8/senders(), requests/2))
	plain := l.saturate(senders(), callersPerConn, requests)
	instrumented := l.saturate(senders(), callersPerConn, requests,
		serve.WithObs(obs.NewRegistry()), serve.WithSink(trace.NewRing(4096)))
	l.set("serve.rps.w64", plain)
	l.set("obs.serve_overhead_frac", 1-instrumented/plain)
}

// rungIdleZoo sends the zoo models one at a time to an idle server at the
// open-loop workload's TimeScale. The ideal response ratio is 1; the excess
// is hold overshoot plus grant lag, which queueing then amplifies.
func rungIdleZoo(l *ladder) {
	ls, err := startServer(&env{}, l.dep.Catalog, zooTimeScale, 1, serve.WithDevices(zooDevices))
	if err != nil {
		l.fail(err)
		return
	}
	var rr []float64
	for i := 0; i < l.n(ladderIdlePerM); i++ {
		for _, m := range zoo.BenchmarkModels {
			reply, err := ls.clients[0].Infer(m)
			if err != nil {
				l.fail(err)
				break
			}
			rr = append(rr, reply.ResponseRatio)
			ls.okTotal++
		}
	}
	l.fail(ls.close())
	l.set("serve.rr_idle_p50", median(rr))
}

// rungOpenZoo is a short serve_open_zoo pass with everything around it
// measured: the generator's lateness, the server's own view of its queues,
// what the client sees beyond what the server reports, and the same
// arrivals replayed through the simulator.
func rungOpenZoo(l *ladder) {
	z, err := setupZoo(&env{seed: l.e.seed}, l.n(ladderOpenZoo))
	if err != nil {
		l.fail(err)
		return
	}
	out, err := z.pass(&env{})
	if err != nil {
		l.fail(err)
		z.ls.srv.Stop()
		return
	}
	live, _ := z.quality(&env{})

	late := sortedCopy(out.lateMs)
	l.set("loadgen.late_p50_ms", percentile(late, 50))
	l.set("loadgen.late_p99_ms", percentile(late, 99))

	var beyondServerMs []float64
	preemptions := 0
	for i := range z.samples {
		s := &z.samples[i]
		flightMs := float64(s.replied-s.sent) / float64(time.Millisecond)
		beyondServerMs = append(beyondServerMs, flightMs-s.reply.E2EMs*zooTimeScale)
		preemptions += s.reply.Preemptions
	}
	l.set("serve.client_minus_server_ms_p50", median(beyondServerMs))
	l.set("serve.preemptions_per_req", float64(preemptions)/float64(len(z.samples)))
	l.set("serve.jitter_short_ms", live.jitterShortMs)
	l.set("serve.goroutines_peak", float64(z.ls.goroutinesPeak))

	var depth, busy []float64
	for _, w := range z.ls.srv.TimeSeries().Windows {
		if w.MeanQueueDepth >= 0 {
			depth = append(depth, w.MeanQueueDepth)
		}
		busy = append(busy, stats.Mean(w.DeviceBusyFrac))
	}
	if len(depth) == 0 || len(busy) == 0 {
		l.fail(fmt.Errorf("server time series is empty after %d requests", len(z.samples)))
		return
	}
	l.set("serve.queue_depth_mean", stats.Mean(depth))
	l.set("serve.busy_frac_mean", stats.Mean(busy))

	l.set("obs.expose_ms", l.wall(3, func() { l.fail(z.reg.WritePrometheus(io.Discard)) })*1e3)

	// The simulator, given the arrivals the server recorded, should see the
	// same queues; the ratio of the two medians is what the live path adds.
	sim := policy.NewSplit()
	sim.Devices = zooDevices
	recs := sim.Run(z.rec.Trace(), z.ls.catalog, nil)
	rr := metrics.ResponseRatios(recs)
	sort.Float64s(rr)
	l.set("serve.sim_gap_rr_p50", live.rrP50/percentile(rr, 50))

	l.fail(z.ls.close())
	l.set("serve.drain_ms", z.ls.drainMs)
}
