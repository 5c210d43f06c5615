package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"

	"split/internal/core"
	"split/internal/fleet"
	"split/internal/gpusim"
	"split/internal/metrics"
	"split/internal/place"
	"split/internal/policy"
	"split/internal/sched"
	"split/internal/trace"
	"split/internal/workload"
	"split/internal/zoo"
)

// Default sizes of the simulator-side rungs; multiplied by env.scale.
const (
	ladderEvents   = 1_000_000 // gpusim event rungs
	ladderFeatures = 50_000    // arrivals behind the policy and trace rungs
	ladderTraceIO  = 5000      // arrivals written and read back
	chainTimers    = 64
)

// sinks keep measured results observable so the compiler cannot drop the
// calls that produced them.
var (
	sinkF float64
	sinkI int
	sinkB bool
	// sinkReq makes a request escape to the heap, as it does in a run.
	sinkReq *sched.Request
)

// simRungs measure the packages under the simulator, bottom up.
var simRungs = []rung{
	{"workload", rungWorkload},
	{"gpusim.events", rungEvents},
	{"gpusim.device", rungDevice},
	{"sched", rungSched},
	{"place", rungPlace},
	{"fleet", rungFleet},
	{"policy.systems", rungSystems},
	{"policy.features+trace", rungFeaturesTrace},
	{"metrics", rungMetrics},
}

func rungWorkload(l *ladder) {
	count := l.n(cohortArrivals)
	gen := l.wall(2, func() {
		if _, err := workload.GenerateCohorts(cohortMix(count, l.e.seed, false)); err != nil {
			l.fail(err)
		}
	})
	l.set("workload.gen_ns_per_arrival", gen*1e9/float64(count))

	small := workload.ForScenario(workload.Table2()[3], zoo.BenchmarkModels, l.e.seed)
	l.set("workload.gen_small_ns_per_arrival", l.perOp(4, nil, func(int) {
		arrivals, err := workload.Generate(small)
		if err != nil {
			l.fail(err)
		}
		sinkI += len(arrivals)
	})/float64(small.Count))

	arrivals, err := workload.GenerateCohorts(cohortMix(l.n(ladderTraceIO), l.e.seed, true))
	if err != nil {
		l.fail(err)
		return
	}
	var file bytes.Buffer
	l.set("workload.trace_write_ns_per_arrival", l.perOp(1, file.Reset, func(int) {
		if err := workload.WriteTrace(&file, workload.TraceHeader{Seed: l.e.seed, Source: "generate"}, arrivals); err != nil {
			l.fail(err)
		}
	})/float64(len(arrivals)))
	l.set("workload.trace_read_ns_per_arrival", l.perOp(1, nil, func(int) {
		_, back, err := workload.ReadTrace(bytes.NewReader(file.Bytes()))
		if err != nil || len(back) != len(arrivals) {
			l.fail(fmt.Errorf("read back %d of %d arrivals: %w", len(back), len(arrivals), err))
		}
	})/float64(len(arrivals)))
}

// rungEvents times the event core in the two shapes a simulator run can
// give it: every event scheduled up front (what RunWithStats does today:
// the heap is a million deep before the first event fires) and a few
// timers that re-arm themselves (the shape of a cursor-fed run: the heap
// stays as deep as the work in flight).
func rungEvents(l *ladder) {
	events := l.n(ladderEvents)
	noop := func(float64) {}
	preload := l.wall(2, func() {
		sim := gpusim.New()
		for i := 0; i < events; i++ {
			sim.At(float64(i), noop)
		}
		sinkF += sim.Run()
	})
	l.set("gpusim.preload_event_ns", preload*1e9/float64(events))

	chain := l.wall(2, func() {
		sim := gpusim.New()
		left := events
		var tick func(now float64)
		tick = func(float64) {
			if left > 0 {
				left--
				sim.After(1, tick)
			}
		}
		for i := 0; i < chainTimers; i++ {
			sim.After(float64(i)/chainTimers, tick)
		}
		sinkF += sim.Run()
	})
	l.set("gpusim.chain_event_ns", chain*1e9/float64(events))
}

func rungDevice(l *ladder) {
	dev := gpusim.NewDevicePool(gpusim.New(), 1, nil).Device(0)
	now := 0.0
	l.set("gpusim.device_hold_ns", l.perOp(l.n(4096), nil, func(int) {
		dev.Acquire(now)
		now += 2
		dev.Release(now)
	}))

	part := gpusim.NewDevicePool(gpusim.New(), 1, nil).Device(0)
	part.ConfigurePartitions(4)
	now = 0
	l.set("gpusim.partition_hold_ns", l.perOp(l.n(4096), nil, func(i int) {
		sinkF += part.AcquirePartition(now, i%4, 2)
		now += 2
		part.ReleasePartition(now, i%4)
	}))

	faults := &gpusim.FaultInjector{Seed: 7, SpikeProb: .01, SpikeFactor: 3, FailProb: .005, MaxRetries: 2}
	l.set("gpusim.fault_draw_ns", l.perOp(l.n(4096), nil, func(i int) {
		sinkF += faults.Draw(i, i%3, 0).SpikeFactor
	}))
}

// zooRequest builds a scheduler request for the i-th draw of a seeded mix
// of the five Table-1 models, with the block plan the deployment gives it.
func zooRequest(dep *core.Deployment, rng *rand.Rand, id int, arriveMs float64) *sched.Request {
	info := dep.Catalog[zoo.BenchmarkModels[rng.Intn(len(zoo.BenchmarkModels))]]
	return sched.NewRequest(id, info.Name, info.Class, arriveMs, info.ExtMs, dep.Catalog.BlocksFor(info.Name))
}

// zooQueue fills a fresh queue to the given depth through Algorithm 1.
func zooQueue(dep *core.Deployment, rng *rand.Rand, depth int) *sched.Queue {
	q := sched.NewQueue(alpha)
	for i := 0; i < depth; i++ {
		q.InsertGreedy(float64(i), zooRequest(dep, rng, i, float64(i)))
	}
	return q
}

func rungSched(l *ladder) {
	rng := rand.New(rand.NewSource(l.e.seed))
	info := l.dep.Catalog["vgg19"]
	blocks := l.dep.Catalog.BlocksFor("vgg19")
	n := l.n(4096)
	l.set("sched.new_request_ns", l.perOp(n, nil, func(i int) {
		sinkReq = sched.NewRequest(i, info.Name, info.Class, float64(i), info.ExtMs, blocks)
	}))
	cost := measured(func() {
		for i := 0; i < n; i++ {
			sinkReq = sched.NewRequest(i, info.Name, info.Class, float64(i), info.ExtMs, blocks)
		}
	})
	l.set("sched.new_request_allocs", float64(cost.mallocs)/float64(n))

	// Insertion at depth d: a batch inserts a few requests into a queue of
	// d, and the untimed preparation takes them out again.
	for _, d := range []struct{ depth, batch int }{{4, 4}, {64, 8}, {1024, 16}} {
		q := zooQueue(l.dep, rng, d.depth)
		fresh := make([]*sched.Request, d.batch)
		for i := range fresh {
			fresh[i] = zooRequest(l.dep, rng, d.depth+i, float64(d.depth))
		}
		l.set(fmt.Sprintf("sched.insert_ns.d%d", d.depth), l.perOp(d.batch, func() {
			for _, r := range fresh {
				q.Remove(r.ID)
			}
		}, func(i int) {
			sinkI += q.InsertGreedy(float64(d.depth), fresh[i])
		}))
	}

	const depth = 64
	q := zooQueue(l.dep, rng, depth)
	var popped []*sched.Request
	l.set("sched.pop_front_ns", l.perOp(depth/2, func() {
		for _, r := range popped {
			q.PushBack(r)
		}
		popped = popped[:0]
	}, func(int) {
		popped = append(popped, q.PopFront())
	}))

	q = zooQueue(l.dep, rng, depth)
	elastic := sched.DefaultElastic()
	l.set("sched.should_split_ns", l.perOp(l.n(1024), nil, func(i int) {
		sinkB = elastic.ShouldSplit(q, zoo.BenchmarkModels[i%len(zoo.BenchmarkModels)])
	}))

	// The common sweep finds nothing to shed: deadlines far in the future.
	for _, r := range q.Requests() {
		r.DeadlineMs = 1e9
	}
	l.set("sched.sweep_expired_ns.d64", l.perOp(l.n(256), nil, func(int) {
		sinkI += len(q.SweepExpired(depth, true))
	}))

	var removed *sched.Request
	l.set("sched.remove_ns.d64", l.perOp(1, func() {
		if removed != nil {
			q.PushBack(removed)
		}
	}, func(int) {
		removed = q.Remove(q.At(depth / 2).ID)
	}))

	// Batch formation with a run to find: three same-model, same-boundary
	// requests at the front of a queue of 64, a fourth as the granted head.
	planner := sched.BatchPlanner{Max: 4}
	yolo := l.dep.Catalog["yolov2"]
	newYolo := func(id int) *sched.Request {
		return sched.NewRequest(id, yolo.Name, yolo.Class, 0, yolo.ExtMs, l.dep.Catalog.BlocksFor(yolo.Name))
	}
	var queues []*sched.Queue
	var scratch []*sched.Request
	const formBatch = 8
	l.set("sched.form_batch_ns.d64", l.perOp(formBatch, func() {
		queues = queues[:0]
		for k := 0; k < formBatch; k++ {
			fq := sched.NewQueue(alpha)
			for i := 0; i < 3; i++ {
				fq.PushBack(newYolo(i))
			}
			for i := 3; i < depth; i++ {
				fq.PushBack(zooRequest(l.dep, rng, i, 0))
			}
			queues = append(queues, fq)
		}
	}, func(i int) {
		scratch = planner.FormInto(scratch[:0], queues[i], newYolo(depth), 0)
		sinkI += len(scratch)
	}))
}

// fleetLoads is a 16-lane load view with uneven backlogs.
func fleetLoads(rng *rand.Rand) []place.Load {
	loads := make([]place.Load, 16)
	for i := range loads {
		queued := rng.Intn(6)
		loads[i] = place.Load{Device: i, Queued: queued, QueuedMs: float64(queued) * 25,
			InflightMs: rng.Float64() * 30, Busy: true}
	}
	return loads
}

func rungPlace(l *ladder) {
	rng := rand.New(rand.NewSource(l.e.seed))
	loads := fleetLoads(rng)
	reqs := make([]place.Request, 64)
	for i := range reqs {
		info := l.dep.Catalog[zoo.BenchmarkModels[rng.Intn(len(zoo.BenchmarkModels))]]
		reqs[i] = place.Request{ID: i, Model: info.Name, ExtMs: info.ExtMs, PlannedMs: info.ExtMs}
	}
	for _, name := range place.Names() {
		p, err := place.New(name, len(loads))
		if err != nil {
			l.fail(err)
			return
		}
		l.set("place.place_ns."+name+".l16", l.perOp(l.n(4096), nil, func(i int) {
			sinkI += p.Place(reqs[i%len(reqs)], loads)
		}))
	}
	inner, err := place.New(place.LeastLoaded, len(loads))
	if err != nil {
		l.fail(err)
		return
	}
	spatial, err := place.NewSpatial(inner, 2, place.WidthAdaptive)
	if err != nil {
		l.fail(err)
		return
	}
	l.set("place.spatial_decide_ns.l16", l.perOp(l.n(4096), nil, func(i int) {
		sinkI += spatial.Decide(reqs[i%len(reqs)], loads).Device
	}))
}

func rungFleet(l *ladder) {
	view := fleet.View{QueueDepth: 6, ActiveDevices: 2, ShortestBacklogMs: 40}
	for _, cfg := range []fleet.AdmissionConfig{
		{Mode: fleet.AdmitTokenBucket, RatePerSec: 70, Burst: 40},
		{Mode: fleet.AdmitPredictedRR},
	} {
		gate, err := fleet.NewAdmission(cfg)
		if err != nil {
			l.fail(err)
			return
		}
		now := 0.0
		l.set("fleet.admit_ns."+string(cfg.Mode), l.perOp(l.n(4096), nil, func(int) {
			now += 10
			sinkB, _ = gate.Admit(now, 28, alpha, view)
		}))
	}
	scaler, err := fleet.NewAutoscaler(fleet.AutoscaleConfig{Min: 1, Max: 4})
	if err != nil {
		l.fail(err)
		return
	}
	now := 0.0
	l.set("fleet.autoscale_eval_ns", l.perOp(l.n(4096), nil, func(i int) {
		now += 100
		sinkI += int(scaler.Evaluate(fleet.Signals{NowMs: now, Active: 2, QueueDepth: i % 12, Inflight: 2, ViolRate: 0.02}))
	}))
	window := fleet.NewWindow(0)
	l.set("fleet.window_observe_ns", l.perOp(l.n(4096), nil, func(i int) {
		window.Observe(i%16 == 0)
		sinkF += window.Rate()
	}))
}

// rungSystems runs Scenario4's thousand requests through each of the four
// systems of the paper's evaluation, untraced, and a one-arrival trace
// through SPLIT for the fixed cost of a run.
func rungSystems(l *ladder) {
	arrivals := workload.MustGenerate(workload.ForScenario(workload.Table2()[3], zoo.BenchmarkModels, l.e.seed))
	for _, sys := range core.DefaultSystems() {
		name := "policy.run_ns_per_req." + strings.ToLower(strings.ReplaceAll(sys.Name(), "-", ""))
		l.set(name, l.perOp(1, nil, func(int) {
			sinkI += len(sys.Run(arrivals, l.dep.Catalog, nil))
		})/float64(len(arrivals)))
	}
	split := policy.NewSplit()
	l.set("policy.setup_ns_per_run", l.perOp(16, nil, func(int) {
		sinkI += len(split.Run(arrivals[:1], l.dep.Catalog, nil))
	}))
}

// rungFeaturesTrace runs the sim_features system untraced and traced on a
// shorter trace, reports the exact counts that describe what the features
// did, and then times every consumer of the recorded event stream.
func rungFeaturesTrace(l *ladder) {
	run, err := setupCohort(&env{seed: l.e.seed}, l.n(ladderFeatures), true)
	if err != nil {
		l.fail(err)
		return
	}
	n := float64(len(run.arrivals))

	var recs []policy.Record
	untraced := l.wall(3, func() { recs, _ = run.sys.RunWithStats(run.arrivals, run.catalog, nil) })
	var tr *trace.Tracer
	var tree *trace.SpanTree
	traced := l.wall(2, func() {
		tr = trace.New()
		run.sys.RunWithStats(run.arrivals, run.catalog, tr)
	})
	fold := l.wall(2, func() { tree = trace.BuildSpans(tr.Events()) })
	if len(tree.Problems) > 0 {
		l.fail(fmt.Errorf("span fold reports %d problems, first: %s", len(tree.Problems), tree.Problems[0]))
		return
	}
	events := float64(tr.Len())
	l.set("policy.traced_over_untraced", (traced+fold)/untraced)
	l.set("policy.traced_req_per_s", n/(traced+fold))
	l.set("policy.events_per_req", events/n)
	l.set("trace.build_spans_ns_per_event", fold*1e9/events)

	shed := map[string]int{}
	preemptions := 0
	for i := range recs {
		shed[recs[i].Outcome]++
		preemptions += recs[i].Preemptions
	}
	batched := 0
	for i := range tree.Requests {
		if len(tree.Requests[i].Batches) > 0 {
			batched++
		}
	}
	l.set("policy.preemptions_per_req", float64(preemptions)/n)
	l.set("policy.batched_frac", float64(batched)/n)
	l.set("policy.shed_frac.deadline", float64(shed[policy.OutcomeDeadline])/n)
	l.set("policy.shed_frac.canceled", float64(shed[policy.OutcomeCanceled])/n)
	l.set("policy.shed_frac.admission", float64(shed[policy.OutcomeAdmission])/n)
	l.set("policy.shed_frac.device_fault", float64(shed[policy.OutcomeDeviceFault])/n)

	evs := tr.Events()
	l.set("trace.record_ns_per_event", l.wall(3, func() {
		fresh := trace.New()
		for i := range evs {
			fresh.Record(evs[i])
		}
		sinkI += fresh.Len()
	})*1e9/events)
	l.set("trace.jsonl_ns_per_event", l.wall(1, func() {
		if err := tr.WriteJSONL(io.Discard); err != nil {
			l.fail(err)
		}
	})*1e9/events)
	l.set("trace.perfetto_ns_per_event", l.wall(1, func() {
		if err := tree.WritePerfetto(io.Discard); err != nil {
			l.fail(err)
		}
	})*1e9/events)

	ring := trace.NewRing(4096)
	l.set("trace.ring_emit_ns", l.perOp(l.n(4096), nil, func(i int) {
		ring.Emit(evs[i%len(evs)])
	}))

	// SpanTree.Summary builds its string with +=, so its cost per request
	// grows with the number of requests. Two sizes put the slope on file.
	for _, size := range []int{2000, 8000} {
		k := l.n(size)
		if k > len(tree.Requests) {
			k = len(tree.Requests)
		}
		part := &trace.SpanTree{Requests: tree.Requests[:k]}
		l.set(fmt.Sprintf("trace.summary_ns_per_req.n%d", size), l.wall(1, func() {
			sinkI += len(part.Summary())
		})*1e9/float64(k))
	}
}

func rungMetrics(l *ladder) {
	arrivals := workload.MustGenerate(workload.ForScenario(workload.Table2()[3], zoo.BenchmarkModels, l.e.seed))
	recs := policy.NewSplit().Run(arrivals, l.dep.Catalog, nil)
	alphas := metrics.DefaultAlphas()
	l.set("metrics.summarize_ns_per_rec", l.perOp(4, nil, func(int) {
		sinkF += metrics.Summarize("SPLIT", recs).MeanRR
		sinkF += metrics.ViolationCurve(recs, alphas)[2]
	})/float64(len(recs)))
}
