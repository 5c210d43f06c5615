// Benchmarks that regenerate every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Each benchmark both
// measures the cost of the experiment and reports its headline quantity via
// b.ReportMetric, so `go test -bench=. -benchmem` doubles as the full
// reproduction harness.
package split

import (
	"math/rand"
	"net"
	"runtime"
	"sync/atomic"
	"testing"

	"split/internal/analytic"
	"split/internal/core"
	"split/internal/fleet"
	"split/internal/ga"
	"split/internal/gpusim"
	"split/internal/metrics"
	"split/internal/model"
	"split/internal/policy"
	"split/internal/profiler"
	"split/internal/sched"
	"split/internal/serve"
	"split/internal/trace"
	"split/internal/workload"
	"split/internal/zoo"
)

// BenchmarkTable1Profiles regenerates Table 1: loading and profiling the
// five benchmark models.
func BenchmarkTable1Profiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := core.Table1()
		if len(rows) != 5 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkFig2CutPointGrid regenerates Figure 2: the exhaustive two-cut
// grid of ResNet50 (7260 candidates per iteration).
func BenchmarkFig2CutPointGrid(b *testing.B) {
	g := zoo.MustLoad("resnet50")
	p := profiler.New(g, model.DefaultCostModel())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grid := p.CutGrid(1)
		if len(grid.Overhead) == 0 {
			b.Fatal("empty grid")
		}
	}
}

// BenchmarkEq1WaitingLatency measures the Eq. 1 closed form on the GA plan
// of VGG19 and reports the expected wait.
func BenchmarkEq1WaitingLatency(b *testing.B) {
	g := zoo.MustLoad("vgg19")
	p := profiler.New(g, model.DefaultCostModel())
	cand := p.Evaluate([]int{16, 29})
	var w float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w = analytic.ExpectedWait(cand.BlockTimesMs)
	}
	b.ReportMetric(w, "expected-wait-ms")
}

// BenchmarkFig5GAConvergence regenerates one Figure 5 series: the GA on
// VGG19 into 3 blocks, full generation telemetry.
func BenchmarkFig5GAConvergence(b *testing.B) {
	g := zoo.MustLoad("vgg19")
	p := profiler.New(g, model.DefaultCostModel())
	cfg := ga.DefaultConfig(3)
	cfg.StallLimit = cfg.Generations
	var gens int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := ga.Run(p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		gens = len(res.PerGeneration)
	}
	b.ReportMetric(float64(gens), "generations")
}

// BenchmarkTable3OptimalSplits regenerates Table 3: GA splits of ResNet50
// and VGG19 at 2..4 blocks.
func BenchmarkTable3OptimalSplits(b *testing.B) {
	cm := model.DefaultCostModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := core.Table3(cm, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatal("wrong row count")
		}
	}
}

func deployOnce(b *testing.B) *core.Deployment {
	b.Helper()
	dep, err := core.DefaultPipeline().Deploy()
	if err != nil {
		b.Fatal(err)
	}
	return dep
}

// BenchmarkFig6ViolationRate regenerates Figure 6: all six scenarios
// through the four systems, reporting SPLIT's and RT-A's mean violation
// rate at α=4 (the paper's headline comparison).
func BenchmarkFig6ViolationRate(b *testing.B) {
	dep := deployOnce(b)
	var splitV, rtaV float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells := core.Fig6(dep, core.DefaultSystems(), int64(i+1))
		splitV, rtaV = 0, 0
		for _, c := range cells {
			switch c.System {
			case "SPLIT":
				splitV += c.Curve[2] // α=4
			case "RT-A":
				rtaV += c.Curve[2]
			}
		}
		splitV /= 6
		rtaV /= 6
	}
	b.ReportMetric(splitV*100, "SPLIT-viol@4-%")
	b.ReportMetric(rtaV*100, "RT-A-viol@4-%")
}

// BenchmarkFig7Jitter regenerates Figure 7 and reports the mean short-model
// jitter of SPLIT and RT-A across scenarios.
func BenchmarkFig7Jitter(b *testing.B) {
	dep := deployOnce(b)
	var splitJ, rtaJ float64
	shorts := []string{"yolov2", "googlenet", "gpt2"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells := core.Fig7(dep, core.DefaultSystems(), int64(i+1))
		splitJ, rtaJ = 0, 0
		for _, c := range cells {
			var s float64
			for _, m := range shorts {
				s += c.JitterMs[m]
			}
			s /= float64(len(shorts))
			switch c.System {
			case "SPLIT":
				splitJ += s
			case "RT-A":
				rtaJ += s
			}
		}
		splitJ /= 6
		rtaJ /= 6
	}
	b.ReportMetric(splitJ, "SPLIT-short-jitter-ms")
	b.ReportMetric(rtaJ, "RT-A-short-jitter-ms")
}

// BenchmarkFig3FullVsPartial regenerates the Figure 3 comparison.
func BenchmarkFig3FullVsPartial(b *testing.B) {
	dep := deployOnce(b)
	var rows []core.Fig3Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = core.Fig3(dep, int64(i+1))
	}
	if len(rows) > 0 {
		b.ReportMetric(rows[len(rows)-1].FullMeanRR, "full-meanRR")
		b.ReportMetric(rows[len(rows)-1].PartMeanRR, "partial-meanRR")
	}
}

// BenchmarkAlgorithm1Preemption validates the §3.4 claim that greedy
// preemption runs at microsecond scale: one insertion into a queue of 64
// waiting requests.
func BenchmarkAlgorithm1Preemption(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	models := []string{"yolov2", "googlenet", "resnet50", "vgg19", "gpt2"}
	exts := []float64{10.8, 13.2, 28.35, 67.5, 20.4}
	build := func() *sched.Queue {
		q := sched.NewQueue(4)
		for i := 0; i < 64; i++ {
			k := rng.Intn(len(models))
			q.InsertGreedy(float64(i), sched.NewRequest(i, models[k], model.Short, float64(i), exts[k], []float64{exts[k]}))
		}
		return q
	}
	q := build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := sched.NewRequest(1000+i, "yolov2", model.Short, float64(i), 10.8, []float64{10.8})
		q.InsertGreedy(float64(i), r)
		if q.Len() > 256 {
			b.StopTimer()
			q = build()
			b.StartTimer()
		}
	}
}

// BenchmarkAlgorithm1WorstCase measures the O(n) worst case: the new
// request bubbles past the entire queue.
func BenchmarkAlgorithm1WorstCase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		q := sched.NewQueue(4)
		for j := 0; j < 1024; j++ {
			q.InsertGreedy(0, sched.NewRequest(j, "vgg19", model.Long, 0, 67.5, []float64{67.5}))
		}
		r := sched.NewRequest(9999, "yolov2", model.Short, 0, 0.001, []float64{0.001})
		b.StartTimer()
		q.InsertGreedy(0, r)
	}
}

// BenchmarkAblationSearchStrategies compares GA vs random search at a fixed
// budget (ablation 1).
func BenchmarkAblationSearchStrategies(b *testing.B) {
	g := zoo.MustLoad("resnet50")
	p := profiler.New(g, model.DefaultCostModel())
	b.Run("GA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := ga.DefaultConfig(3)
			cfg.Seed = int64(i + 1)
			if _, err := ga.Run(p, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("random-2000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ga.RandomSearch(p, 3, 2000, int64(i+1))
		}
	})
	b.Run("exhaustive-m2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.Exhaustive(2, profiler.StdDevObjective)
		}
	})
}

// BenchmarkAblationEvenness reports the violation rate of even vs unsplit
// deployment under Scenario 5 (ablation 2).
func BenchmarkAblationEvenness(b *testing.B) {
	dep := deployOnce(b)
	unsplit := policy.NewCatalog(dep.Graphs, nil)
	sc := workload.Table2()[4]
	var even, none float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arrivals := workload.MustGenerate(workload.ForScenario(sc, zoo.BenchmarkModels, int64(i+1)))
		even = metrics.ViolationRate(policy.NewSplit().Run(arrivals, dep.Catalog, nil), 4)
		none = metrics.ViolationRate(policy.NewSplit().Run(arrivals, unsplit, nil), 4)
	}
	b.ReportMetric(even*100, "even-viol@4-%")
	b.ReportMetric(none*100, "unsplit-viol@4-%")
}

// BenchmarkAblationElastic compares elastic splitting on/off under bursty
// Scenario 6 (ablation 3).
func BenchmarkAblationElastic(b *testing.B) {
	dep := deployOnce(b)
	var rows []core.Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = core.ElasticAblation(dep, int64(i+1)).Run()
	}
	for _, r := range rows {
		if r.Labels[0] == "Scenario6" {
			if r.Labels[1] == "true" {
				b.ReportMetric(r.MeanRR, "elastic-meanRR")
			} else {
				b.ReportMetric(r.MeanRR, "static-meanRR")
			}
		}
	}
}

// BenchmarkAblationBlockCount sweeps the block count of VGG19 (ablation 5).
func BenchmarkAblationBlockCount(b *testing.B) {
	cm := model.DefaultCostModel()
	var rows []core.BlockCountRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = core.BlockCountSweep("vgg19", 6, cm, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	best := rows[0]
	for _, r := range rows {
		if r.ExpectedWaitMs < best.ExpectedWaitMs {
			best = r
		}
	}
	b.ReportMetric(float64(best.Blocks), "optimal-blocks")
}

// BenchmarkScenarioAllSystems is splitperf's sim_paper_grid for one seed:
// the six Table 2 scenarios through the four systems (24 runs of 1000
// requests), then the Figure 6 curve and the Figure 7 jitter of every run.
// `make profile PROFILE=ScenarioAllSystems` profiles it.
func BenchmarkScenarioAllSystems(b *testing.B) {
	dep := deployOnce(b)
	systems := core.DefaultSystems()
	alphas := metrics.DefaultAlphas()
	var sink float64
	reqs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, run := range dep.RunAllScenarios(systems, int64(i+1)) {
			sink += metrics.ViolationCurve(run.Records, alphas)[2]
			sink += metrics.JitterByModel(run.Records)["gpt2"]
			reqs += len(run.Records)
		}
	}
	b.ReportMetric(float64(reqs)/b.Elapsed().Seconds(), "req/s")
	if sink < 0 {
		b.Fatal("negative violation rate or jitter")
	}
}

// BenchmarkFig1Microbenchmark regenerates the Figure 1 two-request
// comparison and reports SPLIT's and FCFS's short-request response ratios.
func BenchmarkFig1Microbenchmark(b *testing.B) {
	dep := deployOnce(b)
	var rows []core.Fig1Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = core.Fig1(dep)
	}
	for _, r := range rows {
		switch r.System {
		case "SPLIT":
			b.ReportMetric(r.ShortRR, "SPLIT-short-RR")
		case "ClockWork":
			b.ReportMetric(r.ShortRR, "FCFS-short-RR")
		}
	}
}

// BenchmarkAblationStarvationGuard runs the starvation-guard extension
// ablation and reports the long-request p95 RR with and without the guard.
func BenchmarkAblationStarvationGuard(b *testing.B) {
	dep := deployOnce(b)
	var rows []core.Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = core.StarvationAblation(dep, int64(i+1)).Run()
	}
	for _, r := range rows {
		if r.Labels[0] == "off" {
			b.ReportMetric(r.P95LongRR, "p95-longRR-off")
		}
		if r.Labels[0] == "6" {
			b.ReportMetric(r.P95LongRR, "p95-longRR-guard6")
		}
	}
}

// BenchmarkREEFComparison runs Scenario 3 under SPLIT and REEF, reporting
// both short-jitter values (the §6 flexibility-vs-hardware trade).
func BenchmarkREEFComparison(b *testing.B) {
	dep := deployOnce(b)
	sc := workload.Table2()[2]
	var splitJ, reefJ float64
	shorts := []string{"yolov2", "googlenet", "gpt2"}
	mean := func(recs []policy.Record) float64 {
		j := metrics.JitterByModel(recs)
		var s float64
		for _, m := range shorts {
			s += j[m]
		}
		return s / float64(len(shorts))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arrivals := workload.MustGenerate(workload.ForScenario(sc, zoo.BenchmarkModels, int64(i+1)))
		splitJ = mean(policy.NewSplit().Run(arrivals, dep.Catalog, nil))
		reefJ = mean(policy.NewREEF().Run(arrivals, dep.Catalog, nil))
	}
	b.ReportMetric(splitJ, "SPLIT-short-jitter-ms")
	b.ReportMetric(reefJ, "REEF-short-jitter-ms")
}

// BenchmarkServeRPC is the saturated serving rung, in the shape of
// splitperf's serve_saturate_tiny: two devices placed least-loaded serve
// tiny (one 0.01 ms op) and tiny3 (three 0.02 ms ops cut into three
// blocks), three requests to one, to 2 connections × 32 callers, each
// caller with one InferAsync outstanding. The service time is about zero,
// so a request costs what carrying it costs: the transport, the server
// mutex, Algorithm 1 and delivery. `make profile PROFILE=ServeRPC`
// profiles it.
func BenchmarkServeRPC(b *testing.B) {
	tiny := &model.Graph{Name: "tiny", Domain: "bench", Class: model.Short,
		Ops: []model.Op{{Name: "op", TimeMs: 0.01}}}
	tiny3 := &model.Graph{Name: "tiny3", Domain: "bench", Class: model.Short,
		Ops: []model.Op{{Name: "a", TimeMs: 0.02}, {Name: "b", TimeMs: 0.02}, {Name: "c", TimeMs: 0.02}}}
	plan, err := model.NewSplitPlan(tiny3, []int{1, 2}, model.DefaultCostModel())
	if err != nil {
		b.Fatal(err)
	}
	catalog := policy.NewCatalog(map[string]*model.Graph{"tiny": tiny, "tiny3": tiny3},
		map[string]*model.SplitPlan{"tiny3": plan})
	srv, err := serve.New(catalog, serve.WithTimeScale(0.001), serve.WithDevices(2), serve.WithPlacement("least-loaded"))
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Start(l); err != nil {
		b.Fatal(err)
	}
	defer srv.Stop()
	conns := make([]*serve.Client, 2)
	for i := range conns {
		if conns[i], err = serve.Dial(srv.Addr()); err != nil {
			b.Fatal(err)
		}
		defer conns[i].Close()
	}
	const callers = 64
	procs := runtime.GOMAXPROCS(0)
	b.SetParallelism((callers + procs - 1) / procs)
	var started atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c := conns[started.Add(1)%int64(len(conns))]
		for n := 0; pb.Next(); n++ {
			m := "tiny"
			if n%4 == 3 {
				m = "tiny3"
			}
			call := c.InferAsync(m)
			<-call.Done
			if call.Error != nil {
				b.Error(call.Error)
				return
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// millionCohorts is the heterogeneous cohort mix of the million-request
// sweep: steady interactive traffic, bursty MMPP edge traffic, and a
// diurnally-modulated heavy-tailed batch population. With lifecycle the
// interactive cohort carries client deadlines and cancellations, as in
// splitperf's sim_features.
func millionCohorts(count int, seed int64, lifecycle bool) workload.CohortSetConfig {
	interactive := workload.Cohort{
		Name:    "interactive",
		Models:  zoo.BenchmarkModels,
		Process: workload.Process{Kind: workload.ProcPoisson, MeanIntervalMs: 24},
	}
	if lifecycle {
		interactive.DeadlineMs = 400
		interactive.DeadlineJitterFrac = 0.5
		interactive.CancelFrac = 0.02
		interactive.CancelAfterMs = 60
	}
	return workload.CohortSetConfig{
		Cohorts: []workload.Cohort{
			interactive,
			{
				Name:   "edge-burst",
				Models: []string{"yolov2", "googlenet"},
				Process: workload.Process{
					Kind: workload.ProcMMPP, MeanIntervalMs: 120,
					BurstIntervalMs: 20, CalmDwellMs: 4000, BurstDwellMs: 1000,
				},
			},
			{
				Name:     "batch",
				Models:   []string{"vgg19", "gpt2"},
				Process:  workload.Process{Kind: workload.ProcLogNormal, MeanIntervalMs: 90, Sigma: 1.2},
				Envelope: &workload.Envelope{PeriodMs: 600000, Factors: []float64{0.5, 1, 2, 1}},
			},
		},
		Count: count,
		Seed:  seed,
	}
}

// BenchmarkTracedFeatures is the shape of splitperf's sim_features
// correctness gate: 200 k arrivals through SPLIT with every feature on and
// the product's tracer attached, then the span fold over the recorded
// events. It reports recorded events per second and heap bytes allocated
// per event; `make profile PROFILE=TracedFeatures` profiles it.
func BenchmarkTracedFeatures(b *testing.B) {
	dep := deployOnce(b)
	arrivals := workload.MustGenerateCohorts(millionCohorts(200_000, 1, true))
	sys := policy.NewSplit()
	sys.Placement = "least-loaded"
	sys.BatchMax = 4
	sys.Partitions = 2
	sys.PartitionWidth = "adaptive"
	sys.EnforceDeadlines = true
	sys.PredictiveShed = true
	sys.Fleet = fleet.AutoscaleConfig{Min: 1, Max: 4}
	sys.Admission = fleet.AdmissionConfig{Mode: fleet.AdmitTokenBucket, RatePerSec: 70, Burst: 40}
	sys.Faults = &gpusim.FaultInjector{Seed: 7, SpikeProb: .01, SpikeFactor: 3, FailProb: .005, MaxRetries: 2}
	var before, after runtime.MemStats
	events := 0
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := trace.New()
		sys.RunWithStats(arrivals, dep.Catalog, tr)
		if tree := (trace.SpanBuilder{}).BuildTracer(tr); len(tree.Problems) > 0 {
			b.Fatalf("span fold problem: %s", tree.Problems[0])
		}
		events += tr.Len()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(events), "B/event")
}

// BenchmarkMillionRequestSweep times what splitperf's sim_cohort_1m times:
// one replay of a million cohort arrivals through policy.Split's
// RunWithStats on a 4-device least-loaded fleet, with the trace generated
// once before the timer starts. It is the profiling target of `make
// profile`; the number that gates a change is sim_cohort_1m's req_per_s,
// which also bounds allocations and peak memory.
func BenchmarkMillionRequestSweep(b *testing.B) {
	dep := deployOnce(b)
	arrivals := workload.MustGenerateCohorts(millionCohorts(1_000_000, 1, false))
	sys := policy.NewSplit()
	sys.Devices = 4
	sys.Placement = "least-loaded"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if recs, _ := sys.RunWithStats(arrivals, dep.Catalog, nil); len(recs) != len(arrivals) {
			b.Fatal("lost requests")
		}
	}
	b.ReportMetric(float64(len(arrivals)*b.N)/b.Elapsed().Seconds(), "req/s")
}
