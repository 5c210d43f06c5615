package queueing

import (
	"math"
	"testing"

	"split/internal/metrics"
	"split/internal/policy"
	"split/internal/sched"
	"split/internal/workload"
	"split/internal/zoo"
)

func benchmarkMix() ServiceMix {
	times := make([]float64, 0, 5)
	for _, name := range zoo.BenchmarkModels {
		times = append(times, zoo.Table1Latency[name])
	}
	return NewUniformMix(times)
}

func TestMixValidate(t *testing.T) {
	if err := benchmarkMix().Validate(); err != nil {
		t.Fatalf("benchmark mix invalid: %v", err)
	}
	bads := []ServiceMix{
		{},
		{TimesMs: []float64{1}, Probs: []float64{0.5}},
		{TimesMs: []float64{1, 2}, Probs: []float64{0.5}},
		{TimesMs: []float64{-1}, Probs: []float64{1}},
		{TimesMs: []float64{1}, Probs: []float64{-1}},
	}
	for i, m := range bads {
		if err := m.Validate(); err == nil {
			t.Errorf("bad mix %d accepted", i)
		}
	}
}

func TestMixMoments(t *testing.T) {
	m := NewUniformMix([]float64{2, 4})
	if got := m.MeanMs(); got != 3 {
		t.Errorf("mean = %v", got)
	}
	if got := m.SecondMoment(); got != 10 {
		t.Errorf("E[S^2] = %v", got)
	}
	// Var = 10 - 9 = 1; SCV = 1/9.
	if got := m.SCV(); math.Abs(got-1.0/9) > 1e-12 {
		t.Errorf("SCV = %v", got)
	}
}

func TestMD1SpecialCase(t *testing.T) {
	// Deterministic service (M/D/1): W = ρ·E[S] / (2(1-ρ)).
	mix := NewUniformMix([]float64{10})
	q := NewMG1FromInterval(20, mix) // ρ = 0.5
	want := 0.5 * 10 / (2 * 0.5)
	if got := q.MeanWaitMs(); math.Abs(got-want) > 1e-12 {
		t.Errorf("M/D/1 wait = %v, want %v", got, want)
	}
}

func TestUnstableQueue(t *testing.T) {
	q := NewMG1FromInterval(5, NewUniformMix([]float64{10}))
	if q.Stable() {
		t.Error("ρ=2 queue reported stable")
	}
	if !math.IsInf(q.MeanWaitMs(), 1) || !math.IsInf(q.MeanBusyPeriodMs(), 1) {
		t.Error("unstable queue has finite wait")
	}
	if !math.IsInf(q.MeanResponseRatio(), 1) {
		t.Error("unstable queue has finite RR")
	}
}

func TestLittleLawConsistency(t *testing.T) {
	q := NewMG1FromInterval(50, benchmarkMix())
	if math.Abs(q.MeanQueueLength()-q.ArrivalRate*q.MeanWaitMs()) > 1e-12 {
		t.Error("L_q != λW")
	}
}

func TestScenarioUtilizationCalibration(t *testing.T) {
	// The Table 2 scenarios must land in the paper's operating regime:
	// stable but loaded (ρ in ~[0.5, 0.85]), with λ=90 unstable-ish (>0.95)
	// and λ=200 light (<0.5), matching the §5.1 footnote.
	mix := benchmarkMix()
	for _, sc := range workload.Table2() {
		interval := sc.MeanIntervalMs * workload.TaskIntervalFactor / float64(len(zoo.BenchmarkModels))
		q := NewMG1FromInterval(interval, mix)
		rho := q.Utilization()
		if rho < 0.5 || rho > 0.85 {
			t.Errorf("%s: ρ = %.3f outside evaluation regime", sc.Name, rho)
		}
		if !q.Stable() {
			t.Errorf("%s unstable", sc.Name)
		}
	}
	at := func(lambda float64) float64 {
		interval := lambda * workload.TaskIntervalFactor / float64(len(zoo.BenchmarkModels))
		return NewMG1FromInterval(interval, mix).Utilization()
	}
	if at(90) < 0.95 {
		t.Errorf("λ=90 utilisation %.3f — footnote says near saturation", at(90))
	}
	if at(200) > 0.5 {
		t.Errorf("λ=200 utilisation %.3f — footnote says trivially sequential", at(200))
	}
}

// The simulator's ClockWork must match Pollaczek–Khinchine within sampling
// error: this validates the entire DES path end to end.
func TestSimulatorMatchesPollaczekKhinchine(t *testing.T) {
	mix := benchmarkMix()
	graphs := zoo.LoadBenchmarkSet()
	catalog := policy.NewCatalog(graphs, nil)
	sc := workload.Table2()[1] // λ=150: ρ ≈ 0.58, comfortably stable
	interval := sc.MeanIntervalMs * workload.TaskIntervalFactor / float64(len(zoo.BenchmarkModels))
	q := NewMG1FromInterval(interval, mix)
	want := q.MeanWaitMs()

	// Average several seeds of 1000 requests to tame sampling noise.
	var got float64
	const seeds = 8
	for seed := int64(1); seed <= seeds; seed++ {
		arrivals := workload.MustGenerate(workload.ForScenario(sc, zoo.BenchmarkModels, seed))
		recs := policy.NewClockWork().Run(arrivals, catalog, nil)
		got += metrics.MeanWait(recs)
	}
	got /= seeds
	if math.Abs(got-want) > 0.25*want {
		t.Errorf("simulated FCFS wait %.2f ms vs P-K %.2f ms (>25%% off)", got, want)
	}
}

// Algorithm 1's queue behaves like shortest-job-first between distinct
// types; the SJF priority formula should predict its mean wait better than
// the FCFS formula does.
func TestSRPTApproxPredictsSplitScheduling(t *testing.T) {
	mix := benchmarkMix()
	graphs := zoo.LoadBenchmarkSet()
	catalog := policy.NewCatalog(graphs, nil) // unsplit: isolate scheduling effect
	sc := workload.Table2()[1]
	interval := sc.MeanIntervalMs * workload.TaskIntervalFactor / float64(len(zoo.BenchmarkModels))
	q := NewMG1FromInterval(interval, mix)

	var got float64
	const seeds = 8
	for seed := int64(1); seed <= seeds; seed++ {
		arrivals := workload.MustGenerate(workload.ForScenario(sc, zoo.BenchmarkModels, seed))
		sys := policy.NewSplit()
		sys.Elastic = sched.Elastic{}
		recs := sys.Run(arrivals, catalog, nil)
		got += metrics.MeanWait(recs)
	}
	got /= seeds

	sjf := q.SRPTMeanWaitApprox()
	fcfs := q.MeanWaitMs()
	if math.Abs(got-sjf) >= math.Abs(got-fcfs) {
		t.Errorf("SJF formula (%.2f) no better than FCFS (%.2f) at predicting SPLIT's wait %.2f",
			sjf, fcfs, got)
	}
	if sjf >= fcfs {
		t.Errorf("SJF mean wait %.2f not below FCFS %.2f", sjf, fcfs)
	}
}

func TestMeanBusyPeriod(t *testing.T) {
	q := NewMG1FromInterval(20, NewUniformMix([]float64{10})) // ρ=0.5
	if got := q.MeanBusyPeriodMs(); math.Abs(got-20) > 1e-12 {
		t.Errorf("busy period = %v, want 20", got)
	}
}

func TestStabilityBound(t *testing.T) {
	mix := benchmarkMix()
	bound := StabilityBoundIntervalMs(5, mix)
	// 5 tasks × 28.05 ms mean service = 140.25 ms.
	if math.Abs(bound-5*mix.MeanMs()) > 1e-9 {
		t.Errorf("bound = %v", bound)
	}
	q := NewMG1FromInterval(bound/5*1.01, mix)
	if !q.Stable() {
		t.Error("just above bound should be stable")
	}
	q = NewMG1FromInterval(bound/5*0.99, mix)
	if q.Stable() {
		t.Error("just below bound should be unstable")
	}
}

func TestMeanResponseRatioWeighting(t *testing.T) {
	// Short requests dominate the mean RR because the same wait divides a
	// smaller denominator.
	mix := NewUniformMix([]float64{5, 50})
	q := NewMG1FromInterval(40, mix)
	w := q.MeanWaitMs()
	want := 0.5*((w+5)/5) + 0.5*((w+50)/50)
	if got := q.MeanResponseRatio(); math.Abs(got-want) > 1e-12 {
		t.Errorf("mean RR = %v, want %v", got, want)
	}
}

func TestWaitExceedsProbShape(t *testing.T) {
	q := NewMG1FromInterval(50, benchmarkMix())
	rho := q.Utilization()
	if got := q.WaitExceedsProb(0); math.Abs(got-rho) > 1e-12 {
		t.Errorf("P(W>0) = %v, want ρ=%v", got, rho)
	}
	// Monotone decreasing in t.
	prev := 1.0
	for _, tm := range []float64{1, 10, 50, 200, 1000} {
		p := q.WaitExceedsProb(tm)
		if p > prev {
			t.Fatalf("tail not monotone at t=%v", tm)
		}
		prev = p
	}
	// Unstable queue: certain violation.
	bad := NewMG1FromInterval(5, benchmarkMix())
	if bad.WaitExceedsProb(100) != 1 {
		t.Error("unstable tail != 1")
	}
}

func TestViolationRateApproxMatchesSimulatedFCFS(t *testing.T) {
	// The analytic Figure 6 curve should track the simulated ClockWork
	// curve within a few points across the α sweep at moderate load.
	mix := benchmarkMix()
	graphs := zoo.LoadBenchmarkSet()
	catalog := policy.NewCatalog(graphs, nil)
	sc := workload.Table2()[0] // lightest load, least transient bias
	interval := sc.MeanIntervalMs * workload.TaskIntervalFactor / float64(len(zoo.BenchmarkModels))
	q := NewMG1FromInterval(interval, mix)

	alphas := []float64{2, 4, 6, 8, 12}
	sim := make([]float64, len(alphas))
	const seeds = 8
	for seed := int64(1); seed <= seeds; seed++ {
		arrivals := workload.MustGenerate(workload.ForScenario(sc, zoo.BenchmarkModels, seed))
		recs := policy.NewClockWork().Run(arrivals, catalog, nil)
		for i, a := range alphas {
			sim[i] += metrics.ViolationRate(recs, a) / seeds
		}
	}
	for i, a := range alphas {
		pred := q.ViolationRateApprox(a)
		if math.Abs(pred-sim[i]) > 0.08 {
			t.Errorf("α=%v: predicted %.3f vs simulated %.3f (off by >8 points)", a, pred, sim[i])
		}
	}
	if q.ViolationRateApprox(1) != 1 {
		t.Error("α<=1 must always violate")
	}
}
