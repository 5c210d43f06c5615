package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"split/internal/metrics"
	"split/internal/model"
	"split/internal/policy"
	"split/internal/workload"
	"split/internal/zoo"
)

func testDeploy(t *testing.T) *Deployment {
	t.Helper()
	dep, err := DefaultPipeline().Deploy()
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

func TestDefaultPipelineDeploy(t *testing.T) {
	dep := testDeploy(t)
	if len(dep.Graphs) != 5 {
		t.Fatalf("graphs = %d", len(dep.Graphs))
	}
	if len(dep.Plans) != 2 {
		t.Fatalf("plans = %d", len(dep.Plans))
	}
	if dep.Plans["resnet50"].NumBlocks() != 2 {
		t.Errorf("resnet50 blocks = %d", dep.Plans["resnet50"].NumBlocks())
	}
	if dep.Plans["vgg19"].NumBlocks() != 3 {
		t.Errorf("vgg19 blocks = %d", dep.Plans["vgg19"].NumBlocks())
	}
	for name, res := range dep.GARuns {
		if len(res.PerGeneration) == 0 {
			t.Errorf("%s: no GA telemetry", name)
		}
	}
	if len(dep.Catalog) != 5 {
		t.Errorf("catalog = %d", len(dep.Catalog))
	}
}

func TestPipelineUnknownModelFails(t *testing.T) {
	pipe := DefaultPipeline()
	pipe.BlockCounts = map[string]int{"notamodel": 2}
	if _, err := pipe.Deploy(); err == nil {
		t.Error("unknown model deployed")
	}
}

func TestPipelineDeterministicPlans(t *testing.T) {
	a := testDeploy(t)
	b := testDeploy(t)
	for name := range a.Plans {
		if a.Plans[name].StdDevMs != b.Plans[name].StdDevMs {
			t.Errorf("%s: nondeterministic plan", name)
		}
	}
}

func TestSystemByName(t *testing.T) {
	for _, name := range []string{"SPLIT", "SPLIT-partial", "ClockWork", "PREMA", "PREMA-NPU", "RT-A", "Stream-Parallel", "REEF"} {
		sys, err := SystemByName(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if sys.Name() != name {
			t.Errorf("Name() = %q, want %q", sys.Name(), name)
		}
	}
	if _, err := SystemByName("Nope"); err == nil {
		t.Error("unknown system constructed")
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	want := map[string]struct {
		ops int
		lat float64
	}{
		"yolov2":    {84, 10.8},
		"googlenet": {142, 13.2},
		"resnet50":  {122, 28.35},
		"vgg19":     {44, 67.5},
		"gpt2":      {2534, 20.4},
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		w := want[r.Model]
		if r.Operators != w.ops || math.Abs(r.LatencyMs-w.lat) > 1e-6 {
			t.Errorf("%s: ops=%d lat=%v, want %+v", r.Model, r.Operators, r.LatencyMs, w)
		}
	}
	if RenderTable1(rows) == "" {
		t.Error("empty render")
	}
}

func TestFig2ObservationsHold(t *testing.T) {
	res, err := Fig2("resnet50", 4, model.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if res.FrontBackOverheadRatio() <= 1 {
		t.Errorf("observation 1 fails: ratio %v", res.FrontBackOverheadRatio())
	}
	if res.EdgeMiddleStdRatio() <= 1 {
		t.Errorf("observation 2 fails: ratio %v", res.EdgeMiddleStdRatio())
	}
	out := RenderFig2(res)
	if !strings.Contains(out, "Figure 2") || !strings.Contains(out, "overhead") {
		t.Error("render incomplete")
	}
}

func TestFig2UnknownModel(t *testing.T) {
	if _, err := Fig2("nope", 1, model.DefaultCostModel()); err == nil {
		t.Error("unknown model profiled")
	}
}

func TestEq1CheckAgreement(t *testing.T) {
	rows := Eq1Check(model.DefaultCostModel())
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	for i, r := range rows {
		if math.Abs(r.ClosedForm-r.Moments) > 1e-9*math.Max(1, r.ClosedForm) {
			t.Errorf("row %d: closed %v vs moments %v", i, r.ClosedForm, r.Moments)
		}
		if math.Abs(r.ClosedForm-r.Numeric) > 1e-2*math.Max(1, r.ClosedForm) {
			t.Errorf("row %d: closed %v vs numeric %v", i, r.ClosedForm, r.Numeric)
		}
	}
	// The even split must wait less than the unsplit model (rows come in
	// triples: unsplit, naive, even).
	for base := 0; base < len(rows); base += 3 {
		if rows[base+2].ClosedForm >= rows[base].ClosedForm {
			t.Errorf("even split row %d does not improve on unsplit", base+2)
		}
	}
	if RenderEq1(rows) == "" {
		t.Error("empty render")
	}
}

func TestFig5ConvergenceShape(t *testing.T) {
	series, err := Fig5(model.DefaultCostModel(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 6 {
		t.Fatalf("%d series", len(series))
	}
	labels := map[string]bool{}
	for _, s := range series {
		labels[s.Label] = true
		if len(s.Gens) < 10 {
			t.Errorf("%s: only %d generations", s.Label, len(s.Gens))
		}
		// Best std-dev trace non-increasing... fitness is what's optimized,
		// but the optimum must be reached within 15 generations (§5.4).
		final := s.Gens[len(s.Gens)-1].BestFitness
		reached := -1
		for i, g := range s.Gens {
			if g.BestFitness == final {
				reached = i
				break
			}
		}
		if reached > 15 {
			t.Errorf("%s: optimum first reached at generation %d", s.Label, reached)
		}
	}
	for _, want := range []string{"RES-1", "RES-2", "RES-3", "VGG-1", "VGG-2", "VGG-3"} {
		if !labels[want] {
			t.Errorf("missing series %s", want)
		}
	}
	if RenderFig5(series) == "" {
		t.Error("empty render")
	}
}

func TestTable3Shape(t *testing.T) {
	rows, err := Table3(model.DefaultCostModel(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	byModel := map[string][]Table3Row{}
	for _, r := range rows {
		byModel[r.Model] = append(byModel[r.Model], r)
		if len(r.Cuts) != r.Blocks-1 {
			t.Errorf("%s m=%d: %d cuts", r.Model, r.Blocks, len(r.Cuts))
		}
		if r.Overhead <= 0 || r.Overhead > 0.6 {
			t.Errorf("%s m=%d: overhead %v out of plausible range", r.Model, r.Blocks, r.Overhead)
		}
		if r.RangePct < 0 || r.RangePct > 30 {
			t.Errorf("%s m=%d: range %v%%", r.Model, r.Blocks, r.RangePct)
		}
	}
	// Paper shape: overhead grows with the block count for ResNet50.
	res := byModel["resnet50"]
	for i := 1; i < len(res); i++ {
		if res[i].Overhead <= res[i-1].Overhead {
			t.Errorf("resnet50 overhead not increasing at m=%d", res[i].Blocks)
		}
	}
	if RenderTable3(rows) == "" {
		t.Error("empty render")
	}
}

func TestFig6SplitWinsAndCurvesMonotone(t *testing.T) {
	dep := testDeploy(t)
	cells := Fig6(dep, DefaultSystems(), 1)
	if len(cells) != 24 {
		t.Fatalf("%d cells", len(cells))
	}
	byScenario := map[string]map[string][]float64{}
	for _, c := range cells {
		for i := 1; i < len(c.Curve); i++ {
			if c.Curve[i] > c.Curve[i-1]+1e-12 {
				t.Errorf("%s/%s: violation curve increases at α=%v", c.Scenario.Name, c.System, c.Alphas[i])
			}
		}
		if byScenario[c.Scenario.Name] == nil {
			byScenario[c.Scenario.Name] = map[string][]float64{}
		}
		byScenario[c.Scenario.Name][c.System] = c.Curve
	}
	// Headline: SPLIT has the lowest violation rate at α=4 in every
	// scenario, and stays below the paper's 10% threshold averaged over
	// scenarios.
	idx4 := 2 // alphas start at 2
	var splitSum float64
	for name, curves := range byScenario {
		s := curves["SPLIT"][idx4]
		splitSum += s
		for sys, curve := range curves {
			if sys == "SPLIT" {
				continue
			}
			if curve[idx4] < s {
				t.Errorf("%s: %s (%.3f) beats SPLIT (%.3f) at α=4", name, sys, curve[idx4], s)
			}
		}
	}
	if mean := splitSum / 6; mean > 0.10 {
		t.Errorf("SPLIT mean violation at α=4 = %.1f%%, paper says <10%%", mean*100)
	}
	if RenderFig6(cells) == "" {
		t.Error("empty render")
	}
}

func TestFig7SplitReducesShortJitter(t *testing.T) {
	dep := testDeploy(t)
	cells := Fig7(dep, DefaultSystems(), 1)
	if len(cells) != 24 {
		t.Fatalf("%d cells", len(cells))
	}
	byScenario := map[string]map[string]map[string]float64{}
	for _, c := range cells {
		if byScenario[c.Scenario.Name] == nil {
			byScenario[c.Scenario.Name] = map[string]map[string]float64{}
		}
		byScenario[c.Scenario.Name][c.System] = c.JitterMs
	}
	shorts := []string{"yolov2", "googlenet", "gpt2"}
	for name, systems := range byScenario {
		for _, m := range shorts {
			s := systems["SPLIT"][m]
			for sys, j := range systems {
				if sys == "SPLIT" {
					continue
				}
				if j[m] < s {
					t.Errorf("%s: %s jitter for %s (%.2f) below SPLIT (%.2f)", name, sys, m, j[m], s)
				}
			}
		}
	}
	if RenderFig7(cells) == "" {
		t.Error("empty render")
	}
}

func TestFig7HeadlineReductions(t *testing.T) {
	// §5.5: for low load SPLIT reduces short jitter by ~55/47/69% vs
	// ClockWork/PREMA/RT-A; for high load ~56/50/69%. We assert the
	// reductions are substantial (>25%) with RT-A the largest.
	dep := testDeploy(t)
	cells := Fig7(dep, DefaultSystems(), 1)
	shortJitter := func(scenario, system string) float64 {
		for _, c := range cells {
			if c.Scenario.Name == scenario && c.System == system {
				var sum float64
				for _, m := range []string{"yolov2", "googlenet", "gpt2"} {
					sum += c.JitterMs[m]
				}
				return sum / 3
			}
		}
		t.Fatalf("missing cell %s/%s", scenario, system)
		return 0
	}
	for _, sc := range []string{"Scenario1", "Scenario6"} {
		s := shortJitter(sc, "SPLIT")
		reductions := map[string]float64{}
		for _, sys := range []string{"ClockWork", "PREMA", "RT-A"} {
			j := shortJitter(sc, sys)
			reductions[sys] = 1 - s/j
			if reductions[sys] < 0.25 {
				t.Errorf("%s: SPLIT reduces short jitter vs %s by only %.0f%%", sc, sys, reductions[sys]*100)
			}
		}
		if reductions["RT-A"] < reductions["PREMA"] {
			t.Errorf("%s: RT-A reduction (%.0f%%) below PREMA (%.0f%%)", sc,
				reductions["RT-A"]*100, reductions["PREMA"]*100)
		}
	}
}

func TestFig3FullBeatsPartial(t *testing.T) {
	dep := testDeploy(t)
	rows := Fig3(dep, 1)
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	better := 0
	for _, r := range rows {
		if r.FullMeanRR <= r.PartMeanRR {
			better++
		}
	}
	if better < 4 {
		t.Errorf("full preemption better in only %d of 6 scenarios", better)
	}
	if RenderFig3(rows) == "" {
		t.Error("empty render")
	}
}

func TestRunScenarioSeedsSharedAcrossSystems(t *testing.T) {
	dep := testDeploy(t)
	sc := workload.Table2()[0]
	a := dep.RunScenario(sc, policy.NewClockWork(), 7, nil)
	b := dep.RunScenario(sc, policy.NewPREMA(), 7, nil)
	if len(a.Records) != len(b.Records) {
		t.Fatal("different trace lengths")
	}
	for i := range a.Records {
		if a.Records[i].ArriveMs != b.Records[i].ArriveMs || a.Records[i].Model != b.Records[i].Model {
			t.Fatalf("traces diverge at %d", i)
		}
	}
}

func TestRunAllScenarios(t *testing.T) {
	dep := testDeploy(t)
	runs := dep.RunAllScenarios([]policy.System{policy.NewClockWork()}, 1)
	if len(runs) != 6 {
		t.Fatalf("%d runs", len(runs))
	}
	for _, r := range runs {
		if r.Summary.Requests != 1000 {
			t.Errorf("%s: %d requests", r.Scenario.Name, r.Summary.Requests)
		}
	}
}

func TestSearchAblationGABeatsRandom(t *testing.T) {
	rows, err := SearchAblation(model.DefaultCostModel(), 1)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]map[string]SearchAblationRow{}
	for _, r := range rows {
		k := r.Model + string(rune('0'+r.Blocks))
		if byKey[k] == nil {
			byKey[k] = map[string]SearchAblationRow{}
		}
		byKey[k][r.Strategy] = r
	}
	for k, m := range byKey {
		if ga, ok := m["GA"]; ok {
			if rnd, ok := m["random"]; ok && ga.Fitness < rnd.Fitness-1e-9 {
				t.Errorf("%s: GA fitness %v below random %v", k, ga.Fitness, rnd.Fitness)
			}
			if ex, ok := m["exhaustive"]; ok && ga.Fitness < ex.Fitness-1e-6 {
				t.Errorf("%s: GA fitness %v below exhaustive %v", k, ga.Fitness, ex.Fitness)
			}
		}
	}
	if RenderSearchAblation(rows) == "" {
		t.Error("empty render")
	}
}

func TestEvennessAblationEvenBeatsUneven(t *testing.T) {
	rows, err := EvennessAblation(model.DefaultCostModel(), 1)
	if err != nil {
		t.Fatal(err)
	}
	byScenario := map[string]map[string]EvennessAblationRow{}
	for _, r := range rows {
		if byScenario[r.Scenario.Name] == nil {
			byScenario[r.Scenario.Name] = map[string]EvennessAblationRow{}
		}
		byScenario[r.Scenario.Name][r.Plan] = r
	}
	evenBetter := 0
	for _, m := range byScenario {
		if m["even(GA)"].MeanRR <= m["uneven"].MeanRR {
			evenBetter++
		}
	}
	if evenBetter < 5 {
		t.Errorf("even split better than uneven in only %d of 6 scenarios", evenBetter)
	}
	if RenderEvennessAblation(rows) == "" {
		t.Error("empty render")
	}
	// The uneven plans are drawn from one seeded rng, so a second run at the
	// same seed must reproduce them.
	again, err := EvennessAblation(model.DefaultCostModel(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, again) {
		t.Error("two runs at the same seed differ")
	}
}

func TestElasticAblationRuns(t *testing.T) {
	dep := testDeploy(t)
	rows := ElasticAblation(dep, 1)
	if len(rows) != 12 {
		t.Fatalf("%d rows", len(rows))
	}
	if RenderElasticAblation(rows) == "" {
		t.Error("empty render")
	}
}

// TestBatchingAblationThroughput pins the tentpole's payoff: on the
// same-type burst workload some batch cap > 1 must deliver at least 1.5x
// the serial baseline's throughput at an equal-or-lower violation rate.
func TestBatchingAblationThroughput(t *testing.T) {
	dep := testDeploy(t)
	rows := BatchingAblation(dep, 8, 1)
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4 (batch 1,2,4,8)", len(rows))
	}
	base := rows[0]
	if base.BatchMax != 1 || base.BatchedGrants != 0 || base.LargestBatch != 0 {
		t.Fatalf("baseline row formed batches: %+v", base)
	}
	improved := false
	for _, r := range rows[1:] {
		if r.Requests != base.Requests || r.Served != base.Served {
			t.Fatalf("BatchMax=%d changed conservation: %+v vs base %+v", r.BatchMax, r, base)
		}
		if r.BatchedGrants == 0 || r.LargestBatch < 2 {
			t.Fatalf("BatchMax=%d formed no batches on a burst workload: %+v", r.BatchMax, r)
		}
		if r.LargestBatch > r.BatchMax {
			t.Fatalf("BatchMax=%d exceeded: largest batch %d", r.BatchMax, r.LargestBatch)
		}
		if r.ThroughputRps >= 1.5*base.ThroughputRps && r.Viol4 <= base.Viol4+1e-9 {
			improved = true
		}
	}
	if !improved {
		t.Errorf("no batch cap reached 1.5x baseline throughput at <= baseline violations:\n%s",
			RenderBatchingAblation(rows))
	}
	if RenderBatchingAblation(rows) == "" {
		t.Error("empty render")
	}
	// Capping the sweep caps the rows.
	if short := BatchingAblation(dep, 2, 1); len(short) != 2 {
		t.Errorf("maxBatch=2 produced %d rows, want 2", len(short))
	}
}

func TestBlockCountSweepInteriorOptimum(t *testing.T) {
	rows, err := BlockCountSweep("vgg19", 8, model.DefaultCostModel(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("%d rows", len(rows))
	}
	// The analytic even-split wait curve must have an interior minimum.
	minIdx := 0
	for i, r := range rows {
		if r.AnalyticEven < rows[minIdx].AnalyticEven {
			minIdx = i
		}
	}
	if minIdx == 0 {
		t.Error("analytic optimum at m=1 — no benefit from splitting?")
	}
	// Splitting helps: expected wait at the GA plan beats unsplit for m=2..4.
	for _, r := range rows[1:4] {
		if r.ExpectedWaitMs >= rows[0].ExpectedWaitMs {
			t.Errorf("m=%d: expected wait %v not below unsplit %v", r.Blocks, r.ExpectedWaitMs, rows[0].ExpectedWaitMs)
		}
	}
	if RenderBlockCountSweep(rows) == "" {
		t.Error("empty render")
	}
}

func TestInitAblationGuidedNoWorse(t *testing.T) {
	rows, err := InitAblation(model.DefaultCostModel(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("%d rows", len(rows))
	}
	var guidedGens, uniformGens int
	for _, r := range rows {
		if r.Guided {
			guidedGens += r.GensToBest
		} else {
			uniformGens += r.GensToBest
		}
	}
	// Guided initialization should not converge slower in aggregate.
	if guidedGens > uniformGens+6 {
		t.Errorf("guided init total gens %d much worse than uniform %d", guidedGens, uniformGens)
	}
	if RenderInitAblation(rows) == "" {
		t.Error("empty render")
	}
}

func TestHeadlineViolationReductionVsRTA(t *testing.T) {
	// §1: SPLIT reduces the latency violation rate by up to 43% vs the
	// state of the art. Check the max relative reduction vs RT-A at α=4
	// across scenarios is at least that.
	dep := testDeploy(t)
	best := 0.0
	for _, sc := range workload.Table2() {
		arrivals := workload.MustGenerate(workload.ForScenario(sc, zoo.BenchmarkModels, 1))
		s := metrics.ViolationRate(policy.NewSplit().Run(arrivals, dep.Catalog, nil), 4)
		r := metrics.ViolationRate(policy.NewRTA().Run(arrivals, dep.Catalog, nil), 4)
		if r > 0 {
			if red := 1 - s/r; red > best {
				best = red
			}
		}
	}
	if best < 0.43 {
		t.Errorf("max violation reduction vs RT-A = %.0f%%, paper claims up to 43%%", best*100)
	}
}

func TestFig1SplitBestAverage(t *testing.T) {
	dep := testDeploy(t)
	rows := Fig1(dep)
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	var splitRow Fig1Row
	for _, r := range rows {
		if r.System == "SPLIT" {
			splitRow = r
		}
	}
	for _, r := range rows {
		if r.System == "SPLIT" {
			continue
		}
		if r.AvgRR < splitRow.AvgRR {
			t.Errorf("%s avg RR %.2f beats SPLIT %.2f in the Figure 1 scenario",
				r.System, r.AvgRR, splitRow.AvgRR)
		}
	}
	// The FCFS short must wait the whole long model; SPLIT's short must not.
	if splitRow.ShortRR >= 4 {
		t.Errorf("SPLIT short RR %.2f too high", splitRow.ShortRR)
	}
	if RenderFig1(rows) == "" {
		t.Error("empty render")
	}
}

func TestStarvationAblationGuardHelpsLongTail(t *testing.T) {
	dep := testDeploy(t)
	rows := StarvationAblation(dep, 1)
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].GuardRR != 0 {
		t.Fatal("first row must be the unguarded baseline")
	}
	tightest := rows[len(rows)-1]
	if tightest.P95LongRR >= rows[0].P95LongRR {
		t.Errorf("guard did not improve long-request p95 RR: %.2f vs %.2f",
			tightest.P95LongRR, rows[0].P95LongRR)
	}
	if tightest.MeanShortRR <= rows[0].MeanShortRR {
		t.Errorf("guard should cost short requests something: %.2f vs %.2f",
			tightest.MeanShortRR, rows[0].MeanShortRR)
	}
	if RenderStarvationAblation(rows) == "" {
		t.Error("empty render")
	}
}

func TestFig6MultiSeedAggregation(t *testing.T) {
	dep := testDeploy(t)
	aggs := Fig6MultiSeed(dep, []policy.System{policy.NewSplit(), policy.NewRTA()}, 3)
	if len(aggs) != 12 {
		t.Fatalf("%d aggregates", len(aggs))
	}
	for _, a := range aggs {
		if a.Seeds != 3 || len(a.MeanCurve) != len(a.Alphas) {
			t.Fatalf("bad aggregate: %+v", a)
		}
		for i := range a.MeanCurve {
			if a.MeanCurve[i] < 0 || a.MeanCurve[i] > 1 {
				t.Fatalf("mean out of range at %d", i)
			}
			if a.StdCurve[i] < 0 {
				t.Fatalf("negative std at %d", i)
			}
		}
	}
	// The SPLIT-beats-RTA ordering must survive seed averaging.
	for i := 0; i < len(aggs); i += 2 {
		split, rta := aggs[i], aggs[i+1]
		if split.System != "SPLIT" || rta.System != "RT-A" {
			t.Fatal("unexpected aggregate order")
		}
		if split.MeanCurve[2] > rta.MeanCurve[2] {
			t.Errorf("%s: SPLIT mean %.3f above RT-A %.3f at α=4",
				split.Scenario.Name, split.MeanCurve[2], rta.MeanCurve[2])
		}
	}
	if RenderFig6Aggregate(aggs) == "" {
		t.Error("empty render")
	}
}

func TestFig7MultiSeedAggregation(t *testing.T) {
	dep := testDeploy(t)
	aggs := Fig7MultiSeed(dep, []policy.System{policy.NewSplit()}, 2)
	if len(aggs) != 6 {
		t.Fatalf("%d aggregates", len(aggs))
	}
	for _, a := range aggs {
		if len(a.MeanJitterMs) != 5 {
			t.Fatalf("%s: %d models", a.Scenario.Name, len(a.MeanJitterMs))
		}
	}
	if RenderFig7Aggregate(aggs) == "" {
		t.Error("empty render")
	}
}

func TestStabilityExperimentFootnote(t *testing.T) {
	dep := testDeploy(t)
	rows := StabilityExperiment(dep, []float64{200, 160, 90, 70}, 1)
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	byLambda := map[float64]StabilityRow{}
	for _, r := range rows {
		byLambda[r.LambdaMs] = r
	}
	// λ=200: light load, small bounded backlog, near-sequential service.
	if r := byLambda[200]; r.Utilization > 0.5 || r.MaxBacklog > 10 {
		t.Errorf("λ=200 not light: %+v", r)
	}
	// λ=70: overloaded, queue grows strongly across the run.
	if r := byLambda[70]; r.Utilization < 1.0 || r.TrendPerSec <= 0 || r.FinalBacklog < 50 {
		t.Errorf("λ=70 not unstable: %+v", r)
	}
	// Backlog pressure increases monotonically as λ shrinks.
	if !(byLambda[200].MaxBacklog <= byLambda[160].MaxBacklog &&
		byLambda[160].MaxBacklog <= byLambda[90].MaxBacklog &&
		byLambda[90].MaxBacklog <= byLambda[70].MaxBacklog) {
		t.Errorf("backlog not monotone in load: %+v", rows)
	}
	if RenderStability(rows) == "" {
		t.Error("empty render")
	}
}

func TestBurstinessAblationOrderingSurvives(t *testing.T) {
	dep := testDeploy(t)
	rows := BurstinessAblation(dep, 1)
	if len(rows) != 8 {
		t.Fatalf("%d rows", len(rows))
	}
	get := func(workload, system string) BurstinessRow {
		for _, r := range rows {
			if r.Workload == workload && r.System == system {
				return r
			}
		}
		t.Fatalf("missing row %s/%s", workload, system)
		return BurstinessRow{}
	}
	for _, w := range []string{"poisson", "mmpp"} {
		s := get(w, "SPLIT")
		for _, sys := range []string{"ClockWork", "PREMA", "RT-A"} {
			if got := get(w, sys); got.Viol4 < s.Viol4 {
				t.Errorf("%s: %s viol@4 %.3f below SPLIT %.3f", w, sys, got.Viol4, s.Viol4)
			}
			if got := get(w, sys); got.JitterS < s.JitterS {
				t.Errorf("%s: %s short jitter %.2f below SPLIT %.2f", w, sys, got.JitterS, s.JitterS)
			}
		}
	}
	// Burstiness hurts everyone in absolute terms.
	if get("mmpp", "SPLIT").MeanRR <= get("poisson", "SPLIT").MeanRR {
		t.Log("note: MMPP did not raise SPLIT's mean RR (acceptable, informational)")
	}
	if RenderBurstinessAblation(rows) == "" {
		t.Error("empty render")
	}
}
