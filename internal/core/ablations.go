package core

import (
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"

	"split/internal/analytic"
	"split/internal/ga"
	"split/internal/metrics"
	"split/internal/model"
	"split/internal/place"
	"split/internal/policy"
	"split/internal/profiler"
	"split/internal/stats"
	"split/internal/trace"
	"split/internal/workload"
	"split/internal/zoo"
)

// ---------------------------------------------------------------------------
// Ablation 1 — search strategies: GA vs random search vs exhaustive
// ---------------------------------------------------------------------------

// SearchAblationRow compares split-search strategies at a matched
// evaluation budget.
type SearchAblationRow struct {
	Model    string
	Blocks   int
	Strategy string
	StdDevMs float64
	Overhead float64
	Fitness  float64
	Evals    int
}

// SearchAblation runs GA, random search (same budget as the GA consumed)
// and, for 2 blocks, exhaustive search, on both long models.
func SearchAblation(cm model.CostModel, seed int64) ([]SearchAblationRow, error) {
	var rows []SearchAblationRow
	for _, name := range []string{"resnet50", "vgg19"} {
		g := zoo.MustLoad(name)
		p := profiler.New(g, cm)
		total := p.TotalTimeMs()
		for m := 2; m <= 4; m++ {
			cfg := ga.DefaultConfig(m)
			cfg.Seed = seed
			res, err := ga.Run(p, cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, SearchAblationRow{
				Model: name, Blocks: m, Strategy: "GA",
				StdDevMs: res.Best.StdDevMs, Overhead: res.Best.Overhead,
				Fitness: res.Fitness, Evals: res.Evaluations,
			})
			rc, rf := ga.RandomSearch(p, m, res.Evaluations, seed)
			rows = append(rows, SearchAblationRow{
				Model: name, Blocks: m, Strategy: "random",
				StdDevMs: rc.StdDevMs, Overhead: rc.Overhead,
				Fitness: rf, Evals: res.Evaluations,
			})
			hc := ga.HillClimb(p, m, res.Evaluations, seed)
			rows = append(rows, SearchAblationRow{
				Model: name, Blocks: m, Strategy: "hillclimb",
				StdDevMs: hc.Best.StdDevMs, Overhead: hc.Best.Overhead,
				Fitness: hc.Fitness, Evals: hc.Evaluations,
			})
			ac := ga.DefaultAnnealConfig()
			ac.MaxEvals = res.Evaluations
			ac.Seed = seed
			an := ga.Anneal(p, m, ac)
			rows = append(rows, SearchAblationRow{
				Model: name, Blocks: m, Strategy: "anneal",
				StdDevMs: an.Best.StdDevMs, Overhead: an.Best.Overhead,
				Fitness: an.Fitness, Evals: an.Evaluations,
			})
			if m == 2 {
				best, evals := p.Exhaustive(2, func(c profiler.Candidate) float64 {
					return -analytic.Fitness(c.StdDevMs, total, c.Overhead, 2)
				})
				rows = append(rows, SearchAblationRow{
					Model: name, Blocks: m, Strategy: "exhaustive",
					StdDevMs: best.StdDevMs, Overhead: best.Overhead,
					Fitness: analytic.Fitness(best.StdDevMs, total, best.Overhead, 2),
					Evals:   evals,
				})
			}
		}
	}
	return rows, nil
}

// RenderSearchAblation formats the rows.
func RenderSearchAblation(rows []SearchAblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %6s %-11s %9s %9s %10s %7s\n",
		"model", "blocks", "strategy", "std(ms)", "overhead", "fitness", "evals")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %6d %-11s %9.3f %8.1f%% %10.4f %7d\n",
			r.Model, r.Blocks, r.Strategy, r.StdDevMs, r.Overhead*100, r.Fitness, r.Evals)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Ablation 2 — evenness: even vs uneven vs no splitting
// ---------------------------------------------------------------------------

// EvennessAblationRow compares plan evenness regimes in one scenario.
type EvennessAblationRow struct {
	Scenario   workload.Scenario
	Plan       string
	MeanRR     float64
	Viol4      float64
	MeanWaitMs float64
	JitterSMs  float64
}

// EvennessAblation runs SPLIT under three plan regimes — GA (even), a
// deliberately uneven random split with the same block counts, and no
// splitting — on every scenario, demonstrating Eq. 1's claim that evenness
// (low σ) is what reduces waiting latency.
func EvennessAblation(cm model.CostModel, seed int64) ([]EvennessAblationRow, error) {
	pipe := DefaultPipeline()
	pipe.Cost = cm
	pipe.GASeed = seed
	dep, err := pipe.Deploy()
	if err != nil {
		return nil, err
	}

	// Uneven plans: cuts forced near the graph edges (worst case per §2.4).
	uneven := make(map[string]*model.SplitPlan, len(dep.Plans))
	rng := rand.New(rand.NewSource(seed))
	// Draw in name order: one rng feeds every model, so map order would
	// make the uneven plans differ from run to run.
	names := make([]string, 0, len(dep.Plans))
	for name := range dep.Plans {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		plan, g := dep.Plans[name], dep.Graphs[name]
		p := profiler.New(g, cm)
		k := len(plan.Cuts)
		cuts := make([]int, 0, k)
		for i := 0; i < k; i++ {
			// Positions inside the first 10% of the model: early, uneven.
			c := 1 + rng.Intn(max(1, g.NumOps()/10))
			for slices.Contains(cuts, c) {
				c++
			}
			cuts = append(cuts, c)
		}
		slices.Sort(cuts)
		cand := p.Evaluate(cuts)
		uneven[name] = p.Plan(cand)
	}

	regimes := []struct {
		name  string
		plans map[string]*model.SplitPlan
	}{
		{"even(GA)", dep.Plans},
		{"uneven", uneven},
		{"unsplit", nil},
	}
	var rows []EvennessAblationRow
	for _, sc := range workload.Table2() {
		for _, reg := range regimes {
			catalog := policy.NewCatalog(dep.Graphs, reg.plans)
			arrivals := workload.MustGenerate(workload.ForScenario(sc, zoo.BenchmarkModels, seed))
			recs := policy.NewSplit().Run(arrivals, catalog, nil)
			sum := metrics.Summarize(reg.name, recs)
			jc := metrics.JitterByClass(recs)
			rows = append(rows, EvennessAblationRow{
				Scenario:   sc,
				Plan:       reg.name,
				MeanRR:     sum.MeanRR,
				Viol4:      sum.ViolationAt4,
				MeanWaitMs: sum.MeanWaitMs,
				JitterSMs:  jc[model.Short],
			})
		}
	}
	return rows, nil
}

// RenderEvennessAblation formats the rows.
func RenderEvennessAblation(rows []EvennessAblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-10s %8s %8s %10s %10s\n",
		"scenario", "plan", "meanRR", "viol@4", "wait(ms)", "jitterS")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-10s %8.2f %7.1f%% %10.2f %10.2f\n",
			r.Scenario.Name, r.Plan, r.MeanRR, r.Viol4*100, r.MeanWaitMs, r.JitterSMs)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Ablation 3 — elastic splitting on/off
// ---------------------------------------------------------------------------

// ElasticAblationRow compares elastic splitting enabled vs disabled.
type ElasticAblationRow struct {
	Scenario   workload.Scenario
	Elastic    bool
	MeanRR     float64
	Viol4      float64
	MeanWaitMs float64
}

// ElasticAblation runs SPLIT with and without §3.3's elastic mechanism on a
// workload with same-type bursts injected, where elastic splitting should
// pay off by skipping useless splits.
func ElasticAblation(d *Deployment, seed int64) []ElasticAblationRow {
	var rows []ElasticAblationRow
	for _, sc := range workload.Table2() {
		arrivals := workload.MustGenerate(workload.ForScenario(sc, zoo.BenchmarkModels, seed))
		// Inject bursts of the long models partway through the run.
		at := arrivals[len(arrivals)/2].AtMs
		arrivals = workload.Burst(arrivals, "vgg19", at, 5, 6)
		arrivals = workload.Burst(arrivals, "resnet50", at+200, 5, 6)
		sortArrivals(arrivals)
		for _, elastic := range []bool{true, false} {
			sys := policy.NewSplit()
			sys.Elastic.Enabled = elastic
			recs := sys.Run(arrivals, d.Catalog, nil)
			sum := metrics.Summarize(sys.Name(), recs)
			rows = append(rows, ElasticAblationRow{
				Scenario:   sc,
				Elastic:    elastic,
				MeanRR:     sum.MeanRR,
				Viol4:      sum.ViolationAt4,
				MeanWaitMs: sum.MeanWaitMs,
			})
		}
	}
	return rows
}

// RenderElasticAblation formats the rows.
func RenderElasticAblation(rows []ElasticAblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-8s %8s %8s %10s\n", "scenario", "elastic", "meanRR", "viol@4", "wait(ms)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-8v %8.2f %7.1f%% %10.2f\n",
			r.Scenario.Name, r.Elastic, r.MeanRR, r.Viol4*100, r.MeanWaitMs)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Ablation 5 — block count sweep (Eq. 1 hyperbola)
// ---------------------------------------------------------------------------

// BlockCountRow is the expected waiting latency at one block count.
type BlockCountRow struct {
	Model          string
	Blocks         int
	StdDevMs       float64
	Overhead       float64
	ExpectedWaitMs float64 // Eq. 1 on the GA plan's block times
	AnalyticEven   float64 // Eq. 1 on perfectly even blocks with mean boundary
}

// BlockCountSweep runs the GA at m = 1..maxM and evaluates Eq. 1 on every
// plan, exposing the interior optimum (§3.1: "an optimal number of splits
// exists and more blocks may not be beneficial").
func BlockCountSweep(modelName string, maxM int, cm model.CostModel, seed int64) ([]BlockCountRow, error) {
	g, err := zoo.Load(modelName)
	if err != nil {
		return nil, err
	}
	p := profiler.New(g, cm)
	total := p.TotalTimeMs()
	// Mean boundary cost over all positions, for the analytic curve.
	var meanBoundary float64
	for _, op := range g.Ops[:g.NumOps()-1] {
		meanBoundary += cm.BoundaryMs(op.OutBytes)
	}
	meanBoundary /= float64(g.NumOps() - 1)

	rows := []BlockCountRow{{
		Model:          modelName,
		Blocks:         1,
		ExpectedWaitMs: analytic.ExpectedWait([]float64{total}),
		AnalyticEven:   analytic.EvenWait(total, meanBoundary, 1),
	}}
	for m := 2; m <= maxM; m++ {
		cfg := ga.DefaultConfig(m)
		cfg.Seed = seed
		res, err := ga.Run(p, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, BlockCountRow{
			Model:          modelName,
			Blocks:         m,
			StdDevMs:       res.Best.StdDevMs,
			Overhead:       res.Best.Overhead,
			ExpectedWaitMs: analytic.ExpectedWait(res.Best.BlockTimesMs),
			AnalyticEven:   analytic.EvenWait(total, meanBoundary, m),
		})
	}
	return rows, nil
}

// RenderBlockCountSweep formats the rows.
func RenderBlockCountSweep(rows []BlockCountRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %6s %9s %9s %12s %12s\n",
		"model", "blocks", "std(ms)", "overhead", "E[wait] GA", "E[wait] even")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %6d %9.3f %8.1f%% %12.3f %12.3f\n",
			r.Model, r.Blocks, r.StdDevMs, r.Overhead*100, r.ExpectedWaitMs, r.AnalyticEven)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Ablation 7 — starvation guard (extension beyond the paper)
// ---------------------------------------------------------------------------

// StarvationRow compares SPLIT with and without the starvation guard on a
// short-heavy workload that keeps passing the long requests.
type StarvationRow struct {
	GuardRR     float64 // 0 = paper behaviour
	MaxLongRR   float64
	P95LongRR   float64
	MeanShortRR float64
	Viol4       float64
}

// StarvationAblation floods the device with short requests (4:1 short:long
// mix at high load) and reports the tail response ratio of long requests
// under different guard settings.
func StarvationAblation(d *Deployment, seed int64) []StarvationRow {
	cfg := workload.Config{
		Models:         zoo.BenchmarkModels,
		Weights:        []float64{4, 4, 1, 1, 4}, // yolov2, googlenet, resnet50, vgg19, gpt2
		MeanIntervalMs: 24,
		Count:          1000,
		Seed:           seed,
	}
	arrivals := workload.MustGenerate(cfg)
	var rows []StarvationRow
	for _, guard := range []float64{0, 20, 10, 6} {
		sys := policy.NewSplit()
		sys.StarveGuardRR = guard
		recs := sys.Run(arrivals, d.Catalog, nil)
		var longRRs, shortRRs []float64
		for _, r := range recs {
			if r.Class == model.Long {
				longRRs = append(longRRs, r.ResponseRatio())
			} else {
				shortRRs = append(shortRRs, r.ResponseRatio())
			}
		}
		row := StarvationRow{
			GuardRR: guard,
			Viol4:   metrics.ViolationRate(recs, 4),
		}
		if len(longRRs) > 0 {
			row.MaxLongRR = stats.Max(longRRs)
			row.P95LongRR = stats.Percentile(longRRs, 95)
		}
		if len(shortRRs) > 0 {
			row.MeanShortRR = stats.Mean(shortRRs)
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderStarvationAblation formats the rows.
func RenderStarvationAblation(rows []StarvationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s %12s %13s %8s\n",
		"guard RR", "max long RR", "p95 long RR", "mean short RR", "viol@4")
	for _, r := range rows {
		guard := "off"
		if r.GuardRR > 0 {
			guard = fmt.Sprintf("%.0f", r.GuardRR)
		}
		fmt.Fprintf(&b, "%-10s %12.2f %12.2f %13.2f %7.1f%%\n",
			guard, r.MaxLongRR, r.P95LongRR, r.MeanShortRR, r.Viol4*100)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Ablation 6 — guided vs uniform GA initialization
// ---------------------------------------------------------------------------

// InitAblationRow compares observation-guided vs uniform initialization.
type InitAblationRow struct {
	Model       string
	Blocks      int
	Guided      bool
	GensToBest  int
	FinalStdMs  float64
	FinalOver   float64
	Evaluations int
}

// InitAblation measures how many generations each initialization needs to
// reach its final best fitness.
func InitAblation(cm model.CostModel, seed int64) ([]InitAblationRow, error) {
	var rows []InitAblationRow
	for _, name := range []string{"resnet50", "vgg19"} {
		g := zoo.MustLoad(name)
		p := profiler.New(g, cm)
		for m := 2; m <= 4; m++ {
			for _, guided := range []bool{true, false} {
				cfg := ga.DefaultConfig(m)
				cfg.Seed = seed
				cfg.GuidedInit = guided
				res, err := ga.Run(p, cfg)
				if err != nil {
					return nil, err
				}
				gens := len(res.PerGeneration)
				for i, gs := range res.PerGeneration {
					if gs.BestFitness == res.Fitness {
						gens = i
						break
					}
				}
				rows = append(rows, InitAblationRow{
					Model: name, Blocks: m, Guided: guided,
					GensToBest:  gens,
					FinalStdMs:  res.Best.StdDevMs,
					FinalOver:   res.Best.Overhead,
					Evaluations: res.Evaluations,
				})
			}
		}
	}
	return rows, nil
}

// RenderInitAblation formats the rows.
func RenderInitAblation(rows []InitAblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %6s %-7s %11s %10s %9s %6s\n",
		"model", "blocks", "init", "gensToBest", "std(ms)", "overhead", "evals")
	for _, r := range rows {
		init := "uniform"
		if r.Guided {
			init = "guided"
		}
		fmt.Fprintf(&b, "%-10s %6d %-7s %11d %10.3f %8.1f%% %6d\n",
			r.Model, r.Blocks, init, r.GensToBest, r.FinalStdMs, r.FinalOver*100, r.Evaluations)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Ablation 8 — burstiness robustness (extension beyond the paper)
// ---------------------------------------------------------------------------

// BurstinessRow compares systems under an MMPP trace matched in mean rate
// to a Poisson trace.
type BurstinessRow struct {
	Workload string // "poisson" or "mmpp"
	System   string
	MeanRR   float64
	Viol4    float64
	JitterS  float64
}

// BurstinessAblation replays a Poisson trace and a rate-matched bursty MMPP
// trace through the four systems. The paper evaluates Poisson only; this
// extension checks the ordering survives realistic burstiness.
func BurstinessAblation(d *Deployment, seed int64) []BurstinessRow {
	// Mean aggregate interval ≈ Scenario4's.
	sc := workload.Table2()[3]
	agg := sc.MeanIntervalMs * workload.TaskIntervalFactor / float64(len(zoo.BenchmarkModels))
	poisson := workload.MustGenerate(workload.ForScenario(sc, zoo.BenchmarkModels, seed))
	// MMPP: bursts run 4x faster than calm; dwell chosen so the mean
	// interval matches agg. With half the time in each state (equal
	// dwells), mean rate = (1/calm + 1/burst)/2; solve calm = 2.5 agg,
	// burst = calm/4 gives mean interval = 1/((0.4+1.6)/(2·agg)) = agg.
	mmpp, err := workload.GenerateMMPP(workload.MMPPConfig{
		Models:          zoo.BenchmarkModels,
		CalmIntervalMs:  2.5 * agg,
		BurstIntervalMs: 2.5 * agg / 4,
		CalmDwellMs:     3000,
		BurstDwellMs:    3000,
		Count:           1000,
		Seed:            seed,
	})
	if err != nil {
		panic(err) // static config; cannot fail
	}

	var rows []BurstinessRow
	for _, tracePair := range []struct {
		name     string
		arrivals []workload.Arrival
	}{{"poisson", poisson}, {"mmpp", mmpp}} {
		for _, sys := range DefaultSystems() {
			recs := sys.Run(tracePair.arrivals, d.Catalog, nil)
			sum := metrics.Summarize(sys.Name(), recs)
			rows = append(rows, BurstinessRow{
				Workload: tracePair.name,
				System:   sys.Name(),
				MeanRR:   sum.MeanRR,
				Viol4:    sum.ViolationAt4,
				JitterS:  sum.JitterShortMs,
			})
		}
	}
	return rows
}

// RenderBurstinessAblation formats the rows.
func RenderBurstinessAblation(rows []BurstinessRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %-16s %8s %8s %10s\n", "workload", "system", "meanRR", "viol@4", "jitterS")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %-16s %8.2f %7.1f%% %10.2f\n",
			r.Workload, r.System, r.MeanRR, r.Viol4*100, r.JitterS)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Ablation 9 — deadline shedding under overload (extension beyond the paper)
// ---------------------------------------------------------------------------

// SheddingRow compares SPLIT's deadline-shedding modes on one scenario.
type SheddingRow struct {
	Scenario workload.Scenario
	// Mode is "none" (paper behavior: every request runs to completion),
	// "deadline" (shed once the α·t_ext deadline passes), or "predictive"
	// (also shed requests that can no longer make their deadline).
	Mode       string
	Dropped    int
	Viol4      float64
	MeanRR     float64 // served requests only
	MeanWaitMs float64 // served requests only
}

// SheddingAblation measures what admission honesty buys under load: without
// shedding, every doomed request still occupies the device and pushes the
// requests behind it past their own targets; with deadline shedding the
// violation rate already counts the shed requests, so any improvement is
// genuine — served requests finishing inside their targets because dead
// weight was cleared at block boundaries.
func SheddingAblation(d *Deployment, seed int64) []SheddingRow {
	var rows []SheddingRow
	for _, sc := range workload.Table2() {
		arrivals := workload.MustGenerate(workload.ForScenario(sc, zoo.BenchmarkModels, seed))
		for _, mode := range []string{"none", "deadline", "predictive"} {
			sys := policy.NewSplit()
			sys.EnforceDeadlines = mode != "none"
			sys.PredictiveShed = mode == "predictive"
			recs := sys.Run(arrivals, d.Catalog, nil)
			sum := metrics.Summarize(sys.Name(), recs)
			rows = append(rows, SheddingRow{
				Scenario:   sc,
				Mode:       mode,
				Dropped:    sum.Dropped,
				Viol4:      sum.ViolationAt4,
				MeanRR:     sum.MeanRR,
				MeanWaitMs: sum.MeanWaitMs,
			})
		}
	}
	return rows
}

// RenderSheddingAblation formats the rows.
func RenderSheddingAblation(rows []SheddingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-10s %8s %8s %8s %10s\n",
		"scenario", "shedding", "dropped", "viol@4", "meanRR", "wait(ms)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-10s %8d %7.1f%% %8.2f %10.2f\n",
			r.Scenario.Name, r.Mode, r.Dropped, r.Viol4*100, r.MeanRR, r.MeanWaitMs)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Ablation 10 — fleet placement policies (extension beyond the paper)
// ---------------------------------------------------------------------------

// PlacementRow compares one fleet placement policy on the heavy scenario.
type PlacementRow struct {
	Scenario  workload.Scenario
	Devices   int
	Placement string
	MeanRR    float64
	Viol4     float64
	JitterSMs float64
	// Per-device utilization spread over the trace horizon: a policy that
	// balances well has a narrow min..max band.
	UtilMean float64
	UtilMin  float64
	UtilMax  float64
}

// PlacementAblation replays the heaviest Table 2 scenario through the
// fleet simulator under every placement policy. The arrival rate is scaled
// by the device count so each device sees Scenario6-level load — otherwise
// adding devices would turn the heavy scenario into an idle one and every
// policy would look alike.
func PlacementAblation(d *Deployment, devices int, seed int64) []PlacementRow {
	sc := workload.Table2()[5]
	cfg := workload.ForScenario(sc, zoo.BenchmarkModels, seed)
	cfg.MeanIntervalMs /= float64(devices)
	arrivals := workload.MustGenerate(cfg)
	var rows []PlacementRow
	for _, pol := range place.Names() {
		sys := policy.NewSplit()
		sys.Devices = devices
		sys.Placement = pol
		tr := trace.New()
		recs := sys.Run(arrivals, d.Catalog, tr)
		sum := metrics.Summarize(pol, recs)
		row := PlacementRow{
			Scenario:  sc,
			Devices:   devices,
			Placement: pol,
			MeanRR:    sum.MeanRR,
			Viol4:     sum.ViolationAt4,
			JitterSMs: sum.JitterShortMs,
		}
		if an := tr.Analyze(); an.HorizonMs > 0 {
			for i := 0; i < devices; i++ {
				u := an.PerDeviceBusyMs[i] / an.HorizonMs
				row.UtilMean += u / float64(devices)
				if i == 0 || u < row.UtilMin {
					row.UtilMin = u
				}
				if u > row.UtilMax {
					row.UtilMax = u
				}
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderPlacementAblation formats the rows.
func RenderPlacementAblation(rows []PlacementRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %7s %-13s %8s %8s %10s %22s\n",
		"scenario", "devices", "placement", "meanRR", "viol@4", "jitterS", "util mean/min/max")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %7d %-13s %8.2f %7.1f%% %10.2f %6.1f%% %6.1f%% %6.1f%%\n",
			r.Scenario.Name, r.Devices, r.Placement, r.MeanRR, r.Viol4*100, r.JitterSMs,
			r.UtilMean*100, r.UtilMin*100, r.UtilMax*100)
	}
	return b.String()
}

// PlacementAblationCSV writes the rows as CSV with a header.
func PlacementAblationCSV(w io.Writer, rows []PlacementRow) error {
	if _, err := fmt.Fprintln(w, "scenario,devices,placement,mean_rr,viol_at_4,jitter_short_ms,util_mean,util_min,util_max"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%d,%s,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f\n",
			r.Scenario.Name, r.Devices, r.Placement, r.MeanRR, r.Viol4, r.JitterSMs,
			r.UtilMean, r.UtilMin, r.UtilMax); err != nil {
			return err
		}
	}
	return nil
}

// sortArrivals orders arrivals by time. The sort is stable so same-instant
// burst arrivals keep their generation order.
func sortArrivals(arrivals []workload.Arrival) {
	slices.SortStableFunc(arrivals, func(a, b workload.Arrival) int { return cmp.Compare(a.AtMs, b.AtMs) })
}

// ---------------------------------------------------------------------------
// Ablation — same-type micro-batching sweep
// ---------------------------------------------------------------------------

// BatchingRow is one batch-cap setting evaluated on the same-type burst
// workload.
type BatchingRow struct {
	BatchMax      int
	Requests      int
	Served        int
	BatchedGrants int     // device grants that coalesced > 1 request
	LargestBatch  int     // biggest batch actually formed
	MakespanMs    float64 // last completion time
	ThroughputRps float64 // served requests per second of makespan
	MeanRR        float64
	Viol4         float64
}

// BatchingAblation sweeps the micro-batch cap on a same-type burst-heavy
// workload: two large back-to-back bursts (the elastic mechanism keeps their
// members unsplit, which is exactly the run structure batching coalesces)
// over a light mixed background. BatchMax 1 is the serial baseline; the
// sweep stops at maxBatch (values beyond it are skipped).
func BatchingAblation(d *Deployment, maxBatch int, seed int64) []BatchingRow {
	background := workload.MustGenerate(workload.Config{
		Models: zoo.BenchmarkModels, MeanIntervalMs: 20, Count: 10, Seed: seed,
	})
	// Both bursts land within the first ~60ms, so the queue saturates and
	// the makespan measures service capacity rather than arrival span.
	arrivals := workload.Burst(background, "resnet50", 10, 1, 32)
	arrivals = workload.Burst(arrivals, "vgg19", 45, 1, 16)
	sortArrivals(arrivals)

	var rows []BatchingRow
	for _, b := range []int{1, 2, 4, 8} {
		if b > maxBatch && b != 1 {
			continue
		}
		sys := policy.NewSplit()
		sys.BatchMax = b
		tr := trace.New()
		recs := sys.Run(arrivals, d.Catalog, tr)
		sum := metrics.Summarize(sys.Name(), recs)
		row := BatchingRow{BatchMax: b, Requests: len(recs)}
		for _, r := range recs {
			if r.Served() {
				row.Served++
			}
			if r.DoneMs > row.MakespanMs {
				row.MakespanMs = r.DoneMs
			}
		}
		grants := map[int]int{}
		for _, e := range tr.Events() {
			if e.Kind == trace.StartBlock && e.Batch != 0 {
				grants[e.Batch]++
			}
		}
		row.BatchedGrants = len(grants)
		for _, n := range grants {
			row.LargestBatch = max(row.LargestBatch, n)
		}
		if row.MakespanMs > 0 {
			row.ThroughputRps = float64(row.Served) / row.MakespanMs * 1000
		}
		row.MeanRR = sum.MeanRR
		row.Viol4 = sum.ViolationAt4
		rows = append(rows, row)
	}
	return rows
}

// RenderBatchingAblation formats the rows.
func RenderBatchingAblation(rows []BatchingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %8s %8s %8s %8s %12s %8s %8s %8s\n",
		"batch", "reqs", "served", "grants", "maxsize", "makespan(ms)", "rps", "meanRR", "viol@4")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %8d %8d %8d %8d %12.1f %8.2f %8.2f %7.1f%%\n",
			r.BatchMax, r.Requests, r.Served, r.BatchedGrants, r.LargestBatch,
			r.MakespanMs, r.ThroughputRps, r.MeanRR, r.Viol4*100)
	}
	return b.String()
}
