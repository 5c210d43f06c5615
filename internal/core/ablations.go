package core

import (
	"cmp"
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"split/internal/analytic"
	"split/internal/ga"
	"split/internal/metrics"
	"split/internal/model"
	"split/internal/place"
	"split/internal/policy"
	"split/internal/profiler"
	"split/internal/sched"
	"split/internal/stats"
	"split/internal/trace"
	"split/internal/workload"
	"split/internal/zoo"
)

// ---------------------------------------------------------------------------
// The simulator ablations' shape: workloads × arms, one Row per run, one
// text table and one CSV writer
// ---------------------------------------------------------------------------

// Ablation is one simulator ablation: every arm replays every workload, and
// each run folds into one Row. Labels and Metrics pick the table's columns.
type Ablation struct {
	Labels    []Column // the workload's label columns, then the arm's
	Metrics   []string // metric columns, by text header (see metricColumns)
	Workloads []Workload
	Arms      []Arm
}

// Column is a label column: its header and printf width, negative for
// left-aligned.
type Column struct {
	Header string
	Width  int
}

// Workload is one trace an ablation replays, with its label cells.
type Workload struct {
	Labels   []string
	Arrivals []workload.Arrival
}

// Arm is one configuration an ablation compares, with its label cells.
type Arm struct {
	Labels  []string
	System  policy.System
	Catalog policy.Catalog
}

// Row is one (workload, arm) run: the cells that label it and every metric
// an ablation table can show.
type Row struct {
	Labels []string // the workload's, then the arm's

	Requests, Served, Dropped int
	// MakespanMs is the last completion time; ThroughputRps is served
	// requests per second of it.
	MakespanMs, ThroughputRps float64
	// metrics.Summarize's: the latency ones cover served requests only.
	MeanRR, Viol4, MeanWaitMs, JitterShortMs float64
	// Response ratios by class, over every record.
	MaxLongRR, P95LongRR, MeanShortRR float64
	// Per-device busy share of the trace horizon: a policy that balances
	// well has a narrow min..max band.
	UtilMean, UtilMin, UtilMax float64
	// BatchedGrants counts device grants that coalesced > 1 request, and
	// LargestBatch is the biggest batch actually formed.
	BatchedGrants, LargestBatch int
}

// Run replays every workload through every arm, workload outer and arm
// inner; the runs share the cores through each.
func (a *Ablation) Run() []Row {
	rows := make([]Row, len(a.Workloads)*len(a.Arms))
	each(len(rows), func(k int) {
		rows[k] = measure(a.Workloads[k/len(a.Arms)], a.Arms[k%len(a.Arms)])
	})
	return rows
}

// measure runs one arm on one workload, traced, and folds the records and
// the trace's span tree into a Row.
func measure(w Workload, arm Arm) Row {
	tr := trace.New()
	recs := arm.System.Run(w.Arrivals, arm.Catalog, tr)
	sum := metrics.Summarize(arm.System.Name(), recs)
	row := Row{
		Labels:   slices.Concat(w.Labels, arm.Labels),
		Requests: sum.Requests, Served: sum.Requests - sum.Dropped, Dropped: sum.Dropped,
		MeanRR: sum.MeanRR, Viol4: sum.ViolationAt4, MeanWaitMs: sum.MeanWaitMs, JitterShortMs: sum.JitterShortMs,
	}
	rrs := map[model.RequestClass][]float64{}
	for i := range recs {
		row.MakespanMs = max(row.MakespanMs, recs[i].DoneMs)
		rrs[recs[i].Class] = append(rrs[recs[i].Class], recs[i].ResponseRatio())
	}
	if row.MakespanMs > 0 {
		row.ThroughputRps = float64(row.Served) / row.MakespanMs * 1000
	}
	if long := rrs[model.Long]; len(long) > 0 {
		row.MaxLongRR, row.P95LongRR = stats.Max(long), stats.Percentile(long, 95)
	}
	row.MeanShortRR = stats.Mean(rrs[model.Short])

	devices := 1
	if s, ok := arm.System.(*policy.Split); ok {
		devices = max(s.Devices, 1)
	}
	tree := trace.SpanBuilder{}.BuildTracer(tr)
	if an := tree.Analyze(); an.HorizonMs > 0 {
		util := make([]float64, devices)
		for i := range util {
			util[i] = an.PerDeviceBusyMs[i] / an.HorizonMs
			row.UtilMean += util[i] / float64(devices)
		}
		row.UtilMin, row.UtilMax = slices.Min(util), slices.Max(util)
	}
	grants := map[int32]int{} // batch id → requests in it
	for _, sp := range tree.Requests {
		for _, iv := range sp.Intervals {
			if iv.Phase == trace.PhaseExec && iv.Batch != 0 {
				grants[iv.Batch]++
				row.LargestBatch = max(row.LargestBatch, grants[iv.Batch])
			}
		}
	}
	row.BatchedGrants = len(grants)
	return row
}

// metricColumn is how one metric prints, the same in every table: its text
// header right-aligned to width, each value in cell (a cell ending in "%%"
// shows the value ×100), and in CSV each value raw at prec decimals under
// its own header.
type metricColumn struct {
	width  int
	cell   string
	csv    string // comma-separated, one header per value
	prec   int
	values func(*Row) []float64
}

// metricColumns holds every metric a Row carries, keyed by text header.
var metricColumns = map[string]metricColumn{
	"reqs":          {8, "%8.0f", "requests", 0, func(r *Row) []float64 { return []float64{float64(r.Requests)} }},
	"served":        {8, "%8.0f", "served", 0, func(r *Row) []float64 { return []float64{float64(r.Served)} }},
	"dropped":       {8, "%8.0f", "dropped", 0, func(r *Row) []float64 { return []float64{float64(r.Dropped)} }},
	"grants":        {8, "%8.0f", "batched_grants", 0, func(r *Row) []float64 { return []float64{float64(r.BatchedGrants)} }},
	"maxsize":       {8, "%8.0f", "largest_batch", 0, func(r *Row) []float64 { return []float64{float64(r.LargestBatch)} }},
	"makespan(ms)":  {12, "%12.1f", "makespan_ms", 4, func(r *Row) []float64 { return []float64{r.MakespanMs} }},
	"rps":           {8, "%8.2f", "throughput_rps", 4, func(r *Row) []float64 { return []float64{r.ThroughputRps} }},
	"meanRR":        {8, "%8.2f", "mean_rr", 4, func(r *Row) []float64 { return []float64{r.MeanRR} }},
	"viol@4":        {8, "%7.1f%%", "viol_at_4", 4, func(r *Row) []float64 { return []float64{r.Viol4} }},
	"wait(ms)":      {10, "%10.2f", "mean_wait_ms", 4, func(r *Row) []float64 { return []float64{r.MeanWaitMs} }},
	"jitterS":       {10, "%10.2f", "jitter_short_ms", 4, func(r *Row) []float64 { return []float64{r.JitterShortMs} }},
	"max long RR":   {12, "%12.2f", "max_long_rr", 4, func(r *Row) []float64 { return []float64{r.MaxLongRR} }},
	"p95 long RR":   {12, "%12.2f", "p95_long_rr", 4, func(r *Row) []float64 { return []float64{r.P95LongRR} }},
	"mean short RR": {13, "%13.2f", "mean_short_rr", 4, func(r *Row) []float64 { return []float64{r.MeanShortRR} }},
	"util mean/min/max": {22, "%6.1f%%", "util_mean,util_min,util_max", 4,
		func(r *Row) []float64 { return []float64{r.UtilMean, r.UtilMin, r.UtilMax} }},
}

// Render formats rows as the ablation's text table.
func (a *Ablation) Render(rows []Row) string {
	var head []string
	for _, c := range a.Labels {
		head = append(head, fmt.Sprintf("%*s", c.Width, c.Header))
	}
	for _, name := range a.Metrics {
		head = append(head, fmt.Sprintf("%*s", metricColumns[name].width, name))
	}
	lines := []string{strings.Join(head, " ")}
	for i := range rows {
		var cells []string
		for j, c := range a.Labels {
			cells = append(cells, fmt.Sprintf("%*s", c.Width, rows[i].Labels[j]))
		}
		for _, name := range a.Metrics {
			m := metricColumns[name]
			for _, v := range m.values(&rows[i]) {
				if strings.HasSuffix(m.cell, "%%") {
					v *= 100
				}
				cells = append(cells, fmt.Sprintf(m.cell, v))
			}
		}
		lines = append(lines, strings.Join(cells, " "))
	}
	return strings.Join(lines, "\n") + "\n"
}

// WriteCSV writes rows as CSV: a header line, then per row its label cells
// and the raw metric values.
func (a *Ablation) WriteCSV(w io.Writer, rows []Row) error {
	var head []string
	for _, c := range a.Labels {
		head = append(head, c.Header)
	}
	for _, name := range a.Metrics {
		head = append(head, strings.Split(metricColumns[name].csv, ",")...)
	}
	lines := [][]string{head}
	for i := range rows {
		cells := slices.Clone(rows[i].Labels)
		for _, name := range a.Metrics {
			m := metricColumns[name]
			for _, v := range m.values(&rows[i]) {
				cells = append(cells, strconv.FormatFloat(v, 'f', m.prec, 64))
			}
		}
		lines = append(lines, cells)
	}
	return csv.NewWriter(w).WriteAll(lines)
}

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

// EvennessAblation runs SPLIT under three plan regimes — GA (even), a
// deliberately uneven random split with the same block counts, and no
// splitting — on every scenario, demonstrating Eq. 1's claim that evenness
// (low σ) is what reduces waiting latency. It deploys its own plans, with
// the GA seeded by seed.
func EvennessAblation(cm model.CostModel, seed int64) (*Ablation, error) {
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
		g := dep.Graphs[name]
		var cuts []int
		for range dep.Plans[name].Cuts {
			// Positions inside the first 10% of the model: early, uneven.
			c := 1 + rng.Intn(max(1, g.NumOps()/10))
			for slices.Contains(cuts, c) {
				c++
			}
			cuts = append(cuts, c)
		}
		slices.Sort(cuts)
		p := profiler.New(g, cm)
		uneven[name] = p.Plan(p.Evaluate(cuts))
	}

	arm := func(label string, plans map[string]*model.SplitPlan) Arm {
		return Arm{[]string{label}, policy.NewSplit(), policy.NewCatalog(dep.Graphs, plans)}
	}
	return &Ablation{
		Labels:    []Column{{"scenario", -12}, {"plan", -10}},
		Metrics:   []string{"meanRR", "viol@4", "wait(ms)", "jitterS"},
		Workloads: scenarioWorkloads(seed),
		Arms:      []Arm{arm("even(GA)", dep.Plans), arm("uneven", uneven), arm("unsplit", nil)},
	}, nil
}

// scenarioWorkloads is one workload per Table 2 scenario, labeled by name.
func scenarioWorkloads(seed int64) []Workload {
	var ws []Workload
	for _, sc := range workload.Table2() {
		ws = append(ws, Workload{[]string{sc.Name}, scenarioTrace(sc, seed)})
	}
	return ws
}

// ---------------------------------------------------------------------------
// Ablation 3 — elastic splitting on/off
// ---------------------------------------------------------------------------

// ElasticAblation runs SPLIT with and without §3.3's elastic mechanism on a
// workload with same-type bursts injected, where elastic splitting should
// pay off by skipping useless splits.
func ElasticAblation(d *Deployment, seed int64) *Ablation {
	ws := scenarioWorkloads(seed)
	for i := range ws {
		// Inject bursts of the long models partway through the run.
		arrivals := ws[i].Arrivals
		at := arrivals[len(arrivals)/2].AtMs
		arrivals = workload.Burst(arrivals, "vgg19", at, 5, 6)
		arrivals = workload.Burst(arrivals, "resnet50", at+200, 5, 6)
		sortArrivals(arrivals)
		ws[i].Arrivals = arrivals
	}
	static := policy.NewSplit()
	static.Elastic = sched.Elastic{}
	return &Ablation{
		Labels:    []Column{{"scenario", -12}, {"elastic", -8}},
		Metrics:   []string{"meanRR", "viol@4", "wait(ms)"},
		Workloads: ws,
		Arms:      []Arm{{[]string{"true"}, policy.NewSplit(), d.Catalog}, {[]string{"false"}, static, d.Catalog}},
	}
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

// StarvationAblation floods the device with short requests (4:1 short:long
// mix at high load) and reports the tail response ratio of long requests
// under different guard settings; "off" is the paper's behaviour.
func StarvationAblation(d *Deployment, seed int64) *Ablation {
	cfg := workload.Config{
		Models:         zoo.BenchmarkModels,
		Weights:        []float64{4, 4, 1, 1, 4}, // yolov2, googlenet, resnet50, vgg19, gpt2
		MeanIntervalMs: 24,
		Count:          1000,
		Seed:           seed,
	}
	a := &Ablation{
		Labels:    []Column{{"guard RR", -10}},
		Metrics:   []string{"max long RR", "p95 long RR", "mean short RR", "viol@4"},
		Workloads: []Workload{{nil, workload.MustGenerate(cfg)}},
	}
	for _, guard := range []float64{0, 20, 10, 6} {
		sys := policy.NewSplit()
		sys.StarveGuardRR = guard
		label := "off"
		if guard > 0 {
			label = fmt.Sprintf("%.0f", guard)
		}
		a.Arms = append(a.Arms, Arm{[]string{label}, sys, d.Catalog})
	}
	return a
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

// BurstinessAblation replays a Poisson trace and a rate-matched bursty MMPP
// trace through the four systems. The paper evaluates Poisson only; this
// extension checks the ordering survives realistic burstiness.
func BurstinessAblation(d *Deployment, seed int64) *Ablation {
	// Mean aggregate interval ≈ Scenario4's.
	sc := workload.Table2()[3]
	agg := sc.MeanIntervalMs * workload.TaskIntervalFactor / float64(len(zoo.BenchmarkModels))
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
	a := &Ablation{
		Labels:    []Column{{"workload", -9}, {"system", -16}},
		Metrics:   []string{"meanRR", "viol@4", "jitterS"},
		Workloads: []Workload{{[]string{"poisson"}, scenarioTrace(sc, seed)}, {[]string{"mmpp"}, mmpp}},
	}
	for _, sys := range DefaultSystems() {
		a.Arms = append(a.Arms, Arm{[]string{sys.Name()}, sys, d.Catalog})
	}
	return a
}

// ---------------------------------------------------------------------------
// Ablation 9 — deadline shedding under overload (extension beyond the paper)
// ---------------------------------------------------------------------------

// SheddingAblation measures what admission honesty buys under load: without
// shedding ("none", the paper's behavior), every doomed request still
// occupies the device and pushes the requests behind it past their own
// targets; with "deadline" shedding (shed once the α·t_ext deadline passes)
// the violation rate already counts the shed requests, so any improvement is
// genuine — served requests finishing inside their targets because dead
// weight was cleared at block boundaries. "predictive" also sheds requests
// that can no longer make their deadline. meanRR and wait cover served
// requests only.
func SheddingAblation(d *Deployment, seed int64) *Ablation {
	a := &Ablation{
		Labels:    []Column{{"scenario", -12}, {"shedding", -10}},
		Metrics:   []string{"dropped", "viol@4", "meanRR", "wait(ms)"},
		Workloads: scenarioWorkloads(seed),
	}
	for _, mode := range []string{"none", "deadline", "predictive"} {
		sys := policy.NewSplit()
		sys.EnforceDeadlines = mode != "none"
		sys.PredictiveShed = mode == "predictive"
		a.Arms = append(a.Arms, Arm{[]string{mode}, sys, d.Catalog})
	}
	return a
}

// ---------------------------------------------------------------------------
// Ablation 10 — fleet placement policies (extension beyond the paper)
// ---------------------------------------------------------------------------

// PlacementAblation replays the heaviest Table 2 scenario through the
// fleet simulator under every placement policy. The arrival rate is scaled
// by the device count so each device sees Scenario6-level load — otherwise
// adding devices would turn the heavy scenario into an idle one and every
// policy would look alike.
func PlacementAblation(d *Deployment, devices int, seed int64) *Ablation {
	sc := workload.Table2()[5]
	cfg := workload.ForScenario(sc, zoo.BenchmarkModels, seed)
	cfg.MeanIntervalMs /= float64(devices)
	a := &Ablation{
		Labels:    []Column{{"scenario", -12}, {"devices", 7}, {"placement", -13}},
		Metrics:   []string{"meanRR", "viol@4", "jitterS", "util mean/min/max"},
		Workloads: []Workload{{[]string{sc.Name, strconv.Itoa(devices)}, workload.MustGenerate(cfg)}},
	}
	for _, pol := range place.Names() {
		sys := policy.NewSplit()
		sys.Devices = devices
		sys.Placement = pol
		a.Arms = append(a.Arms, Arm{[]string{pol}, sys, d.Catalog})
	}
	return a
}

// sortArrivals orders arrivals by time. The sort is stable so same-instant
// burst arrivals keep their generation order.
func sortArrivals(arrivals []workload.Arrival) {
	slices.SortStableFunc(arrivals, func(a, b workload.Arrival) int { return cmp.Compare(a.AtMs, b.AtMs) })
}

// burstWorkload is a same-type burst-heavy trace: two large back-to-back
// bursts (the elastic mechanism keeps their members unsplit, which is the
// run structure batching coalesces and a single lane serializes) over a
// light mixed background. Both bursts land within the first ~60ms, so the
// queue saturates and the makespan measures service capacity rather than
// arrival span.
func burstWorkload(seed int64) []Workload {
	background := workload.MustGenerate(workload.Config{
		Models: zoo.BenchmarkModels, MeanIntervalMs: 20, Count: 10, Seed: seed,
	})
	arrivals := workload.Burst(background, "resnet50", 10, 1, 32)
	arrivals = workload.Burst(arrivals, "vgg19", 45, 1, 16)
	sortArrivals(arrivals)
	return []Workload{{nil, arrivals}}
}

// ---------------------------------------------------------------------------
// Ablation — same-type micro-batching sweep
// ---------------------------------------------------------------------------

// BatchingAblation sweeps the micro-batch cap over the powers of two up to
// maxBatch on the same-type burst workload. Batch cap 1 is the serial
// baseline.
func BatchingAblation(d *Deployment, maxBatch int, seed int64) *Ablation {
	a := &Ablation{
		Labels:    []Column{{"batch", -6}},
		Metrics:   []string{"reqs", "served", "grants", "maxsize", "makespan(ms)", "rps", "meanRR", "viol@4"},
		Workloads: burstWorkload(seed),
	}
	for b := 1; b <= maxBatch; b *= 2 {
		sys := policy.NewSplit()
		sys.BatchMax = b
		a.Arms = append(a.Arms, Arm{[]string{strconv.Itoa(b)}, sys, d.Catalog})
	}
	return a
}

// ---------------------------------------------------------------------------
// Ablation — temporal vs spatial vs hybrid GPU sharing
// ---------------------------------------------------------------------------

// SharingAblation replays the same-type burst workload, where temporal
// splitting stops helping, through three sharing regimes. "temporal" is the
// paper's scheduler: split plans time-slice one sequential lane per device.
// "spatial" divides each device into M concurrent fixed-width partition
// lanes but serves whole (unsplit) models. "hybrid" keeps the split plans
// AND the partition lanes, the regime ParvaGPU-style spatial sharing
// predicts should dominate: blocks stay evenly sized for low waiting, while
// same-type runs overlap across partitions instead of serializing. A
// partition count of 1 runs the temporal arm; each M > 1 runs the spatial
// and hybrid arms.
func SharingAblation(d *Deployment, partitions []int, seed int64) *Ablation {
	a := &Ablation{
		Labels:    []Column{{"mode", -9}, {"parts", 6}},
		Metrics:   []string{"reqs", "served", "makespan(ms)", "rps", "meanRR", "viol@4", "wait(ms)"},
		Workloads: burstWorkload(seed),
	}
	unsplit := policy.NewCatalog(d.Graphs, nil)
	for _, m := range partitions {
		if m <= 1 {
			a.Arms = append(a.Arms, Arm{[]string{"temporal", "1"}, policy.NewSplit(), d.Catalog})
			continue
		}
		sys := policy.NewSplit()
		sys.Partitions = m
		sys.PartitionWidth = place.WidthFixed
		parts := strconv.Itoa(m)
		a.Arms = append(a.Arms, Arm{[]string{"spatial", parts}, sys, unsplit}, Arm{[]string{"hybrid", parts}, sys, d.Catalog})
	}
	return a
}
