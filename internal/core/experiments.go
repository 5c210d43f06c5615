package core

import (
	"fmt"
	"strings"

	"split/internal/analytic"
	"split/internal/ga"
	"split/internal/metrics"
	"split/internal/model"
	"split/internal/policy"
	"split/internal/profiler"
	"split/internal/stats"
	"split/internal/workload"
	"split/internal/zoo"
)

// ---------------------------------------------------------------------------
// E0 — Figure 1: the motivating two-request schedule
// ---------------------------------------------------------------------------

// Fig1Row is one system's outcome on the Figure 1 micro-scenario: a long
// request B starts, a short request A arrives mid-flight.
type Fig1Row struct {
	System      string
	ShortRR     float64
	LongRR      float64
	AvgRR       float64
	ShortE2EMs  float64
	LongE2EMs   float64
	Preemptions int
}

// Fig1 reenacts the paper's Figure 1 with the deployment's real models
// (VGG19 as the long request B, YOLOv2 as the short request A arriving 5 ms
// in) across the illustrated schemes: Stream-Parallel, Runtime-Aware,
// sequential FCFS (ClockWork), and SPLIT with evenly-sized blocks.
func Fig1(d *Deployment) []Fig1Row {
	arrivals := []workload.Arrival{
		{ID: 0, Model: "vgg19", AtMs: 0},
		{ID: 1, Model: "yolov2", AtMs: 5},
	}
	systems := []policy.System{
		policy.NewStreamParallel(),
		policy.NewRTA(),
		policy.NewClockWork(),
		policy.NewSplit(),
	}
	var rows []Fig1Row
	for _, sys := range systems {
		recs := sys.Run(arrivals, d.Catalog, nil)
		long, short := recs[0], recs[1]
		rows = append(rows, Fig1Row{
			System:      sys.Name(),
			ShortRR:     short.ResponseRatio(),
			LongRR:      long.ResponseRatio(),
			AvgRR:       (short.ResponseRatio() + long.ResponseRatio()) / 2,
			ShortE2EMs:  short.E2EMs(),
			LongE2EMs:   long.E2EMs(),
			Preemptions: long.Preemptions + short.Preemptions,
		})
	}
	return rows
}

// RenderFig1 formats the Figure 1 comparison.
func RenderFig1(rows []Fig1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %9s %9s %9s %12s %12s\n",
		"scheme", "short RR", "long RR", "avg RR", "short e2e", "long e2e")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %9.2f %9.2f %9.2f %10.2fms %10.2fms\n",
			r.System, r.ShortRR, r.LongRR, r.AvgRR, r.ShortE2EMs, r.LongE2EMs)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E1 — Table 1: evaluated deep learning models
// ---------------------------------------------------------------------------

// Table1Row is one model profile row.
type Table1Row struct {
	Model     string
	Operators int
	Domain    string
	LatencyMs float64
	Class     model.RequestClass
}

// Table1 regenerates the paper's Table 1 from the zoo graphs.
func Table1() []Table1Row {
	rows := make([]Table1Row, 0, len(zoo.BenchmarkModels))
	for _, name := range zoo.BenchmarkModels {
		g := zoo.MustLoad(name)
		rows = append(rows, Table1Row{
			Model:     name,
			Operators: g.NumOps(),
			Domain:    g.Domain,
			LatencyMs: g.TotalTimeMs(),
			Class:     g.Class,
		})
	}
	return rows
}

// RenderTable1 formats Table 1 rows.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %9s  %-22s %11s  %s\n", "Model", "Operators", "Domain", "Latency(ms)", "Type")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %9d  %-22s %11.2f  %s\n", r.Model, r.Operators, r.Domain, r.LatencyMs, r.Class)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E2 — Figure 2: cut-point position vs overhead and std deviation
// ---------------------------------------------------------------------------

// Fig2Result holds the two-cut grids plus their single-cut marginals for one
// model.
type Fig2Result struct {
	Model            string
	Grid             *profiler.Grid2D
	Stride           int
	MarginalOverhead []float64 // overhead of a single cut at position i+1
	MarginalStdDev   []float64 // block std dev of a single cut at position i+1
}

// Fig2 computes the Figure 2 data for the named model. Stride subsamples
// the grid axes (1 = exhaustive over all C(M-1,2) pairs).
func Fig2(modelName string, stride int, cm model.CostModel) (*Fig2Result, error) {
	g, err := zoo.Load(modelName)
	if err != nil {
		return nil, err
	}
	p := profiler.New(g, cm)
	over, std := p.SingleCutProfile()
	return &Fig2Result{
		Model:            modelName,
		Grid:             p.CutGrid(stride),
		Stride:           stride,
		MarginalOverhead: over,
		MarginalStdDev:   std,
	}, nil
}

// FrontBackOverheadRatio summarizes observation 1 ("splitting the model on
// earlier operators incurs a larger splitting overhead"): the mean overhead
// of cuts in the first third of the model divided by the mean overhead of
// cuts in the last third. Values > 1 confirm the observation.
func (f *Fig2Result) FrontBackOverheadRatio() float64 {
	n := len(f.MarginalOverhead)
	if n < 3 {
		return 1
	}
	front := stats.Mean(f.MarginalOverhead[:n/3])
	back := stats.Mean(f.MarginalOverhead[2*n/3:])
	if back == 0 {
		return 1
	}
	return front / back
}

// EdgeMiddleStdRatio summarizes observation 2 ("splitting at the beginning
// or last few operators results in uneven splitting"): the mean block std
// deviation of edge cuts (first and last 10%) divided by the minimum std
// deviation across all positions-interior. Values > 1 confirm it.
func (f *Fig2Result) EdgeMiddleStdRatio() float64 {
	n := len(f.MarginalStdDev)
	if n < 10 {
		return 1
	}
	edge := stats.Mean(f.MarginalStdDev[:n/10])
	edge += stats.Mean(f.MarginalStdDev[n-n/10:])
	edge /= 2
	best := stats.Min(f.MarginalStdDev)
	if best == 0 {
		return edge
	}
	return edge / best
}

// RenderFig2 formats a coarse view of the Figure 2 grids: downsampled
// heatmap rows plus the observation ratios.
func RenderFig2(f *Fig2Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2 — %s (%d cut positions, grid stride %d)\n", f.Model, len(f.MarginalOverhead), f.Stride)
	fmt.Fprintf(&b, "observation 1: front/back overhead ratio = %.2fx (>1 confirms)\n", f.FrontBackOverheadRatio())
	fmt.Fprintf(&b, "observation 2: edge/middle std-dev ratio = %.2fx (>1 confirms)\n", f.EdgeMiddleStdRatio())
	b.WriteString(renderHeat("(a) splitting overhead", f.Grid.Overhead, f.Grid.Valid))
	b.WriteString(renderHeat("(b) std deviation of block time", f.Grid.StdDev, f.Grid.Valid))
	return b.String()
}

// renderHeat downsamples a grid to at most 24x24 character cells using the
// ramp " .:-=+*#%@" scaled to the grid's max.
func renderHeat(title string, grid [][]float64, valid [][]bool) string {
	const ramp = " .:-=+*#%@"
	n := len(grid)
	if n == 0 {
		return title + ": empty\n"
	}
	step := (n + 23) / 24
	var maxV float64
	for i := range grid {
		for j := range grid[i] {
			if valid[i][j] && grid[i][j] > maxV {
				maxV = grid[i][j]
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (max=%.3f; x=first cut, y=second cut)\n", title, maxV)
	for j := 0; j < n; j += step { // y axis: second cut
		row := make([]byte, 0, n/step+1)
		for i := 0; i < n; i += step { // x axis: first cut
			if !valid[i][j] || maxV == 0 {
				row = append(row, ' ')
				continue
			}
			idx := int(grid[i][j] / maxV * float64(len(ramp)-1))
			row = append(row, ramp[idx])
		}
		fmt.Fprintf(&b, "  |%s|\n", row)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E3 — Eq. 1: waiting-latency law
// ---------------------------------------------------------------------------

// Eq1Row cross-checks the closed form against numeric integration for one
// block-time vector.
type Eq1Row struct {
	Blocks     []float64
	ClosedForm float64
	Moments    float64
	Numeric    float64
}

// Eq1Check evaluates Eq. 1 three ways on representative splits of the two
// long models (the GA plan, an uneven split, no split).
func Eq1Check(cm model.CostModel) []Eq1Row {
	var rows []Eq1Row
	add := func(ts []float64) {
		rows = append(rows, Eq1Row{
			Blocks:     ts,
			ClosedForm: analytic.ExpectedWait(ts),
			Moments:    analytic.ExpectedWaitMoments(ts),
			Numeric:    analytic.ExpectedWaitNumeric(ts, 200_000),
		})
	}
	for _, name := range []string{"resnet50", "vgg19"} {
		g := zoo.MustLoad(name)
		p := profiler.New(g, cm)
		add([]float64{g.TotalTimeMs()})                     // unsplit
		add(p.Evaluate([]int{g.NumOps() / 2}).BlockTimesMs) // naive middle cut
		best, _ := p.Exhaustive(2, profiler.StdDevObjective)
		add(best.BlockTimesMs) // evenly split
	}
	return rows
}

// RenderEq1 formats the Eq. 1 cross-check.
func RenderEq1(rows []Eq1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %12s %12s %12s\n", "blocks(ms)", "closed form", "moment form", "numeric")
	for _, r := range rows {
		parts := make([]string, len(r.Blocks))
		for i, t := range r.Blocks {
			parts[i] = fmt.Sprintf("%.1f", t)
		}
		fmt.Fprintf(&b, "%-40s %12.4f %12.4f %12.4f\n",
			"["+strings.Join(parts, " ")+"]", r.ClosedForm, r.Moments, r.Numeric)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E4 — Figure 5: GA convergence
// ---------------------------------------------------------------------------

// Fig5Series is one curve of Figure 5: the per-generation best std deviation
// and overhead for one (model, blocks) pair. Labels follow the paper:
// RES-1 = ResNet50 into 2 blocks, VGG-3 = VGG19 into 4 blocks.
type Fig5Series struct {
	Label  string
	Model  string
	Blocks int
	Gens   []ga.GenerationStats
	Best   profiler.Candidate
}

// Fig5 runs the GA for ResNet50 and VGG19 at 2, 3 and 4 blocks and returns
// the six convergence series.
func Fig5(cm model.CostModel, seed int64) ([]Fig5Series, error) {
	var out []Fig5Series
	labels := map[string]string{"resnet50": "RES", "vgg19": "VGG"}
	for _, name := range []string{"resnet50", "vgg19"} {
		g := zoo.MustLoad(name)
		p := profiler.New(g, cm)
		for m := 2; m <= 4; m++ {
			cfg := ga.DefaultConfig(m)
			cfg.Seed = seed
			cfg.StallLimit = cfg.Generations // run full length for the figure
			res, err := ga.Run(p, cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, Fig5Series{
				Label:  fmt.Sprintf("%s-%d", labels[name], m-1),
				Model:  name,
				Blocks: m,
				Gens:   res.PerGeneration,
				Best:   res.Best,
			})
		}
	}
	return out, nil
}

// RenderFig5 formats the convergence series as two tables (std dev and
// overhead per generation), sampled every two generations.
func RenderFig5(series []Fig5Series) string {
	var b strings.Builder
	render := func(title string, pick func(ga.GenerationStats) float64) {
		fmt.Fprintf(&b, "%s\n%-8s", title, "gen")
		for _, s := range series {
			fmt.Fprintf(&b, "%9s", s.Label)
		}
		b.WriteByte('\n')
		maxGen := 0
		for _, s := range series {
			if len(s.Gens) > maxGen {
				maxGen = len(s.Gens)
			}
		}
		for gen := 0; gen < maxGen; gen += 2 {
			fmt.Fprintf(&b, "%-8d", gen)
			for _, s := range series {
				if gen < len(s.Gens) {
					fmt.Fprintf(&b, "%9.3f", pick(s.Gens[gen]))
				} else {
					fmt.Fprintf(&b, "%9s", "-")
				}
			}
			b.WriteByte('\n')
		}
	}
	render("Figure 5(a) — best std deviation (ms) per generation",
		func(g ga.GenerationStats) float64 { return g.BestStdDevMs })
	render("Figure 5(b) — best overhead ratio per generation",
		func(g ga.GenerationStats) float64 { return g.BestOverhead })
	return b.String()
}

// ---------------------------------------------------------------------------
// E5 — Table 3: optimal model splitting options
// ---------------------------------------------------------------------------

// Table3Row is one optimal-split row.
type Table3Row struct {
	Model    string
	Blocks   int
	Cuts     []int
	StdDevMs float64
	Overhead float64 // ratio
	RangePct float64 // (max-min)/T * 100
}

// Table3 regenerates the paper's Table 3 by running the GA for ResNet50 and
// VGG19 at 2, 3 and 4 blocks.
func Table3(cm model.CostModel, seed int64) ([]Table3Row, error) {
	var rows []Table3Row
	for _, name := range []string{"resnet50", "vgg19"} {
		g := zoo.MustLoad(name)
		p := profiler.New(g, cm)
		for m := 2; m <= 4; m++ {
			cfg := ga.DefaultConfig(m)
			cfg.Seed = seed
			res, err := ga.Run(p, cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Table3Row{
				Model:    name,
				Blocks:   m,
				Cuts:     res.Best.Cuts,
				StdDevMs: res.Best.StdDevMs,
				Overhead: res.Best.Overhead,
				RangePct: res.Best.RangePct(p.TotalTimeMs()),
			})
		}
	}
	return rows, nil
}

// RenderTable3 formats Table 3 rows.
func RenderTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %6s %-14s %14s %9s %7s\n", "Model", "Blocks", "Cuts", "Std.Deviation", "Overhead", "Range%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %6d %-14s %14.3f %8.1f%% %6.2f%%\n",
			r.Model, r.Blocks, fmt.Sprint(r.Cuts), r.StdDevMs, r.Overhead*100, r.RangePct)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E6 — Figure 6: latency violation rate curves
// ---------------------------------------------------------------------------

// Fig6Cell is one system's violation curve in one scenario.
type Fig6Cell struct {
	Scenario workload.Scenario
	System   string
	Alphas   []float64
	Curve    []float64
}

// Fig6 replays all six scenarios through the given systems and computes the
// violation-rate-vs-α curve for each.
func Fig6(d *Deployment, systems []policy.System, seed int64) []Fig6Cell {
	alphas := metrics.DefaultAlphas()
	runs := d.RunAllScenarios(systems, seed)
	out := make([]Fig6Cell, len(runs))
	for i, run := range runs {
		out[i] = Fig6Cell{Scenario: run.Scenario, System: run.System, Alphas: alphas,
			Curve: metrics.ViolationCurve(run.Records, alphas)}
	}
	return out
}

// RenderFig6 formats the violation curves, one scenario block at a time.
func RenderFig6(cells []Fig6Cell) string {
	var b strings.Builder
	current := ""
	for _, c := range cells {
		if c.Scenario.Name != current {
			current = c.Scenario.Name
			fmt.Fprintf(&b, "\nFigure 6 — %s (λ=%.0fms, %s load): violation rate %% by α\n",
				c.Scenario.Name, c.Scenario.MeanIntervalMs, c.Scenario.Load)
			fmt.Fprintf(&b, "%-16s", "system")
			for _, a := range c.Alphas {
				fmt.Fprintf(&b, "%6.0f", a)
			}
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%-16s", c.System)
		for _, v := range c.Curve {
			fmt.Fprintf(&b, "%6.1f", v*100)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E7 — Figure 7: jitter (std deviation of e2e time) per model
// ---------------------------------------------------------------------------

// Fig7Cell is one system's per-model jitter in one scenario.
type Fig7Cell struct {
	Scenario workload.Scenario
	System   string
	// JitterMs maps model name to std deviation of end-to-end time.
	JitterMs map[string]float64
}

// Fig7 replays all six scenarios and computes per-model jitter.
func Fig7(d *Deployment, systems []policy.System, seed int64) []Fig7Cell {
	runs := d.RunAllScenarios(systems, seed)
	out := make([]Fig7Cell, len(runs))
	for i, run := range runs {
		out[i] = Fig7Cell{Scenario: run.Scenario, System: run.System, JitterMs: metrics.JitterByModel(run.Records)}
	}
	return out
}

// RenderFig7 formats the jitter table per scenario.
func RenderFig7(cells []Fig7Cell) string {
	var b strings.Builder
	current := ""
	for _, c := range cells {
		if c.Scenario.Name != current {
			current = c.Scenario.Name
			fmt.Fprintf(&b, "\nFigure 7 — %s (λ=%.0fms): std dev of e2e time (ms) per model\n",
				c.Scenario.Name, c.Scenario.MeanIntervalMs)
			fmt.Fprintf(&b, "%-16s", "system")
			for _, m := range zoo.BenchmarkModels {
				fmt.Fprintf(&b, "%11s", m)
			}
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%-16s", c.System)
		for _, m := range zoo.BenchmarkModels {
			fmt.Fprintf(&b, "%11.2f", c.JitterMs[m])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E12 — hardware tolerance (§5.1 footnote): stability across λ
// ---------------------------------------------------------------------------

// StabilityRow reports the queueing regime at one arrival interval.
type StabilityRow struct {
	LambdaMs     float64
	Utilization  float64
	MaxBacklog   int
	FinalBacklog int
	// TrendPerSec is the fitted backlog growth over the run's second half,
	// in requests per second. Clearly positive = growing queue.
	TrendPerSec float64
	MeanRR      float64
}

// StabilityExperiment reproduces the paper's hardware-tolerance footnote:
// below λ ≈ 90 ms the queue grows without bound and every later request
// violates its target; at λ = 200 ms requests are handled near-sequentially.
// It replays 1000-request traces at several λ under ClockWork (the pure
// FCFS device) and reports backlog behaviour.
func StabilityExperiment(d *Deployment, lambdas []float64, seed int64) []StabilityRow {
	if len(lambdas) == 0 {
		lambdas = []float64{200, 160, 110, 90, 70}
	}
	var meanService float64
	for _, name := range zoo.BenchmarkModels {
		meanService += zoo.Table1Latency[name]
	}
	meanService /= float64(len(zoo.BenchmarkModels))

	var rows []StabilityRow
	const stepMs = 100
	for _, lam := range lambdas {
		cfg := workload.Config{
			Models:         zoo.BenchmarkModels,
			MeanIntervalMs: lam * workload.TaskIntervalFactor,
			PerTask:        true,
			Count:          1000,
			Seed:           seed,
		}
		arrivals := workload.MustGenerate(cfg)
		recs := policy.NewClockWork().Run(arrivals, d.Catalog, nil)
		// Measure over the arrival window only: a finite trace always
		// drains eventually, so sampling past the last arrival would hide
		// the growing-queue regime.
		series := metrics.BacklogSeriesUntil(recs, stepMs, arrivals[len(arrivals)-1].AtMs)
		maxB := 0
		for _, b := range series {
			if b > maxB {
				maxB = b
			}
		}
		aggInterval := lam * workload.TaskIntervalFactor / float64(len(zoo.BenchmarkModels))
		rows = append(rows, StabilityRow{
			LambdaMs:     lam,
			Utilization:  meanService / aggInterval,
			MaxBacklog:   maxB,
			FinalBacklog: series[len(series)-1],
			TrendPerSec:  metrics.BacklogTrend(series) * 1000 / stepMs,
			MeanRR:       metrics.MeanResponseRatio(recs),
		})
	}
	return rows
}

// RenderStability formats the stability rows.
func RenderStability(rows []StabilityRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %6s %11s %13s %13s %8s\n",
		"λ(ms)", "ρ", "max backlog", "final backlog", "trend(req/s)", "meanRR")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8.0f %6.2f %11d %13d %13.2f %8.2f\n",
			r.LambdaMs, r.Utilization, r.MaxBacklog, r.FinalBacklog, r.TrendPerSec, r.MeanRR)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E10 — Figure 3: full vs partial preemption
// ---------------------------------------------------------------------------

// Fig3Result compares full and partial block preemption on the six
// scenarios: partial preemption (re-queueing a preempted request's remaining
// blocks at the back) produces stragglers and inflates the preempted
// request's total latency.
type Fig3Result struct {
	Scenario    workload.Scenario
	FullMeanRR  float64
	PartMeanRR  float64
	FullViol4   float64
	PartViol4   float64
	FullJitterL float64
	PartJitterL float64
}

// Fig3 runs the full/partial comparison.
func Fig3(d *Deployment, seed int64) []Fig3Result {
	full := policy.NewSplit()
	part := policy.NewSplit()
	part.PartialPreemption = true
	var out []Fig3Result
	for _, sc := range workload.Table2() {
		fr := d.RunScenario(sc, full, seed, nil)
		pr := d.RunScenario(sc, part, seed, nil)
		out = append(out, Fig3Result{
			Scenario:    sc,
			FullMeanRR:  fr.Summary.MeanRR,
			PartMeanRR:  pr.Summary.MeanRR,
			FullViol4:   fr.Summary.ViolationAt4,
			PartViol4:   pr.Summary.ViolationAt4,
			FullJitterL: fr.Summary.JitterLongMs,
			PartJitterL: pr.Summary.JitterLongMs,
		})
	}
	return out
}

// RenderFig3 formats the comparison.
func RenderFig3(rows []Fig3Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %10s %9s %9s %11s %11s\n",
		"scenario", "full RR", "part RR", "full v@4", "part v@4", "full jitL", "part jitL")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %10.2f %10.2f %8.1f%% %8.1f%% %11.1f %11.1f\n",
			r.Scenario.Name, r.FullMeanRR, r.PartMeanRR,
			r.FullViol4*100, r.PartViol4*100, r.FullJitterL, r.PartJitterL)
	}
	return b.String()
}
