package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"split/internal/core"
	"split/internal/ga"
	"split/internal/metrics"
	"split/internal/model"
	"split/internal/obs"
	"split/internal/onnxlite"
	"split/internal/profiler"
	"split/internal/stats"
	"split/internal/trace"
	"split/internal/workload"
	"split/internal/zoo"
)

// section is one figure, table or ablation of the paper, or one offline
// job. Its name is the first command-line argument that selects it.
type section struct {
	name   string
	title  string // heading in the full report; "" keeps the section out of it
	flags  string // the flags it reads besides -seed, space-separated
	deploy bool   // it needs the default deployment
	run    func(w io.Writer, o *options) error
}

// report is the full report: every section with a title, in table order.
var report = section{flags: "quick out", deploy: true}

var sections = []section{
	{"fig1", "E0 — Figure 1: motivating two-request schedule", "", true, func(w io.Writer, o *options) error {
		fmt.Fprint(w, core.RenderFig1(core.Fig1(o.dep)))
		return nil
	}},
	{"table1", "E1 — Table 1: evaluated models", "", false, func(w io.Writer, o *options) error {
		fmt.Fprint(w, core.RenderTable1(core.Table1()))
		return nil
	}},
	{"table2", "E8 — Table 2: scenarios", "", false, func(w io.Writer, o *options) error {
		for _, s := range workload.Table2() {
			fmt.Fprintf(w, "%-12s λ=%3.0fms %s\n", s.Name, s.MeanIntervalMs, s.Load)
		}
		return nil
	}},
	{"fig2", "E2 — Figure 2: cut-point grids (ResNet50)", "model stride", false, func(w io.Writer, o *options) error {
		res, err := core.Fig2(o.model, o.stride, o.cm)
		if err != nil {
			return err
		}
		fmt.Fprint(w, core.RenderFig2(res))
		return nil
	}},
	{"eq1", "E3 — Eq. 1 waiting-latency cross-check", "", false, func(w io.Writer, o *options) error {
		fmt.Fprint(w, core.RenderEq1(core.Eq1Check(o.cm)))
		return nil
	}},
	{"fig5", "E4 — Figure 5: GA convergence", "", false, func(w io.Writer, o *options) error {
		series, err := core.Fig5(o.cm, o.seed)
		if err != nil {
			return err
		}
		fmt.Fprint(w, core.RenderFig5(series))
		return nil
	}},
	{"table3", "E5 — Table 3: optimal splitting options", "", false, func(w io.Writer, o *options) error {
		rows, err := core.Table3(o.cm, o.seed)
		if err != nil {
			return err
		}
		fmt.Fprint(w, core.RenderTable3(rows))
		return nil
	}},
	{"candidates", "candidate counts (§2.2)", "blocks", false, func(w io.Writer, o *options) error {
		for _, name := range zoo.BenchmarkModels {
			g := zoo.MustLoad(name)
			fmt.Fprintf(w, "%-12s M=%4d  m=%d candidates=%.0f\n",
				name, g.NumOps(), o.blocks, model.CandidateCount(g.NumOps(), o.blocks))
		}
		return nil
	}},
	{"fig6", "E6 — Figure 6: latency violation rate", "systems seeds", true, func(w io.Writer, o *options) error {
		if o.seeds > 1 {
			fmt.Fprint(w, core.RenderFig6Aggregate(core.Fig6MultiSeed(o.dep, o.systems, o.seeds)))
			return nil
		}
		cells := core.Fig6(o.dep, o.systems, o.seed)
		fmt.Fprint(w, core.RenderFig6(cells))
		fmt.Fprintln(w)
		fmt.Fprint(w, core.RenderFig6Chart(cells, "Scenario4"))
		return nil
	}},
	{"fig7", "E7 — Figure 7: jitter per model", "systems seeds", true, func(w io.Writer, o *options) error {
		if o.seeds > 1 {
			fmt.Fprint(w, core.RenderFig7Aggregate(core.Fig7MultiSeed(o.dep, o.systems, o.seeds)))
		} else {
			fmt.Fprint(w, core.RenderFig7(core.Fig7(o.dep, o.systems, o.seed)))
		}
		return nil
	}},
	{"fig3", "E10 — Figure 3: full vs partial preemption", "", true, func(w io.Writer, o *options) error {
		fmt.Fprint(w, core.RenderFig3(core.Fig3(o.dep, o.seed)))
		return nil
	}},
	{"summary", "E11 — per-scenario summaries (headline claims)", "systems", true, func(w io.Writer, o *options) error {
		for _, run := range o.dep.RunAllScenarios(o.systems, o.seed) {
			fmt.Fprintf(w, "%-12s %s\n", run.Scenario.Name, run.Summary)
		}
		return nil
	}},
	{"search", "Ablation 1 — search strategies", "", false, func(w io.Writer, o *options) error {
		rows, err := core.SearchAblation(o.cm, o.seed)
		if err != nil {
			return err
		}
		fmt.Fprint(w, core.RenderSearchAblation(rows))
		return nil
	}},
	{"evenness", "Ablation 2 — evenness", "csv", true, ablation(func(o *options) (*core.Ablation, error) {
		return core.EvennessAblation(o.cm, o.seed)
	})},
	{"elastic", "Ablation 3 — elastic splitting", "csv", true, ablation(func(o *options) (*core.Ablation, error) {
		return core.ElasticAblation(o.dep, o.seed), nil
	})},
	{"blocks", "Ablation 5 — block count sweep (Eq. 1 optimum)", "", false, func(w io.Writer, o *options) error {
		for _, name := range []string{"resnet50", "vgg19"} {
			rows, err := core.BlockCountSweep(name, 8, o.cm, o.seed)
			if err != nil {
				return err
			}
			fmt.Fprint(w, core.RenderBlockCountSweep(rows))
		}
		return nil
	}},
	{"init", "Ablation 6 — GA initialization", "", false, func(w io.Writer, o *options) error {
		rows, err := core.InitAblation(o.cm, o.seed)
		if err != nil {
			return err
		}
		fmt.Fprint(w, core.RenderInitAblation(rows))
		return nil
	}},
	{"stability", "E12 — hardware tolerance: stability sweep (§5.1 footnote)", "", true, func(w io.Writer, o *options) error {
		fmt.Fprint(w, core.RenderStability(core.StabilityExperiment(o.dep, nil, o.seed)))
		return nil
	}},
	{"starvation", "Ablation 7 — starvation guard (extension)", "csv", true, ablation(func(o *options) (*core.Ablation, error) {
		return core.StarvationAblation(o.dep, o.seed), nil
	})},
	{"burstiness", "Ablation 8 — burstiness robustness (extension)", "csv", true, ablation(func(o *options) (*core.Ablation, error) {
		return core.BurstinessAblation(o.dep, o.seed), nil
	})},
	{"shedding", "", "csv", true, ablation(func(o *options) (*core.Ablation, error) {
		return core.SheddingAblation(o.dep, o.seed), nil
	})},
	{"placement", "", "devices csv", true, ablation(func(o *options) (*core.Ablation, error) {
		return core.PlacementAblation(o.dep, o.devices, o.seed), nil
	})},
	{"batching", "", "batch-max csv", true, ablation(func(o *options) (*core.Ablation, error) {
		return core.BatchingAblation(o.dep, o.batchMax, o.seed), nil
	})},
	{"sharing", "", "partitions csv", true, ablation(func(o *options) (*core.Ablation, error) {
		return core.SharingAblation(o.dep, o.partitions, o.seed), nil
	})},
	{"capacity", "", "capacity-devices viol-target capacity-requests placement batch-max", true, func(w io.Writer, o *options) error {
		rows := o.dep.CapacitySweep(o.capacityConfig(), o.capList)
		fmt.Fprint(w, core.RenderCapacity(rows, o.violTarget, 4))
		return nil
	}},
	{"saturation", "", "devices saturation-points viol-target capacity-requests placement batch-max", true, func(w io.Writer, o *options) error {
		cfg := core.SaturationConfig{CapacityConfig: o.capacityConfig(), Points: o.satPoints}
		cfg.Devices = o.devices
		fmt.Fprint(w, core.RenderSaturation(core.NewSaturationAnalyzer(o.dep, cfg).Analyze(), o.violTarget, 4))
		return nil
	}},
	{"sweep", "", "model blocks count", false, func(w io.Writer, o *options) error {
		cands := profiler.New(o.graph, o.cm).RandomSample(o.blocks, o.count, rand.New(rand.NewSource(o.seed)))
		stds := make([]float64, len(cands))
		overs := make([]float64, len(cands))
		for i, c := range cands {
			stds[i], overs[i] = c.StdDevMs, c.Overhead
		}
		fmt.Fprintf(w, "%s: profiled %d random %d-block candidates\n", o.model, len(cands), o.blocks)
		fmt.Fprintf(w, "std dev (ms):  %s\n", stats.Summarize(stds))
		fmt.Fprintf(w, "overhead:      %s\n", stats.Summarize(overs))
		return nil
	}},
	{"plan", "", "model blocks out save-blocks dot", false, plan},
	{"trace", "", "system scenario replay gantt spans records events perfetto timeseries window alpha", true, traceRun},
	{"replay", "", "systems", true, func(w io.Writer, o *options) error {
		h, arrivals, err := readTrace(o.args[0])
		if err != nil {
			return err
		}
		src := h.Source
		if src == "" {
			src = "unknown"
		}
		fmt.Fprintf(w, "replaying %d arrivals (trace v%d, source %s)\n", h.Count, h.Version, src)
		for _, sys := range o.systems {
			fmt.Fprintf(w, "%-16s %s\n", sys.Name(), metrics.Summarize(sys.Name(), sys.Run(arrivals, o.dep.Catalog, nil)))
		}
		return nil
	}},
}

// ablation runs a simulator ablation, prints its table and, with -csv,
// writes its rows as CSV.
func ablation(build func(o *options) (*core.Ablation, error)) func(io.Writer, *options) error {
	return func(w io.Writer, o *options) error {
		a, err := build(o)
		if err != nil {
			return err
		}
		rows := a.Run()
		fmt.Fprint(w, a.Render(rows))
		if o.csv == "" {
			return nil
		}
		f, err := os.Create(o.csv)
		if err != nil {
			return err
		}
		return errors.Join(a.WriteCSV(f, rows), f.Close())
	}
}

// capacityConfig is the capacity probe the capacity and saturation
// sections share.
func (o *options) capacityConfig() core.CapacityConfig {
	return core.CapacityConfig{
		BatchMax:   o.batchMax,
		Placement:  o.placement,
		Requests:   o.capRequests,
		ViolTarget: o.violTarget,
		Seed:       o.seed,
	}
}

// readTrace reads a versioned workload trace, as splitd -record writes it.
func readTrace(path string) (workload.TraceHeader, []workload.Arrival, error) {
	f, err := os.Open(path)
	if err != nil {
		return workload.TraceHeader{}, nil, fmt.Errorf("opening trace: %w", err)
	}
	defer f.Close()
	return workload.ReadTrace(f)
}

// plan splits -model into -blocks with the GA, or without -model builds
// the default deployment's plans, and writes them under -out.
func plan(w io.Writer, o *options) error {
	if o.graph == nil {
		pipe := core.DefaultPipeline()
		pipe.GASeed = o.seed
		dep, err := pipe.Deploy()
		if err != nil {
			return err
		}
		for _, name := range []string{"resnet50", "vgg19"} {
			p := dep.Plans[name]
			fmt.Fprintf(w, "%-10s blocks=%d cuts=%v std=%.3fms overhead=%.1f%%\n",
				name, p.NumBlocks(), p.Cuts, p.StdDevMs, p.OverheadRatio*100)
		}
		if o.out == "" {
			return nil
		}
		if err := onnxlite.SavePlanDir(o.out, dep.Plans); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d plans to %s\n", len(dep.Plans), o.out)
		return nil
	}
	p := profiler.New(o.graph, o.cm)
	cfg := ga.DefaultConfig(o.blocks)
	cfg.Seed = o.seed
	res, err := ga.Run(p, cfg)
	if err != nil {
		return err
	}
	plan := p.Plan(res.Best)
	fmt.Fprintf(w, "%s into %d blocks: cuts=%v\n", o.model, o.blocks, plan.Cuts)
	fmt.Fprint(w, "  block times (ms): [")
	for i, x := range plan.BlockTimesMs {
		if i > 0 {
			fmt.Fprint(w, " ")
		}
		fmt.Fprintf(w, "%.2f", x)
	}
	fmt.Fprintln(w, "]")
	fmt.Fprintf(w, "  std dev %.3f ms, overhead %.1f%%, fitness %.4f, %d evals, converged=%v\n",
		plan.StdDevMs, plan.OverheadRatio*100, res.Fitness, res.Evaluations, res.Converged)
	if o.dot != "" {
		if err := writeFile(o.dot, func(f io.Writer) error { return onnxlite.WriteDOT(f, o.graph, plan.Cuts) }); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", o.dot)
	}
	if o.out == "" {
		return nil
	}
	path := filepath.Join(o.out, o.model+".plan.json")
	if err := onnxlite.SavePlan(path, plan); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	if o.saveBlocks {
		paths, err := onnxlite.SaveBlocks(o.out, o.graph, plan)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d block graphs\n", len(paths))
	}
	return nil
}

// traceRun runs one system on one scenario, or on a recorded workload
// trace, with every event traced, and reports the device timeline:
// occupancy analysis, an optional Gantt window and span decomposition, and
// the exports its flags ask for.
func traceRun(w io.Writer, o *options) error {
	tr := trace.New()
	var run core.ScenarioRun
	if o.replay != "" {
		_, arrivals, err := readTrace(o.replay)
		if err != nil {
			return err
		}
		recs := o.sys.Run(arrivals, o.dep.Catalog, tr)
		run = core.ScenarioRun{System: o.sys.Name(), Records: recs, Summary: metrics.Summarize(o.sys.Name(), recs)}
		fmt.Fprintf(w, "%s replaying %s (%d requests)\n", run.System, o.replay, len(recs))
	} else {
		run = o.dep.RunScenario(o.sc, o.sys, o.seed, tr)
		fmt.Fprintf(w, "%s on %s (λ=%.0fms, %s load), %d requests\n",
			run.System, o.sc.Name, o.sc.MeanIntervalMs, o.sc.Load, run.Summary.Requests)
	}
	fmt.Fprintln(w, run.Summary)
	tree := trace.SpanBuilder{}.BuildTracer(tr)
	fmt.Fprint(w, tree.Analyze())
	if o.gantt != "" {
		fmt.Fprintf(w, "\nGantt [%.0f, %.0f] ms (models: %v):\n", o.lo, o.hi, zoo.BenchmarkModels)
		fmt.Fprint(w, tr.Gantt(o.lo, o.hi, (o.hi-o.lo)/100))
	}
	if o.spans {
		fmt.Fprintf(w, "\nSpan decomposition (%d requests):\n", len(tree.Requests))
		fmt.Fprint(w, tree.Summary())
		// Concurrent baselines (RT-A, Stream-Parallel) legitimately
		// overlap grants on one device, so problems describe the
		// schedule's shape; they are not a failure.
		for _, p := range tree.Problems {
			fmt.Fprintf(w, "span invariant: %s\n", p)
		}
	}
	if o.perfetto != "" {
		if err := writeFile(o.perfetto, tree.WritePerfetto); err != nil {
			return err
		}
		// Check the written bytes against the trace-event schema, so a
		// file chrome://tracing would reject never lands silently.
		data, err := os.ReadFile(o.perfetto)
		if err != nil {
			return err
		}
		if _, err := trace.ValidatePerfetto(data); err != nil {
			return fmt.Errorf("exported trace failed validation: %w", err)
		}
		fmt.Fprintf(w, "wrote %d spans to %s (chrome://tracing)\n", len(tree.Requests), o.perfetto)
	}
	if o.timeseries != "" {
		devices := 1
		for _, e := range tr.Events() {
			devices = max(devices, int(e.Device)+1)
		}
		snap := obs.TimeSeriesFromRun(run.Records, tr.Events(), o.alpha, o.window, devices)
		err := writeFile(o.timeseries, func(f io.Writer) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			return enc.Encode(snap)
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d windows to %s\n", len(snap.Windows), o.timeseries)
	}
	if o.records != "" {
		if err := writeFile(o.records, func(f io.Writer) error { return metrics.WriteRecordsCSV(f, run.Records) }); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d records to %s\n", len(run.Records), o.records)
	}
	if o.events != "" {
		if err := writeFile(o.events, tr.WriteJSONL); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d events to %s\n", tr.Len(), o.events)
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(write(f), f.Close())
}
