// Command splitexp regenerates every experiment of the paper in one run —
// the full evaluation index of DESIGN.md — and writes the results to stdout
// (and optionally a file). EXPERIMENTS.md is produced from this output.
//
// Usage:
//
//	splitexp            # everything
//	splitexp -quick     # smaller Fig 2 grid, for CI
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"split/internal/core"
	"split/internal/model"
	"split/internal/workload"
	"split/internal/zoo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "splitexp:", err)
		os.Exit(1)
	}
}

// run executes every experiment, writing to out (tee'd to -out if given).
func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("splitexp", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		quick   = fs.Bool("quick", false, "subsample the heavy grids")
		outFile = fs.String("out", "", "also write output to this file")
		seed    = fs.Int64("seed", 1, "global seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	dst := out
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			return err
		}
		defer func() { err = errors.Join(err, f.Close()) }()
		dst = io.MultiWriter(out, f)
	}
	// A bufio.Writer keeps the first write error and reports it from Flush,
	// so the many prints below need no check of their own.
	w := bufio.NewWriter(dst)
	defer func() { err = errors.Join(err, w.Flush()) }()
	cm := model.DefaultCostModel()

	dep, err := core.DefaultPipeline().Deploy()
	if err != nil {
		return err
	}

	section(w, "E0 — Figure 1: motivating two-request schedule")
	fmt.Fprint(w, core.RenderFig1(core.Fig1(dep)))

	section(w, "E1 — Table 1: evaluated models")
	fmt.Fprint(w, core.RenderTable1(core.Table1()))

	section(w, "E8 — Table 2: scenarios")
	for _, s := range workload.Table2() {
		fmt.Fprintf(w, "%-12s λ=%3.0fms %s\n", s.Name, s.MeanIntervalMs, s.Load)
	}

	section(w, "E2 — Figure 2: cut-point grids (ResNet50)")
	stride := 1
	if *quick {
		stride = 4
	}
	f2, err := core.Fig2("resnet50", stride, cm)
	if err != nil {
		return err
	}
	fmt.Fprint(w, core.RenderFig2(f2))

	section(w, "E3 — Eq. 1 waiting-latency cross-check")
	fmt.Fprint(w, core.RenderEq1(core.Eq1Check(cm)))

	section(w, "E4 — Figure 5: GA convergence")
	f5, err := core.Fig5(cm, *seed)
	if err != nil {
		return err
	}
	fmt.Fprint(w, core.RenderFig5(f5))

	section(w, "E5 — Table 3: optimal splitting options")
	t3, err := core.Table3(cm, *seed)
	if err != nil {
		return err
	}
	fmt.Fprint(w, core.RenderTable3(t3))

	section(w, "candidate counts (§2.2)")
	for _, name := range zoo.BenchmarkModels {
		g := zoo.MustLoad(name)
		fmt.Fprintf(w, "%-12s M=%4d  m=3 candidates=%.0f\n",
			name, g.NumOps(), model.CandidateCount(g.NumOps(), 3))
	}

	section(w, "E6 — Figure 6: latency violation rate")
	cells := core.Fig6(dep, core.DefaultSystems(), *seed)
	fmt.Fprint(w, core.RenderFig6(cells))
	fmt.Fprintln(w)
	fmt.Fprint(w, core.RenderFig6Chart(cells, "Scenario4"))

	section(w, "E7 — Figure 7: jitter per model")
	fmt.Fprint(w, core.RenderFig7(core.Fig7(dep, core.DefaultSystems(), *seed)))

	section(w, "E10 — Figure 3: full vs partial preemption")
	fmt.Fprint(w, core.RenderFig3(core.Fig3(dep, *seed)))

	section(w, "E11 — per-scenario summaries (headline claims)")
	for _, run := range dep.RunAllScenarios(core.DefaultSystems(), *seed) {
		fmt.Fprintf(w, "%-12s %s\n", run.Scenario.Name, run.Summary)
	}

	section(w, "Ablation 1 — search strategies")
	a1, err := core.SearchAblation(cm, *seed)
	if err != nil {
		return err
	}
	fmt.Fprint(w, core.RenderSearchAblation(a1))

	section(w, "Ablation 2 — evenness")
	a2, err := core.EvennessAblation(cm, *seed)
	if err != nil {
		return err
	}
	fmt.Fprint(w, a2.Render(a2.Run()))

	section(w, "Ablation 3 — elastic splitting")
	a3 := core.ElasticAblation(dep, *seed)
	fmt.Fprint(w, a3.Render(a3.Run()))

	section(w, "Ablation 5 — block count sweep (Eq. 1 optimum)")
	for _, name := range []string{"resnet50", "vgg19"} {
		rows, err := core.BlockCountSweep(name, 8, cm, *seed)
		if err != nil {
			return err
		}
		fmt.Fprint(w, core.RenderBlockCountSweep(rows))
	}

	section(w, "Ablation 6 — GA initialization")
	a6, err := core.InitAblation(cm, *seed)
	if err != nil {
		return err
	}
	fmt.Fprint(w, core.RenderInitAblation(a6))

	section(w, "E12 — hardware tolerance: stability sweep (§5.1 footnote)")
	fmt.Fprint(w, core.RenderStability(core.StabilityExperiment(dep, nil, *seed)))

	section(w, "Ablation 7 — starvation guard (extension)")
	a7 := core.StarvationAblation(dep, *seed)
	fmt.Fprint(w, a7.Render(a7.Run()))

	section(w, "Ablation 8 — burstiness robustness (extension)")
	a8 := core.BurstinessAblation(dep, *seed)
	fmt.Fprint(w, a8.Render(a8.Run()))

	return nil
}

func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n================================================================\n%s\n================================================================\n", title)
}
