// Command splitprof is the offline profiler: it regenerates Table 1 (model
// profiles), Figure 2 (cut-point grids), the Eq. 1 waiting-latency
// cross-check, and the §2.2 candidate-count table.
//
// Usage:
//
//	splitprof -table1
//	splitprof -fig2 -model resnet50 -stride 2
//	splitprof -eq1
//	splitprof -candidates
//	splitprof -sweep -model vgg19 -blocks 3 -count 20000
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"split/internal/core"
	"split/internal/model"
	"split/internal/profiler"
	"split/internal/stats"
	"split/internal/zoo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "splitprof:", err)
		os.Exit(1)
	}
}

// run executes the tool against the given arguments, writing results to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("splitprof", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		table1     = fs.Bool("table1", false, "print Table 1 model profiles")
		fig2       = fs.Bool("fig2", false, "print Figure 2 cut-point grids")
		eq1        = fs.Bool("eq1", false, "print the Eq. 1 cross-check")
		candidates = fs.Bool("candidates", false, "print splitting candidate counts")
		sweep      = fs.Bool("sweep", false, "profile random splitting candidates at scale")
		modelName  = fs.String("model", "resnet50", "model for -fig2/-sweep")
		stride     = fs.Int("stride", 1, "grid stride for -fig2")
		blocks     = fs.Int("blocks", 3, "block count for -sweep")
		count      = fs.Int("count", 20000, "candidate count for -sweep")
		seed       = fs.Int64("seed", 1, "RNG seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cm := model.DefaultCostModel()
	ran := false

	if *table1 {
		ran = true
		fmt.Fprint(out, core.RenderTable1(core.Table1()))
	}
	if *fig2 {
		ran = true
		res, err := core.Fig2(*modelName, *stride, cm)
		if err != nil {
			return err
		}
		fmt.Fprint(out, core.RenderFig2(res))
	}
	if *eq1 {
		ran = true
		fmt.Fprint(out, core.RenderEq1(core.Eq1Check(cm)))
	}
	if *candidates {
		ran = true
		fmt.Fprintf(out, "%-12s %6s %22s\n", "model", "blocks", "candidates C(M-1,m-1)")
		for _, name := range zoo.BenchmarkModels {
			g := zoo.MustLoad(name)
			for m := 2; m <= 4; m++ {
				fmt.Fprintf(out, "%-12s %6d %22.0f\n", name, m, model.CandidateCount(g.NumOps(), m))
			}
		}
	}
	if *sweep {
		ran = true
		g, err := zoo.Load(*modelName)
		if err != nil {
			return err
		}
		p := profiler.New(g, cm)
		rng := rand.New(rand.NewSource(*seed))
		cands := p.RandomSample(*blocks, *count, rng)
		stds := make([]float64, len(cands))
		overs := make([]float64, len(cands))
		for i, c := range cands {
			stds[i] = c.StdDevMs
			overs[i] = c.Overhead
		}
		fmt.Fprintf(out, "%s: profiled %d random %d-block candidates\n", *modelName, len(cands), *blocks)
		fmt.Fprintf(out, "std dev (ms):  %s\n", stats.Summarize(stds))
		fmt.Fprintf(out, "overhead:      %s\n", stats.Summarize(overs))
	}

	if !ran {
		fs.Usage()
		return fmt.Errorf("no action selected")
	}
	return nil
}
