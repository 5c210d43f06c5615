// Command splitga is the offline splitting tool (§4.1 step 3): it runs the
// evenly-sized genetic splitting for zoo models, regenerates Figure 5 (GA
// convergence) and Table 3 (optimal splits), and exports deployable split
// plans (and per-block sub-graphs) as JSON for cmd/splitd.
//
// Usage:
//
//	splitga -fig5
//	splitga -table3
//	splitga -model vgg19 -blocks 3 -out plans/
//	splitga -deploy -out plans/          # default paper deployment
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"split/internal/core"
	"split/internal/ga"
	"split/internal/model"
	"split/internal/onnxlite"
	"split/internal/profiler"
	"split/internal/zoo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "splitga:", err)
		os.Exit(1)
	}
}

// run executes the tool against the given arguments, writing results to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("splitga", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		fig5      = fs.Bool("fig5", false, "print Figure 5 GA convergence series")
		table3    = fs.Bool("table3", false, "print Table 3 optimal splitting options")
		deploy    = fs.Bool("deploy", false, "build the default paper deployment plans")
		modelName = fs.String("model", "", "split one model")
		blocks    = fs.Int("blocks", 2, "block count for -model")
		outDir    = fs.String("out", "", "directory to write *.plan.json (and block) artifacts")
		saveBlks  = fs.Bool("save-blocks", false, "also write per-block sub-graphs with -model -out")
		dotPath   = fs.String("dot", "", "write a Graphviz DOT of the split model here (-model only)")
		seed      = fs.Int64("seed", 1, "GA seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cm := model.DefaultCostModel()
	ran := false

	if *fig5 {
		ran = true
		series, err := core.Fig5(cm, *seed)
		if err != nil {
			return err
		}
		fmt.Fprint(out, core.RenderFig5(series))
	}
	if *table3 {
		ran = true
		rows, err := core.Table3(cm, *seed)
		if err != nil {
			return err
		}
		fmt.Fprint(out, core.RenderTable3(rows))
	}
	if *deploy {
		ran = true
		pipe := core.DefaultPipeline()
		pipe.GASeed = *seed
		dep, err := pipe.Deploy()
		if err != nil {
			return err
		}
		for _, name := range []string{"resnet50", "vgg19"} {
			p := dep.Plans[name]
			fmt.Fprintf(out, "%-10s blocks=%d cuts=%v std=%.3fms overhead=%.1f%%\n",
				name, p.NumBlocks(), p.Cuts, p.StdDevMs, p.OverheadRatio*100)
		}
		if *outDir != "" {
			if err := onnxlite.SavePlanDir(*outDir, dep.Plans); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %d plans to %s\n", len(dep.Plans), *outDir)
		}
	}
	if *modelName != "" {
		ran = true
		g, err := zoo.Load(*modelName)
		if err != nil {
			return err
		}
		p := profiler.New(g, cm)
		cfg := ga.DefaultConfig(*blocks)
		cfg.Seed = *seed
		res, err := ga.Run(p, cfg)
		if err != nil {
			return err
		}
		plan := p.Plan(res.Best)
		fmt.Fprintf(out, "%s into %d blocks: cuts=%v\n", *modelName, *blocks, plan.Cuts)
		fmt.Fprintf(out, "  block times (ms): %s\n", fmtSlice(plan.BlockTimesMs))
		fmt.Fprintf(out, "  std dev %.3f ms, overhead %.1f%%, fitness %.4f, %d evals, converged=%v\n",
			plan.StdDevMs, plan.OverheadRatio*100, res.Fitness, res.Evaluations, res.Converged)
		if *dotPath != "" {
			f, err := os.Create(*dotPath)
			if err != nil {
				return err
			}
			if err := onnxlite.WriteDOT(f, g, plan.Cuts); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s\n", *dotPath)
		}
		if *outDir != "" {
			path := filepath.Join(*outDir, *modelName+".plan.json")
			if err := onnxlite.SavePlan(path, plan); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s\n", path)
			if *saveBlks {
				paths, err := onnxlite.SaveBlocks(*outDir, g, plan)
				if err != nil {
					return err
				}
				fmt.Fprintf(out, "wrote %d block graphs\n", len(paths))
			}
		}
	}

	if !ran {
		fs.Usage()
		return fmt.Errorf("no action selected")
	}
	return nil
}

func fmtSlice(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.2f", x)
	}
	return s + "]"
}
