// Command splitbench replays the paper's evaluation (§5): the six Table 2
// scenarios through SPLIT, ClockWork, PREMA and RT-A, producing Figure 6
// (latency violation rate curves), Figure 7 (per-model jitter), the Figure 1
// and Figure 3 comparisons, and the design ablations.
//
// Usage:
//
//	splitbench -fig6 [-seeds 5] [-systems "SPLIT,REEF"]
//	splitbench -fig7
//	splitbench -fig1
//	splitbench -fig3
//	splitbench -table2
//	splitbench -summary
//	splitbench -ablation search|blocks|init
//	splitbench -ablation evenness|elastic|starvation|burstiness|shedding [-csv rows.csv]
//	splitbench -ablation placement [-devices 2] [-csv rows.csv]
//	splitbench -ablation batching [-batch-max 8] [-csv rows.csv]
//	splitbench -ablation sharing [-partitions 1,2,4] [-csv rows.csv]
//	splitbench -capacity [-capacity-devices 1,2,4] [-viol-target 0.1] [-placement least-loaded]
//	splitbench -saturation [-devices 2] [-saturation-points 16] [-viol-target 0.1]
//	splitbench -replay run.trace [-systems "SPLIT,RT-A"]
//
// -capacity binary-searches, per fleet size, the maximum sustainable
// aggregate request rate (req/s) holding viol@α under -viol-target — the
// knee of the violation-rate curve for the (devices, batch-max, placement)
// tuple. -saturation sweeps offered load through the same probe machinery
// and prints the full throughput-vs-QoS curve for the -devices fleet, with
// the knee marked. -replay re-simulates a recorded workload trace (splitd
// -record, or workload.WriteTrace) through the selected systems and prints
// their QoS summaries.
//
// -csv also writes a simulator ablation's rows (every -ablation but search,
// blocks and init) as CSV.
//
// Command-line mistakes (unknown ablation, -csv without a simulator
// ablation, -devices 0, -batch-max 0, a bad -viol-target or
// -capacity-devices list) exit with status 2 and a one-line error; runtime
// failures exit with status 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"split/internal/core"
	"split/internal/metrics"
	"split/internal/model"
	"split/internal/place"
	"split/internal/policy"
	"split/internal/workload"
)

// usageError marks a command-line mistake — bad flag value, unknown mode —
// so main can exit with the conventional usage status 2 rather than the
// runtime-failure status 1.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

// usagef builds a usageError from a format string.
func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "splitbench:", err)
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run executes the tool against the given arguments, writing results to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("splitbench", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		fig6     = fs.Bool("fig6", false, "print Figure 6 violation-rate curves")
		fig7     = fs.Bool("fig7", false, "print Figure 7 per-model jitter")
		fig3     = fs.Bool("fig3", false, "print Figure 3 full-vs-partial preemption")
		fig1     = fs.Bool("fig1", false, "print the Figure 1 two-request comparison")
		table2   = fs.Bool("table2", false, "print Table 2 scenarios")
		stab     = fs.Bool("stability", false, "print the §5.1 hardware-tolerance stability sweep")
		summary  = fs.Bool("summary", false, "print per-scenario QoS summaries")
		ablation = fs.String("ablation", "", "run an ablation: search|evenness|elastic|blocks|init|starvation|burstiness|shedding|placement|batching|sharing")
		devices  = fs.Int("devices", 2, "fleet size for -ablation placement")
		batchMax = fs.Int("batch-max", 8, "micro-batch cap for -ablation batching (1 disables batching)")
		partList = fs.String("partitions", "1,2,4", "comma-separated per-device partition counts for -ablation sharing")
		csvPath  = fs.String("csv", "", "also write the simulator -ablation's rows as CSV to this file")
		systems  = fs.String("systems", "", "comma-separated system list for -fig6/-fig7/-summary (default: the paper's four; add REEF or Stream-Parallel here)")
		seeds    = fs.Int("seeds", 1, "replications for -fig6/-fig7; >1 reports mean±std over seeds")
		seed     = fs.Int64("seed", 1, "workload seed")

		capacity    = fs.Bool("capacity", false, "binary-search the max sustainable req/s holding viol@4 under -viol-target")
		capDevices  = fs.String("capacity-devices", "1,2,4", "comma-separated fleet sizes for -capacity")
		violTarget  = fs.Float64("viol-target", 0.10, "viol@4 ceiling the -capacity knee must hold")
		capRequests = fs.Int("capacity-requests", 20000, "trace length per -capacity probe")
		placement   = fs.String("placement", "", "fleet placement policy for -capacity/-saturation (default round-robin)")
		replayPath  = fs.String("replay", "", "re-simulate a recorded workload trace through the selected systems")

		saturation = fs.Bool("saturation", false, "sweep offered load and print the throughput-vs-QoS curve with its knee")
		satPoints  = fs.Int("saturation-points", 16, "linear grid resolution across the -saturation knee region")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if *devices < 1 {
		return usagef("-devices must be >= 1, got %d", *devices)
	}
	if *batchMax < 1 {
		return usagef("-batch-max must be >= 1, got %d", *batchMax)
	}
	if *violTarget <= 0 || *violTarget >= 1 {
		return usagef("-viol-target must be in (0, 1), got %v", *violTarget)
	}
	if *capRequests < 1 {
		return usagef("-capacity-requests must be >= 1, got %d", *capRequests)
	}
	if *satPoints < 1 {
		return usagef("-saturation-points must be >= 1, got %d", *satPoints)
	}
	if _, err := place.New(*placement, 1); err != nil {
		return usageError{err}
	}
	capList, err := parseCounts("-capacity-devices", *capDevices)
	if err != nil {
		return err
	}
	partitions, err := parseCounts("-partitions", *partList)
	if err != nil {
		return err
	}
	// -batch-max defaults to 8 for the batching ablation; for -capacity,
	// batching stays off unless the flag is set explicitly.
	capBatch := 1
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "batch-max" {
			capBatch = *batchMax
		}
	})
	cm := model.DefaultCostModel()

	sysList := core.DefaultSystems()
	if *systems != "" {
		sysList = nil
		for _, name := range strings.Split(*systems, ",") {
			sys, err := core.SystemByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			sysList = append(sysList, sys)
		}
	}

	// The simulator ablations, by name; each runs, renders and writes CSV
	// one way. dep is deployed below, before any of them is built.
	var dep *core.Deployment
	simAblations := map[string]func() (*core.Ablation, error){
		"evenness":   func() (*core.Ablation, error) { return core.EvennessAblation(cm, *seed) },
		"elastic":    func() (*core.Ablation, error) { return core.ElasticAblation(dep, *seed), nil },
		"starvation": func() (*core.Ablation, error) { return core.StarvationAblation(dep, *seed), nil },
		"burstiness": func() (*core.Ablation, error) { return core.BurstinessAblation(dep, *seed), nil },
		"shedding":   func() (*core.Ablation, error) { return core.SheddingAblation(dep, *seed), nil },
		"placement":  func() (*core.Ablation, error) { return core.PlacementAblation(dep, *devices, *seed), nil },
		"batching":   func() (*core.Ablation, error) { return core.BatchingAblation(dep, *batchMax, *seed), nil },
		"sharing":    func() (*core.Ablation, error) { return core.SharingAblation(dep, partitions, *seed), nil },
	}
	sim := simAblations[*ablation]
	if *csvPath != "" && sim == nil {
		return usagef("-csv needs a simulator -ablation, got %q", *ablation)
	}
	needDeploy := *fig6 || *fig7 || *fig3 || *fig1 || *summary || *stab || *capacity || *saturation || *replayPath != "" || sim != nil
	if !needDeploy && !*table2 && *ablation == "" {
		fs.Usage()
		return usagef("no action selected")
	}
	if needDeploy {
		dep, err = core.DefaultPipeline().Deploy()
		if err != nil {
			return err
		}
	}

	if *table2 {
		fmt.Fprintf(out, "%-12s %26s %6s\n", "Name", "Average arrival interval(λ)", "Load")
		for _, s := range workload.Table2() {
			fmt.Fprintf(out, "%-12s %25.0fms %6s\n", s.Name, s.MeanIntervalMs, s.Load)
		}
	}
	if *fig6 {
		if *seeds > 1 {
			fmt.Fprint(out, core.RenderFig6Aggregate(core.Fig6MultiSeed(dep, sysList, *seeds)))
		} else {
			cells := core.Fig6(dep, sysList, *seed)
			fmt.Fprint(out, core.RenderFig6(cells))
			fmt.Fprintln(out)
			fmt.Fprint(out, core.RenderFig6Chart(cells, "Scenario4"))
		}
	}
	if *fig7 {
		if *seeds > 1 {
			fmt.Fprint(out, core.RenderFig7Aggregate(core.Fig7MultiSeed(dep, sysList, *seeds)))
		} else {
			fmt.Fprint(out, core.RenderFig7(core.Fig7(dep, sysList, *seed)))
		}
	}
	if *fig3 {
		fmt.Fprint(out, core.RenderFig3(core.Fig3(dep, *seed)))
	}
	if *fig1 {
		fmt.Fprint(out, core.RenderFig1(core.Fig1(dep)))
	}
	if *stab {
		fmt.Fprint(out, core.RenderStability(core.StabilityExperiment(dep, nil, *seed)))
	}
	if *summary {
		for _, run := range dep.RunAllScenarios(sysList, *seed) {
			fmt.Fprintf(out, "%-12s %s\n", run.Scenario.Name, run.Summary)
		}
	}
	if *capacity {
		cfg := core.CapacityConfig{
			BatchMax:   capBatch,
			Placement:  *placement,
			Requests:   *capRequests,
			ViolTarget: *violTarget,
			Seed:       *seed,
		}
		rows := dep.CapacitySweep(cfg, capList)
		fmt.Fprint(out, core.RenderCapacity(rows, *violTarget, 4))
	}
	if *saturation {
		res := core.NewSaturationAnalyzer(dep, core.SaturationConfig{
			CapacityConfig: core.CapacityConfig{
				Devices:    *devices,
				BatchMax:   capBatch,
				Placement:  *placement,
				Requests:   *capRequests,
				ViolTarget: *violTarget,
				Seed:       *seed,
			},
			Points: *satPoints,
		}).Analyze()
		fmt.Fprint(out, core.RenderSaturation(res, *violTarget, 4))
	}
	if *replayPath != "" {
		if err := replayTrace(out, dep, sysList, *replayPath); err != nil {
			return err
		}
	}
	switch *ablation {
	case "":
	case "search":
		rows, err := core.SearchAblation(cm, *seed)
		if err != nil {
			return err
		}
		fmt.Fprint(out, core.RenderSearchAblation(rows))
	case "blocks":
		for _, name := range []string{"resnet50", "vgg19"} {
			rows, err := core.BlockCountSweep(name, 8, cm, *seed)
			if err != nil {
				return err
			}
			fmt.Fprint(out, core.RenderBlockCountSweep(rows))
		}
	case "init":
		rows, err := core.InitAblation(cm, *seed)
		if err != nil {
			return err
		}
		fmt.Fprint(out, core.RenderInitAblation(rows))
	default:
		if sim == nil {
			return usagef("unknown ablation %q", *ablation)
		}
		a, err := sim()
		if err != nil {
			return err
		}
		rows := a.Run()
		fmt.Fprint(out, a.Render(rows))
		if *csvPath != "" {
			f, err := os.Create(*csvPath)
			if err != nil {
				return err
			}
			if err := errors.Join(a.WriteCSV(f, rows), f.Close()); err != nil {
				return err
			}
		}
	}

	return nil
}

// parseCounts parses a comma-separated list of positive integers.
func parseCounts(flagName, list string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(list, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err != nil || n < 1 {
			return nil, usagef("%s: %q is not a positive count", flagName, part)
		}
		out = append(out, n)
	}
	return out, nil
}

// replayTrace re-simulates a recorded workload trace through each system
// and prints its QoS summary, so a live run (splitd -record) can be
// compared across schedulers after the fact.
func replayTrace(out io.Writer, dep *core.Deployment, sysList []policy.System, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("opening trace: %w", err)
	}
	defer f.Close()
	h, arrivals, err := workload.ReadTrace(f)
	if err != nil {
		return err
	}
	src := h.Source
	if src == "" {
		src = "unknown"
	}
	fmt.Fprintf(out, "replaying %d arrivals (trace v%d, source %s)\n", h.Count, h.Version, src)
	for _, sys := range sysList {
		recs := sys.Run(arrivals, dep.Catalog, nil)
		fmt.Fprintf(out, "%-16s %s\n", sys.Name(), metrics.Summarize(sys.Name(), recs))
	}
	return nil
}
