// Command splitexp is the offline front end. It prints the paper's figures,
// tables and ablations, all of them in one report or one section at a time,
// and runs the offline jobs around them: GA split plans, traced runs and
// replays of recorded workloads.
//
// Usage:
//
//	splitexp [-quick] [-out report.txt] [-seed 1]
//	splitexp SECTION [flags]
//	splitexp plan [-model vgg19 -blocks 3] [-out plans/] [-save-blocks] [-dot g.dot]
//	splitexp trace [-system SPLIT] [-scenario Scenario4 | -replay run.trace] [-gantt 0:2000] [-spans] [exports]
//	splitexp replay [-systems SPLIT,RT-A] run.trace
//
// With no section, splitexp prints the full report that EXPERIMENTS.md is
// made from; -quick subsamples Figure 2's grid. A section prints one figure,
// table or ablation. In report order the sections are fig1 table1 table2
// fig2 eq1 fig5 table3 candidates fig6 fig7 fig3 summary search evenness
// elastic blocks init stability starvation burstiness; shedding placement
// batching sharing capacity saturation and sweep are outside the report.
// `splitexp SECTION -h` lists the flags a section reads, and a flag it does
// not read is a mistake.
//
// plan splits one model (-model) with the GA, or without -model builds the
// default deployment's plans, and writes them under -out for splitd. trace
// runs one system on a Table 2 scenario, or on a workload trace that
// splitd -record wrote, with every event traced, and exports what it saw.
// replay re-simulates such a trace through each of -systems and prints
// their QoS summaries.
//
// Every command-line mistake exits 2 before any deploy, simulation or file
// creation; runtime failures exit 1.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"split/internal/core"
	"split/internal/model"
	"split/internal/obs"
	"split/internal/place"
	"split/internal/policy"
	"split/internal/workload"
	"split/internal/zoo"
)

// usageError marks a command-line mistake, which exits 2 instead of the
// runtime failure's 1.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// exitCode maps run's error to the process exit status.
func exitCode(err error) int {
	var ue usageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &ue):
		return 2
	}
	return 1
}

func main() {
	err := run(os.Args[1:], os.Stdout)
	if exitCode(err) != 0 {
		fmt.Fprintln(os.Stderr, "splitexp:", err)
	}
	os.Exit(exitCode(err))
}

// options holds every flag of every section; a section reads only the
// flags its entry names.
type options struct {
	seed                                                   int64
	quick, saveBlocks, spans                               bool
	out, model, dot, csv, systemList, partList, capDevices string
	placement, system, scenario, replay, gantt             string
	records, events, perfetto, timeseries                  string
	seeds, stride, blocks, count, devices, batchMax        int
	capRequests, satPoints                                 int
	violTarget, window, alpha                              float64

	// Parsed from the flags above before any work runs.
	systems             []policy.System
	sys                 policy.System
	sc                  workload.Scenario
	graph               *model.Graph // -model's graph, when one is named
	capList, partitions []int
	lo, hi              float64 // the -gantt window
	args                []string

	cm  model.CostModel
	dep *core.Deployment
}

func (o *options) register(fs *flag.FlagSet) {
	fs.Int64Var(&o.seed, "seed", 1, "seed of the workload, the GA and every random draw")
	fs.BoolVar(&o.quick, "quick", false, "subsample Figure 2's grid")
	fs.StringVar(&o.out, "out", "", "report: also write it to this file; plan: directory for the plan (and block) JSON")
	fs.StringVar(&o.model, "model", "resnet50", "zoo model")
	fs.IntVar(&o.stride, "stride", 1, "cut-point grid stride")
	fs.IntVar(&o.blocks, "blocks", 3, "block count m")
	fs.IntVar(&o.count, "count", 20000, "random candidates to profile")
	fs.BoolVar(&o.saveBlocks, "save-blocks", false, "also write per-block sub-graphs under -out")
	fs.StringVar(&o.dot, "dot", "", "write a Graphviz DOT of the split model here")
	fs.StringVar(&o.systemList, "systems", "", "comma-separated systems (default: the paper's four; add REEF or Stream-Parallel here)")
	fs.IntVar(&o.seeds, "seeds", 1, "replications; > 1 reports mean±std over seeds")
	fs.StringVar(&o.csv, "csv", "", "also write the ablation's rows as CSV to this file")
	fs.IntVar(&o.devices, "devices", 2, "fleet size")
	fs.IntVar(&o.batchMax, "batch-max", 8, "micro-batch cap (1 disables batching)")
	fs.StringVar(&o.partList, "partitions", "1,2,4", "comma-separated per-device partition counts")
	fs.StringVar(&o.capDevices, "capacity-devices", "1,2,4", "comma-separated fleet sizes")
	fs.Float64Var(&o.violTarget, "viol-target", 0.10, "viol@4 ceiling the knee must hold")
	fs.IntVar(&o.capRequests, "capacity-requests", 20000, "trace length per probe")
	fs.StringVar(&o.placement, "placement", "", "fleet placement policy (default round-robin)")
	fs.IntVar(&o.satPoints, "saturation-points", 16, "linear grid resolution across the knee region")
	fs.StringVar(&o.system, "system", "SPLIT", "system: SPLIT|SPLIT-partial|ClockWork|PREMA|PREMA-NPU|RT-A|Stream-Parallel|REEF")
	fs.StringVar(&o.scenario, "scenario", "Scenario4", "Table 2 scenario")
	fs.StringVar(&o.replay, "replay", "", "run this workload trace (splitd -record) instead of -scenario")
	fs.StringVar(&o.gantt, "gantt", "", "render a Gantt window, startMs:endMs")
	fs.BoolVar(&o.spans, "spans", false, "print the per-request span decomposition (wait/exec/preempted)")
	fs.StringVar(&o.records, "records", "", "write per-request records CSV here")
	fs.StringVar(&o.events, "events", "", "write the event trace JSONL here")
	fs.StringVar(&o.perfetto, "perfetto", "", "write the span trees as Chrome trace-event JSON here (chrome://tracing, Perfetto)")
	fs.StringVar(&o.timeseries, "timeseries", "", "write the windowed QoS time series JSON here")
	fs.Float64Var(&o.window, "window", obs.DefaultTimeSeriesWindowMs, "time-series window width in virtual ms")
	fs.Float64Var(&o.alpha, "alpha", 4, "latency target multiplier α for the time series' violations")
}

// parse reads the command line into a section and its options and checks
// every value. It runs nothing and creates no file.
func parse(args []string, out io.Writer) (*section, *options, error) {
	sec := &report
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		i := slices.IndexFunc(sections, func(s section) bool { return s.name == args[0] })
		if i < 0 {
			return nil, nil, usagef("unknown section %q", args[0])
		}
		sec, args = &sections[i], args[1:]
	}
	o := &options{cm: model.DefaultCostModel()}
	all := flag.NewFlagSet("", flag.ContinueOnError)
	o.register(all)
	switch sec.name {
	case "plan":
		o.model, o.blocks = "", 2
	case "capacity", "saturation":
		o.batchMax = 1
	}
	fs := flag.NewFlagSet(strings.TrimSpace("splitexp "+sec.name), flag.ContinueOnError)
	fs.SetOutput(out)
	all.VisitAll(func(f *flag.Flag) {
		if f.Name == "seed" || slices.Contains(strings.Fields(sec.flags), f.Name) {
			fs.Var(f.Value, f.Name, f.Usage)
		}
	})
	fs.Usage = func() {
		names := make([]string, len(sections))
		for i, s := range sections {
			names[i] = s.name
		}
		fmt.Fprintf(out, "usage: splitexp [SECTION] [flags]\nsections: %s\nflags of %s:\n", strings.Join(names, " "), fs.Name())
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return nil, nil, usageError{err}
	}
	o.args = fs.Args()
	if n := len(o.args); sec.name == "replay" && n != 1 {
		return nil, nil, usagef("replay takes one workload trace file, got %d arguments", n)
	} else if sec.name != "replay" && n > 0 {
		return nil, nil, usagef("unexpected argument %q", o.args[0])
	}
	return sec, o, o.validate()
}

// validate checks the flag values and parses the structured ones.
func (o *options) validate() (err error) {
	finitePositive := func(v float64) bool { return v > 0 && !math.IsInf(v, 1) }
	for _, c := range []struct {
		ok   bool
		flag string
		v    any
		want string
	}{
		{o.seeds >= 1, "seeds", o.seeds, ">= 1"},
		{o.stride >= 1, "stride", o.stride, ">= 1"},
		{o.blocks >= 2, "blocks", o.blocks, ">= 2"},
		{o.count >= 1, "count", o.count, ">= 1"},
		{o.devices >= 1, "devices", o.devices, ">= 1"},
		{o.batchMax >= 1, "batch-max", o.batchMax, ">= 1"},
		{o.capRequests >= 1, "capacity-requests", o.capRequests, ">= 1"},
		{o.satPoints >= 1, "saturation-points", o.satPoints, ">= 1"},
		{o.violTarget > 0 && o.violTarget < 1, "viol-target", o.violTarget, "in (0, 1)"},
		{finitePositive(o.window), "window", o.window, "finite and > 0"},
		{finitePositive(o.alpha), "alpha", o.alpha, "finite and > 0"},
		{!o.saveBlocks || o.out != "", "save-blocks", o.saveBlocks, "used with -out"},
		{o.dot == "" || o.model != "", "dot", o.dot, "used with -model"},
	} {
		if !c.ok {
			return usagef("-%s must be %s, got %v", c.flag, c.want, c.v)
		}
	}
	if _, err := place.New(o.placement, 1); err != nil {
		return usageError{err}
	}
	if o.capList, err = parseCounts("-capacity-devices", o.capDevices); err != nil {
		return err
	}
	if o.partitions, err = parseCounts("-partitions", o.partList); err != nil {
		return err
	}
	o.systems = core.DefaultSystems()
	if o.systemList != "" {
		o.systems = nil
		for _, name := range strings.Split(o.systemList, ",") {
			sys, err := core.SystemByName(strings.TrimSpace(name))
			if err != nil {
				return usageError{err}
			}
			o.systems = append(o.systems, sys)
		}
	}
	if o.sys, err = core.SystemByName(o.system); err != nil {
		return usageError{err}
	}
	if o.sc, err = workload.ScenarioByName(o.scenario); err != nil {
		return usageError{err}
	}
	if o.gantt != "" {
		lo, hi, ok := strings.Cut(o.gantt, ":")
		var errLo, errHi error
		o.lo, errLo = strconv.ParseFloat(lo, 64)
		o.hi, errHi = strconv.ParseFloat(hi, 64)
		if !ok || errLo != nil || errHi != nil || !(o.hi > o.lo) || math.IsInf(o.hi-o.lo, 0) {
			return usagef("bad -gantt %q: want startMs:endMs, two numbers with end after start", o.gantt)
		}
	}
	if o.model != "" {
		if o.graph, err = zoo.Load(o.model); err != nil {
			return usageError{err}
		}
		if o.blocks > o.graph.NumOps() {
			return usagef("-blocks %d exceeds %s's %d operators", o.blocks, o.model, o.graph.NumOps())
		}
	}
	return nil
}

// parseCounts parses a comma-separated list of positive integers.
func parseCounts(flagName, list string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, usagef("%s: %q is not a positive count", flagName, part)
		}
		out = append(out, n)
	}
	return out, nil
}

// run parses the command line and runs the section it names, or the full
// report, writing to out.
func run(args []string, out io.Writer) (err error) {
	sec, o, err := parse(args, out)
	if err != nil {
		return err
	}
	dst := out
	if sec == &report && o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		defer func() { err = errors.Join(err, f.Close()) }()
		dst = io.MultiWriter(out, f)
	}
	// A bufio.Writer keeps the first write error and reports it from Flush,
	// so the many prints of the sections need no check of their own.
	w := bufio.NewWriter(dst)
	defer func() { err = errors.Join(err, w.Flush()) }()
	if sec.deploy {
		if o.dep, err = core.DefaultPipeline().Deploy(); err != nil {
			return err
		}
	}
	if sec != &report {
		return sec.run(w, o)
	}
	if o.quick {
		o.stride = 4
	}
	for _, s := range sections {
		if s.title == "" {
			continue
		}
		fmt.Fprintf(w, "\n================================================================\n%s\n================================================================\n", s.title)
		if err := s.run(w, o); err != nil {
			return err
		}
	}
	return nil
}
