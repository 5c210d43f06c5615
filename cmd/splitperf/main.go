// Command splitperf is the repository's benchmark: five named workloads
// over the two products that serve the paper's QoS numbers — the
// discrete-event simulator (policy.Split) and the live RPC server (serve) —
// measured end to end and, on the traced run, layer by layer. BENCHMARK.json
// at the repository root names this command, its workloads and its metrics;
// README.md in this directory explains each of them.
//
// Usage:
//
//	splitperf                                  every workload, each in a child process
//	splitperf -workload sim_features -seed 2   one workload, in this process
//	splitperf -trace 1 [-out dir]              the traced run: per-layer metrics + trace files
//	splitperf -json                            machine output
//
// Every run checks what the program under test produced; a failed check
// exits non-zero and prints no metrics. With -workload, the last line of
// standard output is always one JSON object {correct, attempted, failed,
// metrics}, which is what the benchmark driver reads.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// usageError marks a command-line mistake, reported with exit status 2.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "splitperf:", err)
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	json     bool
	out      string
	scale    float64
}

func parseFlags(args []string, out io.Writer) (options, error) {
	var o options
	var traceFlag string
	fs := flag.NewFlagSet("splitperf", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process (default: all, one child process each)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the program under test only ever receives generated inputs")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "how long the timed passes of one workload measure")
	fs.StringVar(&traceFlag, "trace", "0", "1 = the traced run: harness spans, trace files and per-layer metrics")
	fs.BoolVar(&o.json, "json", false, "machine output: one JSON object per workload")
	fs.StringVar(&o.out, "out", "cmd/splitperf/out", "directory the traced run writes trace files to")
	fs.Float64Var(&o.scale, "scale", 1, "size multiplier for smoke runs; results at a scale other than 1 are not comparable")
	if err := fs.Parse(args); err != nil {
		return o, usageError{err}
	}
	if fs.NArg() > 0 {
		return o, usageError{fmt.Errorf("unexpected argument %q", fs.Arg(0))}
	}
	traced, err := strconv.ParseBool(traceFlag)
	if err != nil {
		return o, usageError{fmt.Errorf("-trace wants 0 or 1, got %q", traceFlag)}
	}
	o.trace = traced
	if o.seconds <= 0 || o.scale <= 0 {
		return o, usageError{errors.New("-seconds and -scale must be positive")}
	}
	if o.workload != "" {
		if _, ok := workloadByName(o.workload); !ok {
			return o, usageError{fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames())}
		}
	}
	return o, nil
}

// run executes the tool against the given arguments, writing results to out.
func run(args []string, out io.Writer) error {
	o, err := parseFlags(args, out)
	if err != nil {
		return err
	}
	if o.workload == "" {
		return runAll(o, out)
	}
	def, _ := workloadByName(o.workload)
	res, err := runWorkload(def, o)
	if err != nil {
		return fmt.Errorf("%s: %w", def.name, err)
	}
	if o.json {
		if err := json.NewEncoder(out).Encode(res); err != nil {
			return fmt.Errorf("encode result: %w", err)
		}
	} else {
		printResult(out, res)
	}
	return printDriverLine(out, res)
}

// runWorkload runs one workload in this process.
func runWorkload(def workloadDef, o options) (*result, error) {
	e := &env{seed: o.seed, scale: o.scale, budget: time.Duration(o.seconds * float64(time.Second))}
	if o.trace {
		return runTraced(def, e, o.out)
	}
	return runUntraced(def, e)
}

// runAll runs every workload in a child process of its own, so that one
// workload's heap, goroutines and peak memory cannot colour the next one's.
// Children are this same executable.
func runAll(o options, out io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own executable: %w", err)
	}
	var results []*result
	for _, def := range workloads {
		args := []string{
			"-workload", def.name, "-json",
			"-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
			"-trace", strconv.FormatBool(o.trace),
			"-out", o.out,
		}
		var stdout bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: child: %w", def.name, err)
		}
		res := new(result)
		if err := json.NewDecoder(&stdout).Decode(res); err != nil {
			return fmt.Errorf("%s: decode child result: %w", def.name, err)
		}
		results = append(results, res)
		if !o.json {
			printResult(out, res)
		}
	}
	if o.json {
		if err := json.NewEncoder(out).Encode(results); err != nil {
			return fmt.Errorf("encode results: %w", err)
		}
	}
	return nil
}

// printResult renders one result for a person: every metric by name with
// its unit and the sample count behind it.
func printResult(out io.Writer, res *result) {
	run := "untraced"
	if res.Traced {
		run = "traced"
	}
	fmt.Fprintf(out, "%s (%s, %s run) seed=%d scale=%g passes=%d nproc=%d GOMAXPROCS=%d %s\n",
		res.Workload, res.Kind, run, res.Seed, res.Scale, res.Passes,
		res.Stamp.NProc, res.Stamp.GOMAXPROCS, res.Stamp.Go)
	fmt.Fprintf(out, "  attempted=%d failed=%d disturbed: %t", res.Attempted, res.Failed, res.Disturbed)
	if res.Digest != "" {
		fmt.Fprintf(out, " digest=%s", res.Digest)
	}
	fmt.Fprintln(out)
	printMetrics(out, "metrics", res.Metrics)
	printMetrics(out, "detail", res.Detail)
	if len(res.SelfMs) > 0 {
		fmt.Fprintln(out, "  self time by span:")
		names := make([]string, 0, len(res.SelfMs))
		for name := range res.SelfMs {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return res.SelfMs[names[i]] > res.SelfMs[names[j]] })
		for _, name := range names {
			fmt.Fprintf(out, "    %-44s %14.3f ms\n", name, res.SelfMs[name])
		}
	}
	if res.TraceFile != "" {
		fmt.Fprintf(out, "  trace file: %s\n", res.TraceFile)
	}
}

func printMetrics(out io.Writer, title string, ms map[string]metricValue) {
	if len(ms) == 0 {
		return
	}
	fmt.Fprintf(out, "  %s:\n", title)
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := ms[name]
		fmt.Fprintf(out, "    %-44s %14.6g %-6s", name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(out, " n=%d", m.N)
		}
		fmt.Fprintln(out)
	}
}

// printDriverLine writes the one-line JSON object the benchmark driver
// reads from the end of standard output.
func printDriverLine(out io.Writer, res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]value, len(res.Metrics))}
	for name, m := range res.Metrics {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	if err := json.NewEncoder(out).Encode(line); err != nil {
		return fmt.Errorf("encode driver line: %w", err)
	}
	return nil
}
