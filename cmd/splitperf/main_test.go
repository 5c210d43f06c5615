package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"split/internal/trace"
)

// smokeArgs runs a workload at a hundredth of its size with a measuring
// budget that allows exactly one timed pass.
func smokeArgs(workload string, extra ...string) []string {
	return append([]string{"-workload", workload, "-scale", "0.01", "-seconds", "0.01", "-seed", "3"}, extra...)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// driverLine decodes the last line of the tool's output, the object the
// benchmark driver reads.
type driverLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

func lastLine(t *testing.T, out []byte) driverLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var line driverLine
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line of output is not the driver's object: %v\n%s", err, lines[len(lines)-1])
	}
	return line
}

// checkLine asserts the line carries exactly the declared metrics, each
// once, finite, under a well-formed name and with its declared unit.
func checkLine(t *testing.T, line driverLine, declared map[string]string) {
	t.Helper()
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Errorf("correct=%t attempted=%d failed=%d, want a correct run with no failure", line.Correct, line.Attempted, line.Failed)
	}
	for name, m := range line.Metrics {
		unit, ok := declared[name]
		switch {
		case !ok:
			t.Errorf("metric %s is emitted but not declared", name)
		case !metricName.MatchString(name):
			t.Errorf("metric name %q is malformed", name)
		case m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
			t.Errorf("metric %s has no finite value", name)
		case m.Unit != unit:
			t.Errorf("metric %s has unit %q, declared %q", name, m.Unit, unit)
		}
	}
	for name := range declared {
		if _, ok := line.Metrics[name]; !ok {
			t.Errorf("metric %s is declared but not emitted", name)
		}
	}
}

// TestSmokeEveryWorkload runs all five workloads end to end, small: every
// correctness check runs, and every end-to-end metric comes out.
func TestSmokeEveryWorkload(t *testing.T) {
	declared := make(map[string]string)
	for _, m := range endToEndMetrics {
		declared[m.name] = m.unit
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(smokeArgs(w.name), &out); err != nil {
				t.Fatal(err)
			}
			checkLine(t, lastLine(t, out.Bytes()), declared)
			if w.exactQoS && !strings.Contains(out.String(), "digest=") {
				t.Errorf("simulator workload printed no digest:\n%s", out.String())
			}
		})
	}
}

// TestSmokeTracedRun climbs the whole ladder once, next to the workload
// with the most spans per request, and loads the trace file it writes.
func TestSmokeTracedRun(t *testing.T) {
	declared := make(map[string]string)
	for _, m := range perLayer {
		declared[m.name] = m.unit
	}
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(smokeArgs("serve_open_zoo", "-trace", "1", "-out", dir, "-json"), &out); err != nil {
		t.Fatal(err)
	}
	checkLine(t, lastLine(t, out.Bytes()), declared)

	var res result
	if err := json.Unmarshal(bytes.SplitN(out.Bytes(), []byte("\n"), 2)[0], &res); err != nil {
		t.Fatalf("first line of -json output is not a result: %v", err)
	}
	if res.Stamp.NProc < 1 || res.Stamp.GOMAXPROCS < 1 || res.Stamp.Go == "" {
		t.Errorf("result is not stamped with the host: %+v", res.Stamp)
	}
	for _, name := range []string{"request", "inflight", "server.wait", "server.exec", "ladder.sched", "deploy", "run"} {
		if _, ok := res.SelfMs[name]; !ok {
			t.Errorf("no self time for span %q; have %v", name, res.SelfMs)
		}
	}
	data, err := os.ReadFile(res.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	events, err := trace.ValidatePerfetto(data)
	if err != nil {
		t.Fatalf("trace file does not load: %v", err)
	}
	// Three spans per request at the very least: request, inflight, and
	// one of the server's two.
	if events < 3*res.Attempted {
		t.Errorf("trace file has %d events for %d requests", events, res.Attempted)
	}
}

func TestSeedChangesTheInputs(t *testing.T) {
	digest := func(seed string) string {
		var out bytes.Buffer
		if err := run([]string{"-workload", "sim_cohort_1m", "-scale", "0.002", "-seconds", "0.01", "-seed", seed, "-json"}, &out); err != nil {
			t.Fatal(err)
		}
		var res result
		if err := json.Unmarshal(bytes.SplitN(out.Bytes(), []byte("\n"), 2)[0], &res); err != nil {
			t.Fatal(err)
		}
		return res.Digest
	}
	// That one seed always gives one digest is checked inside every run,
	// pass against pass.
	if one, two := digest("1"), digest("2"); one == "" || one == two {
		t.Errorf("seeds 1 and 2 gave digests %q and %q, want two different ones", one, two)
	}
}

func TestBadFlagsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-seconds", "0"},
		{"stray"},
	} {
		var out bytes.Buffer
		err := run(args, &out)
		if _, ok := err.(usageError); !ok {
			t.Errorf("run(%v) = %v, want a usage error", args, err)
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []endToEndJSON `json:"end_to_end"`
	PerLayer   []perLayerJSON `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type endToEndJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type perLayerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// fromRegistry builds what BENCHMARK.json must say from the declarations
// the harness itself runs on.
func fromRegistry() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"go", "run", "./cmd/splitperf"},
		Paths:      []string{"cmd/splitperf"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, workloadJSON{w.name, w.why})
	}
	for _, m := range endToEndMetrics {
		b.EndToEnd = append(b.EndToEnd, endToEndJSON{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		b.PerLayer = append(b.PerLayer, perLayerJSON{m.name, m.unit, m.better})
	}
	return b
}

// TestBenchmarkJSONMatchesTheRegistry keeps BENCHMARK.json and the code
// from drifting apart, and holds both to the driver's limits.
func TestBenchmarkJSONMatchesTheRegistry(t *testing.T) {
	path := filepath.Join("..", "..", "BENCHMARK.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var got benchmarkJSON
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	want := fromRegistry()
	if !reflect.DeepEqual(got, want) {
		fresh, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("%s differs from the harness's registry; it should read:\n%s", path, fresh)
	}

	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !metricName.MatchString(n) {
			t.Errorf("%s name %q is malformed", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range want.Workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(want.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	hasSetup := false
	for _, m := range want.EndToEnd {
		name("end-to-end", m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	for _, m := range endToEndMetrics {
		if m.what == "" {
			t.Errorf("end-to-end %s does not say what it measures", m.name)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, m := range perLayer {
		name("per-layer", m.name)
		if !unit.MatchString(m.unit) || (m.better != "lower" && m.better != "higher") {
			t.Errorf("per-layer %s: unit %q, better %q", m.name, m.unit, m.better)
		}
		if m.moves == "" {
			t.Errorf("per-layer %s does not say which end-to-end metric it should move", m.name)
		}
	}
	if want.RunSeconds < 1 || want.RunSeconds > 60 || len(data) > 64<<10 {
		t.Errorf("run_seconds %d or file size %d outside the driver's limits", want.RunSeconds, len(data))
	}
}
