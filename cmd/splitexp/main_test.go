package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"split/internal/obs"
	"split/internal/onnxlite"
	"split/internal/trace"
	"split/internal/workload"
	"split/internal/zoo"
)

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var b strings.Builder
	if err := run(args, &b); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return b.String()
}

// assertGolden compares got with testdata/file.
func assertGolden(t *testing.T, file, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs:\ngot:\n%s\nwant:\n%s", file, got, want)
	}
}

// writeTestTrace writes a 200-arrival generated workload trace, after edit
// (if any) changes its arrivals, and returns its path.
func writeTestTrace(t *testing.T, edit func([]workload.Arrival)) string {
	t.Helper()
	arrivals := workload.MustGenerate(workload.Config{
		Models:         zoo.BenchmarkModels,
		MeanIntervalMs: 40,
		Count:          200,
		Seed:           1,
	})
	if edit != nil {
		edit(arrivals)
	}
	path := filepath.Join(t.TempDir(), "run.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteTrace(f, workload.TraceHeader{Seed: 1, Source: "generate"}, arrivals); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFullExperimentSuite runs the complete -quick experiment sweep once and
// checks that every section renders with its expected content. This is the
// repository's broadest integration test: it exercises the zoo, profiler,
// GA, all systems, the workload generator and every experiment renderer in
// one pass.
func TestFullExperimentSuite(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "exp.txt")
	var b strings.Builder
	if err := run([]string{"-quick", "-out", outPath}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	sections := []string{
		"E0 — Figure 1", "E1 — Table 1", "E8 — Table 2", "E2 — Figure 2",
		"E3 — Eq. 1", "E4 — Figure 5", "E5 — Table 3", "candidate counts",
		"E6 — Figure 6", "E7 — Figure 7", "E10 — Figure 3", "E11 —",
		"Ablation 1", "Ablation 2", "Ablation 3", "Ablation 5",
		"Ablation 6", "Ablation 7",
	}
	for _, s := range sections {
		if !strings.Contains(out, s) {
			t.Errorf("missing section %q", s)
		}
	}
	// Spot-check content from different subsystems.
	for _, want := range []string{
		"2534",          // gpt2 op count in Table 1
		"observation 1", // Fig 2
		"RES-1",         // Fig 5 series
		"Scenario6",     // evaluation scenarios
		"SPLIT",         // systems
		"guard RR",      // starvation ablation
		"exhaustive",    // search ablation
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing content %q", want)
		}
	}

	// The -out file must mirror stdout.
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != out {
		t.Error("-out file does not match stdout")
	}
}

// TestQuickGolden pins the whole -quick report byte for byte.
func TestQuickGolden(t *testing.T) {
	assertGolden(t, "quick.txt", runOK(t, "-quick"))
}

// TestOutWriteErrorFails: a report that cannot be written to -out must fail
// the run rather than exit cleanly with the file short.
func TestOutWriteErrorFails(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	var b strings.Builder
	if err := run([]string{"-quick", "-out", "/dev/full"}, &b); err == nil {
		t.Error("-out /dev/full: run returned nil")
	}
}

func TestBadFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-nope"}, &b); exitCode(err) != 2 {
		t.Errorf("bad flag: %v, want a usage error", err)
	}
}

// TestOutputGoldens pins byte for byte what sections and jobs print outside
// the full report, and every file they write. A temporary directory reads
// $TMP in the arguments and the goldens.
func TestOutputGoldens(t *testing.T) {
	cases := []struct {
		file  string
		args  []string
		files map[string]string // written file -> golden
	}{
		{"fig6.SPLIT-REEF.txt", []string{"fig6", "-systems", "SPLIT,REEF"}, nil},
		{"fig6.seeds2.ClockWork.txt", []string{"fig6", "-seeds", "2", "-systems", "ClockWork"}, nil},
		{"capacity.requests2000.txt", []string{"capacity", "-capacity-requests", "2000"}, nil},
		{"saturation.devices2.txt", []string{"saturation", "-devices", "2", "-capacity-requests", "2000", "-saturation-points", "4"}, nil},
		{"replay.txt", []string{"replay", "-systems", "SPLIT,RT-A", writeTestTrace(t, nil)}, nil},
		{"fig2.vgg19.stride4.txt", []string{"fig2", "-model", "vgg19", "-stride", "4"}, nil},
		{"fig2.resnet50.txt", []string{"fig2"}, nil},
		{"sweep.yolov2.txt", []string{"sweep", "-model", "yolov2", "-blocks", "2", "-count", "200"}, nil},
		{"trace.gantt.txt", []string{"trace", "-system", "SPLIT", "-scenario", "Scenario1", "-gantt", "500:1500"}, nil},
		{"trace.gantt.RT-A.txt", []string{"trace", "-system", "RT-A", "-scenario", "Scenario1", "-gantt", "0:1000"}, nil},
		{"trace.spans.txt", []string{"trace", "-system", "SPLIT", "-scenario", "Scenario1", "-spans"}, nil},
		{"plan.resnet50.txt", []string{"plan", "-model", "resnet50", "-blocks", "2", "-out", "$TMP", "-save-blocks"}, map[string]string{
			"resnet50.plan.json":   "resnet50.plan.json",
			"resnet50.block0.json": "resnet50.block0.json",
			"resnet50.block1.json": "resnet50.block1.json",
		}},
		{"plan.vgg19.dot.txt", []string{"plan", "-model", "vgg19", "-blocks", "2", "-dot", "$TMP/g.dot"}, map[string]string{
			"g.dot": "vgg19.dot",
		}},
		{"plan.deploy.txt", []string{"plan", "-out", "$TMP"}, map[string]string{
			"resnet50.plan.json": "resnet50.plan.json",
			"vgg19.plan.json":    "vgg19.plan.json",
		}},
	}
	for _, c := range cases {
		dir := t.TempDir()
		args := make([]string, len(c.args))
		for i, a := range c.args {
			args[i] = strings.ReplaceAll(a, "$TMP", dir)
		}
		assertGolden(t, c.file, strings.ReplaceAll(runOK(t, args...), dir, "$TMP"))
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != len(c.files) {
			t.Errorf("%v wrote %d files, want %d", c.args, len(entries), len(c.files))
		}
		for name, golden := range c.files {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			assertGolden(t, golden, string(data))
		}
	}
}

// TestAblationGoldens pins every simulator ablation's table, and the
// placement CSV, byte for byte against testdata: each ablation at seeds 1
// and 2, plus the runs that -devices, -batch-max and -partitions shape.
func TestAblationGoldens(t *testing.T) {
	type golden struct {
		file string
		args []string
	}
	var cases []golden
	for _, name := range []string{"evenness", "elastic", "starvation", "burstiness", "shedding", "placement", "batching", "sharing"} {
		for _, seed := range []string{"1", "2"} {
			cases = append(cases, golden{name + ".seed" + seed + ".txt", []string{name, "-seed", seed}})
		}
	}
	cases = append(cases,
		golden{"batching.max2.txt", []string{"batching", "-batch-max", "2"}},
		golden{"sharing.partitions1-2.txt", []string{"sharing", "-partitions", "1,2"}},
	)
	csv := filepath.Join(t.TempDir(), "placement.csv")
	cases = append(cases, golden{"placement.devices2.txt", []string{"placement", "-devices", "2", "-csv", csv}})

	for _, c := range cases {
		assertGolden(t, c.file, runOK(t, c.args...))
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "placement.devices2.csv", string(data))
}

func TestTable1Output(t *testing.T) {
	out := runOK(t, "table1")
	for _, want := range []string{"yolov2", "gpt2", "2534", "67.50", "Long"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q", want)
		}
	}
}

func TestTable2Output(t *testing.T) {
	out := runOK(t, "table2")
	for _, want := range []string{"Scenario1", "Scenario6", "160ms", "110ms", "High"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 missing %q", want)
		}
	}
}

func TestFig1Output(t *testing.T) {
	out := runOK(t, "fig1")
	for _, want := range []string{"SPLIT", "ClockWork", "Stream-Parallel", "RT-A", "short RR"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig1 missing %q", want)
		}
	}
}

func TestFig2Output(t *testing.T) {
	out := runOK(t, "fig2", "-model", "vgg19", "-stride", "4")
	if !strings.Contains(out, "observation 1") || !strings.Contains(out, "observation 2") {
		t.Errorf("fig2 output missing observations: %s", out[:120])
	}
}

func TestEq1Output(t *testing.T) {
	out := runOK(t, "eq1")
	if !strings.Contains(out, "closed form") {
		t.Error("eq1 output missing header")
	}
	if strings.Count(out, "\n") < 6 {
		t.Error("eq1 output too short")
	}
}

func TestFig5Output(t *testing.T) {
	out := runOK(t, "fig5")
	for _, want := range []string{"RES-1", "VGG-3", "Figure 5(a)", "Figure 5(b)"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig5 missing %q", want)
		}
	}
}

func TestTable3Output(t *testing.T) {
	out := runOK(t, "table3")
	if !strings.Contains(out, "resnet50") || !strings.Contains(out, "vgg19") {
		t.Errorf("table3 missing models:\n%s", out)
	}
	if strings.Count(out, "\n") != 7 { // header + 6 rows
		t.Errorf("table3 row count wrong:\n%s", out)
	}
}

// TestCandidatesOutput: the §2.2 counts at the report's m = 3, and at
// another m through -blocks.
func TestCandidatesOutput(t *testing.T) {
	if out := runOK(t, "candidates"); !strings.Contains(out, "m=3 candidates=7260") { // C(121,2) for resnet50
		t.Errorf("candidate table missing known count:\n%s", out)
	}
	if out := runOK(t, "candidates", "-blocks", "2"); !strings.Contains(out, "m=2 candidates=121") { // C(121,1)
		t.Errorf("-blocks 2 candidate table missing known count:\n%s", out)
	}
}

func TestSweepOutput(t *testing.T) {
	out := runOK(t, "sweep", "-model", "yolov2", "-blocks", "2", "-count", "200")
	if !strings.Contains(out, "profiled 200 random 2-block candidates") {
		t.Errorf("sweep header wrong:\n%s", out)
	}
	if !strings.Contains(out, "std dev") || !strings.Contains(out, "overhead") {
		t.Error("sweep stats missing")
	}
}

func TestFig6CustomSystems(t *testing.T) {
	out := runOK(t, "fig6", "-systems", "SPLIT,REEF")
	if !strings.Contains(out, "REEF") || !strings.Contains(out, "SPLIT") {
		t.Errorf("custom systems missing:\n%s", out[:200])
	}
	if strings.Contains(out, "PREMA") {
		t.Error("default systems leaked into custom run")
	}
}

func TestFig6MultiSeedOutput(t *testing.T) {
	out := runOK(t, "fig6", "-seeds", "2", "-systems", "ClockWork")
	if !strings.Contains(out, "2 seeds") || !strings.Contains(out, "±") {
		t.Errorf("multi-seed rendering wrong:\n%s", out[:200])
	}
}

func TestStarvationAblationOutput(t *testing.T) {
	out := runOK(t, "starvation")
	if !strings.Contains(out, "guard RR") || !strings.Contains(out, "off") {
		t.Errorf("starvation output wrong:\n%s", out)
	}
}

func TestBlocksAblationOutput(t *testing.T) {
	out := runOK(t, "blocks")
	if !strings.Contains(out, "E[wait] GA") || strings.Count(out, "resnet50") < 8 {
		t.Errorf("blocks ablation output wrong:\n%s", out[:200])
	}
}

func TestPlacementAblationOutput(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "placement.csv")
	out := runOK(t, "placement", "-devices", "2", "-csv", csv)
	for _, want := range []string{"round-robin", "least-loaded", "affinity", "util mean/min/max"} {
		if !strings.Contains(out, want) {
			t.Errorf("placement output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 4 || !strings.HasPrefix(lines[0], "scenario,devices,placement,") {
		t.Errorf("placement CSV wrong:\n%s", data)
	}
}

func TestBatchingAblationOutput(t *testing.T) {
	out := runOK(t, "batching", "-batch-max", "2")
	for _, want := range []string{"batch", "maxsize", "rps", "viol@4"} {
		if !strings.Contains(out, want) {
			t.Errorf("batching ablation missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != 3 {
		t.Errorf("batching ablation with -batch-max 2: %d lines, want header + 2 rows:\n%s", len(lines), out)
	}
}

func TestSharingAblationOutput(t *testing.T) {
	out := runOK(t, "sharing", "-partitions", "1,2")
	for _, want := range []string{"temporal", "spatial", "hybrid", "parts", "rps", "viol@4"} {
		if !strings.Contains(out, want) {
			t.Errorf("sharing ablation missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != 4 {
		t.Errorf("sharing ablation with -partitions 1,2: %d lines, want header + 3 rows:\n%s", len(lines), out)
	}
}

// TestAblationCSV: -csv writes any simulator ablation's rows, labels first,
// then each metric's raw values.
func TestAblationCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shedding.csv")
	runOK(t, "shedding", "-csv", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if want := "scenario,shedding,dropped,viol_at_4,mean_rr,mean_wait_ms"; lines[0] != want {
		t.Errorf("CSV header %q, want %q", lines[0], want)
	}
	if len(lines) != 1+6*3 {
		t.Errorf("CSV has %d lines, want a header and 18 rows:\n%s", len(lines), data)
	}
	if !strings.HasPrefix(lines[1], "Scenario1,none,") {
		t.Errorf("first CSV row %q", lines[1])
	}
}

// TestCapacityOutput is the acceptance criterion's knee sweep: capacity
// mode must emit a knee req/s for N in {1, 2, 4} devices.
func TestCapacityOutput(t *testing.T) {
	out := runOK(t, "capacity", "-capacity-requests", "2000")
	if !strings.Contains(out, "knee req/s") {
		t.Fatalf("capacity header missing:\n%s", out)
	}
	for _, dev := range []string{"      1 ", "      2 ", "      4 "} {
		if !strings.Contains(out, dev) {
			t.Errorf("capacity output missing fleet size row %q:\n%s", strings.TrimSpace(dev), out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("want title + header + 3 rows, got %d lines:\n%s", len(lines), out)
	}
}

// TestSaturationOutput: the saturation section must print the
// throughput-vs-QoS curve with the knee marked and a final knee summary
// line.
func TestSaturationOutput(t *testing.T) {
	out := runOK(t, "saturation", "-devices", "2", "-capacity-requests", "2000", "-saturation-points", "4")
	for _, want := range []string{"offered req/s", "served req/s", "viol", "knee:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("saturation output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "*") {
		t.Fatalf("no knee point marked in the curve:\n%s", out)
	}
}

func TestReplayOutput(t *testing.T) {
	out := runOK(t, "replay", "-systems", "SPLIT,RT-A", writeTestTrace(t, nil))
	if !strings.Contains(out, "replaying 200 arrivals") {
		t.Fatalf("replay header missing:\n%s", out)
	}
	for _, sys := range []string{"SPLIT", "RT-A"} {
		if !strings.Contains(out, sys) {
			t.Errorf("replay output missing system %s:\n%s", sys, out)
		}
	}
}

// TestReplayRejectsBadTrace: a trace that cannot be read is a runtime
// failure, exit 1, from replay and from trace -replay alike.
func TestReplayRejectsBadTrace(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.trace")
	if err := os.WriteFile(bad, []byte("{\"format\":\"nope\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "missing.trace")
	for _, args := range [][]string{
		{"replay", bad}, {"replay", missing},
		{"trace", "-replay", bad}, {"trace", "-replay", missing},
	} {
		var b strings.Builder
		if err := run(args, &b); exitCode(err) != 1 {
			t.Errorf("run(%v) = %v, want a runtime failure", args, err)
		}
	}
}

func TestSplitSingleModelWithArtifacts(t *testing.T) {
	dir := t.TempDir()
	out := runOK(t, "plan", "-model", "resnet50", "-blocks", "2", "-out", dir, "-save-blocks")
	if !strings.Contains(out, "resnet50 into 2 blocks") {
		t.Errorf("missing plan summary:\n%s", out)
	}
	plan, err := onnxlite.LoadPlan(filepath.Join(dir, "resnet50.plan.json"))
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumBlocks() != 2 {
		t.Errorf("persisted plan blocks = %d", plan.NumBlocks())
	}
	blocks, err := onnxlite.LoadBlocks(dir, "resnet50")
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 {
		t.Errorf("persisted %d block graphs", len(blocks))
	}
}

func TestDOTExport(t *testing.T) {
	dot := filepath.Join(t.TempDir(), "g.dot")
	runOK(t, "plan", "-model", "vgg19", "-blocks", "2", "-dot", dot)
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "digraph") || !strings.Contains(string(data), "block1") {
		t.Errorf("dot content wrong: %.80s", data)
	}
}

func TestDeployWritesPlans(t *testing.T) {
	dir := t.TempDir()
	out := runOK(t, "plan", "-out", dir)
	if !strings.Contains(out, "wrote 2 plans") {
		t.Errorf("deploy output:\n%s", out)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("%d artifacts written", len(entries))
	}
}

func TestTraceSummaryAndGantt(t *testing.T) {
	out := runOK(t, "trace", "-system", "SPLIT", "-scenario", "Scenario1", "-gantt", "500:1500")
	for _, want := range []string{"SPLIT on Scenario1", "util=", "Gantt [500, 1500]", "vgg19"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestTraceExports(t *testing.T) {
	dir := t.TempDir()
	recPath := filepath.Join(dir, "records.csv")
	evPath := filepath.Join(dir, "events.jsonl")
	runOK(t, "trace", "-system", "ClockWork", "-scenario", "Scenario2", "-records", recPath, "-events", evPath)
	rec, err := os.ReadFile(recPath)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(rec), "\n"); lines != 1001 { // header + 1000
		t.Errorf("records.csv has %d lines", lines)
	}
	ev, err := os.ReadFile(evPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(ev), `"kind":"complete"`) {
		t.Error("events.jsonl missing completions")
	}
}

// TestSpansOutput: -spans prints the per-request decomposition and a clean
// SPLIT run folds with no invariant problems.
func TestSpansOutput(t *testing.T) {
	out := runOK(t, "trace", "-system", "SPLIT", "-scenario", "Scenario1", "-spans")
	if !strings.Contains(out, "Span decomposition (1000 requests)") {
		t.Errorf("missing span header: %.200s", out)
	}
	if !strings.Contains(out, "wait=") || !strings.Contains(out, "exec=") {
		t.Error("span summary missing decomposition fields")
	}
	if strings.Contains(out, "span invariant:") {
		t.Error("SPLIT stream reported span invariant problems")
	}
}

// TestPerfettoExport: a Scenario4 SPLIT run exports Chrome trace-event JSON
// that validates against the schema with a nonzero event count.
func TestPerfettoExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	out := runOK(t, "trace", "-system", "SPLIT", "-scenario", "Scenario4", "-perfetto", path)
	if !strings.Contains(out, "chrome://tracing") {
		t.Errorf("missing export banner: %.200s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := trace.ValidatePerfetto(data)
	if err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}
	if n == 0 {
		t.Fatal("exported trace has no events")
	}
	for _, want := range []string{`"traceEvents"`, `"ph":"X"`, `"displayTimeUnit":"ms"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("trace JSON missing %s", want)
		}
	}
}

// TestTimeSeriesExport: -timeseries writes the windowed QoS trajectory
// with totals matching the run size.
func TestTimeSeriesExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "series.json")
	runOK(t, "trace", "-system", "SPLIT", "-scenario", "Scenario1", "-timeseries", path, "-window", "5000")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.TimeSeriesSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.WindowMs != 5000 || len(snap.Windows) == 0 {
		t.Fatalf("snapshot header = %+v", snap)
	}
	arrivals, decided := 0, 0
	for _, w := range snap.Windows {
		arrivals += w.Arrivals
		decided += w.Completions + w.Sheds
	}
	if arrivals != 1000 || decided != 1000 {
		t.Errorf("arrivals=%d decided=%d, want 1000/1000", arrivals, decided)
	}
}

// TestReplayRecordedWorkload: trace -replay runs a recorded workload trace
// through one system with every arrival's deadline and cancel intact.
func TestReplayRecordedWorkload(t *testing.T) {
	path := writeTestTrace(t, func(a []workload.Arrival) {
		a[5].DeadlineMs = 1e-3
		a[7].CancelAtMs = a[7].AtMs
	})
	recPath := filepath.Join(t.TempDir(), "r.csv")
	out := runOK(t, "trace", "-system", "SPLIT", "-replay", path, "-records", recPath)
	if !strings.Contains(out, "SPLIT replaying") || !strings.Contains(out, "n=200") {
		t.Errorf("replay output: %.200s", out)
	}
	raw, err := os.ReadFile(recPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	if !strings.HasSuffix(lines[6], ",deadline") || !strings.HasSuffix(lines[8], ",canceled") {
		t.Errorf("replayed records lost the deadline or the cancel:\n%s\n%s", lines[6], lines[8])
	}
}

// TestUsageErrors: every command-line mistake exits 2 with a one-line
// message, before any deploy, simulation or file creation.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown section", []string{"bogus"}},
		{"unknown flag", []string{"-not-a-flag"}},
		{"unknown flag fig6", []string{"fig6", "-not-a-flag"}},
		{"unknown flag fig2", []string{"fig2", "-not-a-flag"}},
		{"unknown flag plan", []string{"plan", "-not-a-flag"}},
		{"flag of another section", []string{"table2", "-devices", "2"}},
		{"csv on a table", []string{"table2", "-csv", "$TMP/rows.csv"}},
		{"csv on search", []string{"search", "-csv", "$TMP/rows.csv"}},
		{"stray argument", []string{"fig1", "extra"}},
		{"unknown systems", []string{"fig6", "-systems", "NotASystem"}},
		{"gantt infinite", []string{"trace", "-gantt", "0:Inf"}},
		{"window NaN", []string{"trace", "-window", "NaN", "-timeseries", "$TMP/f.json"}},
		{"window Inf", []string{"trace", "-window", "Inf", "-timeseries", "$TMP/f.json"}},
		{"alpha NaN", []string{"trace", "-alpha", "NaN", "-timeseries", "$TMP/f.json"}},
		{"alpha Inf", []string{"trace", "-alpha", "Inf", "-timeseries", "$TMP/f.json"}},
		{"alpha 0", []string{"trace", "-alpha", "0", "-timeseries", "$TMP/f.json"}},
		{"alpha negative", []string{"trace", "-alpha", "-1", "-timeseries", "$TMP/f.json"}},
		{"viol-target NaN capacity", []string{"capacity", "-viol-target", "NaN"}},
		{"viol-target NaN saturation", []string{"saturation", "-viol-target", "NaN"}},
		{"viol-target 0", []string{"capacity", "-viol-target", "0"}},
		{"viol-target 1.5", []string{"capacity", "-viol-target", "1.5"}},
		{"capacity-devices not a number", []string{"capacity", "-capacity-devices", "1,zero"}},
		{"capacity-devices 0", []string{"capacity", "-capacity-devices", "0"}},
		{"capacity-requests 0", []string{"capacity", "-capacity-requests", "0"}},
		{"capacity placement", []string{"capacity", "-placement", "teleport"}},
		{"saturation placement", []string{"saturation", "-placement", "teleport"}},
		{"saturation-points 0", []string{"saturation", "-saturation-points", "0"}},
		{"devices 0", []string{"placement", "-devices", "0"}},
		{"devices negative", []string{"saturation", "-devices", "-2"}},
		{"batch-max 0", []string{"batching", "-batch-max", "0", "-csv", "$TMP/rows.csv"}},
		{"batch-max negative", []string{"capacity", "-batch-max", "-3"}},
		{"partitions 0", []string{"sharing", "-partitions", "0"}},
		{"partitions not a number", []string{"sharing", "-partitions", "1,x"}},
		{"seeds 0", []string{"fig7", "-seeds", "0"}},
		{"sweep count negative", []string{"sweep", "-count", "-5"}},
		{"sweep blocks beyond the model", []string{"sweep", "-model", "alexnet", "-blocks", "100"}},
		{"sweep blocks 0", []string{"sweep", "-blocks", "0"}},
		{"sweep blocks 1", []string{"sweep", "-blocks", "1"}},
		{"sweep unknown model", []string{"sweep", "-model", "nope"}},
		{"fig2 stride 0", []string{"fig2", "-stride", "0"}},
		{"fig2 stride negative", []string{"fig2", "-stride", "-1"}},
		{"fig2 unknown model", []string{"fig2", "-model", "nope"}},
		{"candidates blocks 1", []string{"candidates", "-blocks", "1"}},
		{"plan unknown model", []string{"plan", "-model", "nope", "-out", "$TMP"}},
		{"plan one block", []string{"plan", "-model", "vgg19", "-blocks", "1", "-dot", "$TMP/g.dot"}},
		{"plan save-blocks without out", []string{"plan", "-model", "vgg19", "-save-blocks"}},
		{"plan dot without model", []string{"plan", "-dot", "$TMP/g.dot"}},
		{"replay without a trace", []string{"replay"}},
		{"replay with two traces", []string{"replay", "a.trace", "b.trace"}},
		{"replay unknown system", []string{"replay", "-systems", "Nope", "run.trace"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkUsageError(t, tc.args, "") })
	}
}

// TestTraceUsageErrors: a mistake in the trace job's flags exits 2 with a
// one-line message that names the offending value or flag.
func TestTraceUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown system", []string{"trace", "-system", "NotASystem"}, "NotASystem"},
		{"unknown scenario", []string{"trace", "-scenario", "Scenario99"}, "Scenario99"},
		{"gantt no colon", []string{"trace", "-gantt", "badformat"}, "-gantt"},
		{"gantt inverted", []string{"trace", "-gantt", "100:50"}, "end after start"},
		{"gantt not numeric", []string{"trace", "-gantt", "x:y"}, "two numbers"},
		{"bad window", []string{"trace", "-window", "-5"}, "-window"},
		{"unknown flag", []string{"trace", "-not-a-flag"}, "-not-a-flag"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkUsageError(t, tc.args, tc.want) })
	}
}

// checkUsageError runs splitexp with args, "$TMP" replaced by a fresh
// directory, and fails unless the run exits 2 with a one-line message that
// contains want, and creates nothing in that directory.
func checkUsageError(t *testing.T, args []string, want string) {
	t.Helper()
	dir := t.TempDir()
	args = append([]string(nil), args...)
	for i, a := range args {
		args[i] = strings.ReplaceAll(a, "$TMP", dir)
	}
	var b strings.Builder
	err := run(args, &b)
	if exitCode(err) != 2 {
		t.Fatalf("run(%v) = %v, want a usage error", args, err)
	}
	msg := strings.TrimSpace(err.Error())
	if strings.Contains(msg, "\n") {
		t.Errorf("usage error is not one line: %q", msg)
	}
	if !strings.Contains(msg, want) {
		t.Errorf("usage error %q does not name %q", msg, want)
	}
	if entries, _ := os.ReadDir(dir); len(entries) > 0 {
		t.Errorf("run(%v) created %s before failing", args, entries[0].Name())
	}
}

// TestDocumentedCommands parses and validates every splitexp command that
// README.md, DESIGN.md and EXPERIMENTS.md show, in fenced code lines and in
// inline code spans. Parsing runs nothing and creates no file.
func TestDocumentedCommands(t *testing.T) {
	span := regexp.MustCompile("`((?:go run \\./cmd/)?splitexp(?:\\s[^`]*)?)`")
	fenced := regexp.MustCompile(`(?m)^\s*((?:go run \./cmd/)?splitexp(?:\s.*)?)$`)
	n := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		var cmds []string
		for _, m := range span.FindAllStringSubmatch(string(data), -1) {
			cmds = append(cmds, m[1])
		}
		for i, block := range strings.Split(string(data), "```") {
			if i%2 == 1 {
				for _, m := range fenced.FindAllStringSubmatch(block, -1) {
					cmd, _, _ := strings.Cut(m[1], "#")
					cmds = append(cmds, cmd)
				}
			}
		}
		for _, cmd := range cmds {
			n++
			fields := strings.Fields(strings.TrimPrefix(cmd, "go run ./cmd/"))[1:]
			for i, f := range fields {
				fields[i] = strings.Trim(f, `"`)
			}
			if _, _, err := parse(fields, io.Discard); err != nil {
				t.Errorf("%s: %q: %v", doc, cmd, err)
			}
		}
	}
	if n == 0 {
		t.Error("no splitexp command found in the docs")
	}
}
