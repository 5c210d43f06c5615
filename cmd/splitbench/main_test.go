package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

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

func TestTable2Output(t *testing.T) {
	out := runOK(t, "-table2")
	for _, want := range []string{"Scenario1", "Scenario6", "160ms", "110ms", "High"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 missing %q", want)
		}
	}
}

func TestFig1Output(t *testing.T) {
	out := runOK(t, "-fig1")
	for _, want := range []string{"SPLIT", "ClockWork", "Stream-Parallel", "RT-A", "short RR"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig1 missing %q", want)
		}
	}
}

func TestFig6CustomSystems(t *testing.T) {
	out := runOK(t, "-fig6", "-systems", "SPLIT,REEF")
	if !strings.Contains(out, "REEF") || !strings.Contains(out, "SPLIT") {
		t.Errorf("custom systems missing:\n%s", out[:200])
	}
	if strings.Contains(out, "PREMA") {
		t.Error("default systems leaked into custom run")
	}
}

func TestFig6MultiSeedOutput(t *testing.T) {
	out := runOK(t, "-fig6", "-seeds", "2", "-systems", "ClockWork")
	if !strings.Contains(out, "2 seeds") || !strings.Contains(out, "±") {
		t.Errorf("multi-seed rendering wrong:\n%s", out[:200])
	}
}

func TestStarvationAblationOutput(t *testing.T) {
	out := runOK(t, "-ablation", "starvation")
	if !strings.Contains(out, "guard RR") || !strings.Contains(out, "off") {
		t.Errorf("starvation output wrong:\n%s", out)
	}
}

func TestBlocksAblationOutput(t *testing.T) {
	out := runOK(t, "-ablation", "blocks")
	if !strings.Contains(out, "E[wait] GA") || strings.Count(out, "resnet50") < 8 {
		t.Errorf("blocks ablation output wrong:\n%s", out[:200])
	}
}

func TestPlacementAblationOutput(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "placement.csv")
	out := runOK(t, "-ablation", "placement", "-devices", "2", "-csv", csv)
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

	var b strings.Builder
	if err := run([]string{"-ablation", "placement", "-devices", "0"}, &b); err == nil {
		t.Error("-devices 0 accepted")
	}
}

func TestBatchingAblationOutput(t *testing.T) {
	out := runOK(t, "-ablation", "batching", "-batch-max", "2")
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
	out := runOK(t, "-ablation", "sharing", "-partitions", "1,2")
	for _, want := range []string{"temporal", "spatial", "hybrid", "parts", "rps", "viol@4"} {
		if !strings.Contains(out, want) {
			t.Errorf("sharing ablation missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != 4 {
		t.Errorf("sharing ablation with -partitions 1,2: %d lines, want header + 3 rows:\n%s", len(lines), out)
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
			cases = append(cases, golden{name + ".seed" + seed + ".txt", []string{"-ablation", name, "-seed", seed}})
		}
	}
	cases = append(cases,
		golden{"batching.max2.txt", []string{"-ablation", "batching", "-batch-max", "2"}},
		golden{"sharing.partitions1-2.txt", []string{"-ablation", "sharing", "-partitions", "1,2"}},
	)
	csv := filepath.Join(t.TempDir(), "placement.csv")
	cases = append(cases, golden{"placement.devices2.txt", []string{"-ablation", "placement", "-devices", "2", "-csv", csv}})

	for _, c := range cases {
		assertGolden(t, c.file, runOK(t, c.args...))
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	assertGolden(t, "placement.devices2.csv", string(data))
}

// TestAblationCSV: -csv writes any simulator ablation's rows, labels first,
// then each metric's raw values.
func TestAblationCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shedding.csv")
	runOK(t, "-ablation", "shedding", "-csv", path)
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

// TestCapacityOutput is the acceptance criterion's knee sweep: capacity
// mode must emit a knee req/s for N in {1, 2, 4} devices.
func TestCapacityOutput(t *testing.T) {
	out := runOK(t, "-capacity", "-capacity-requests", "2000")
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

// TestSaturationOutput: -saturation must print the throughput-vs-QoS curve
// with the knee marked and a final knee summary line.
func TestSaturationOutput(t *testing.T) {
	out := runOK(t, "-saturation", "-devices", "2", "-capacity-requests", "2000", "-saturation-points", "4")
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
	arrivals := workload.MustGenerate(workload.Config{
		Models:         zoo.BenchmarkModels,
		MeanIntervalMs: 40,
		Count:          200,
		Seed:           1,
	})
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
	out := runOK(t, "-replay", path, "-systems", "SPLIT,RT-A")
	if !strings.Contains(out, "replaying 200 arrivals") {
		t.Fatalf("replay header missing:\n%s", out)
	}
	for _, sys := range []string{"SPLIT", "RT-A"} {
		if !strings.Contains(out, sys) {
			t.Errorf("replay output missing system %s:\n%s", sys, out)
		}
	}
}

func TestReplayRejectsBadTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.trace")
	if err := os.WriteFile(path, []byte("{\"format\":\"nope\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run([]string{"-replay", path}, &b); err == nil {
		t.Error("bogus trace accepted")
	}
	if err := run([]string{"-replay", filepath.Join(t.TempDir(), "missing.trace")}, &b); err == nil {
		t.Error("missing trace file accepted")
	}
}

func TestErrors(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-fig6", "-systems", "NotASystem"}, &b); err == nil {
		t.Error("bogus system accepted")
	}
	var ue usageError
	if err := run([]string{"-fig6", "-systems", "NotASystem"}, &b); errors.As(err, &ue) {
		t.Error("runtime failure classified as usage error")
	}
}

// TestUsageErrors: every command-line mistake must surface as a usageError,
// which main reports with exit status 2 and a one-line message.
func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		nil, // no action selected
		{"-ablation", "bogus"},
		{"-ablation", "placement", "-devices", "0"},
		{"-devices", "-2", "-table2"},
		{"-ablation", "batching", "-batch-max", "0"},
		{"-batch-max", "-3", "-table2"},
		{"-not-a-flag"},
		{"-capacity", "-viol-target", "0"},
		{"-capacity", "-viol-target", "1.5"},
		{"-capacity", "-capacity-devices", "1,zero"},
		{"-capacity", "-capacity-devices", "0"},
		{"-capacity", "-capacity-requests", "0"},
		{"-capacity", "-placement", "teleport"},
		{"-saturation", "-saturation-points", "0"},
		{"-ablation", "sharing", "-partitions", "0"},
		{"-ablation", "sharing", "-partitions", "1,x"},
		{"-saturation", "-placement", "teleport"},
		{"-table2", "-csv", "rows.csv"},
		{"-ablation", "search", "-csv", "rows.csv"},
	}
	for _, args := range cases {
		var b strings.Builder
		err := run(args, &b)
		var ue usageError
		if err == nil || !errors.As(err, &ue) {
			t.Errorf("run(%v) = %v, want a usage error", args, err)
		}
		if err != nil && strings.Contains(err.Error(), "\n") {
			t.Errorf("run(%v): usage error is not one line: %q", args, err)
		}
	}
}
