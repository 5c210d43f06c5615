package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"split/internal/obs"
	"split/internal/trace"
)

func TestTraceSummaryAndGantt(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-system", "SPLIT", "-scenario", "Scenario1", "-gantt", "500:1500"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
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
	var b strings.Builder
	err := run([]string{
		"-system", "ClockWork", "-scenario", "Scenario2",
		"-records", recPath, "-events", evPath,
	}, &b)
	if err != nil {
		t.Fatal(err)
	}
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

// TestUsageErrors: command-line mistakes are usageErrors (exit 2) with a
// one-line message, validated before any simulation work runs.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown system", []string{"-system", "NotASystem"}, "NotASystem"},
		{"unknown scenario", []string{"-scenario", "Scenario99"}, "Scenario99"},
		{"gantt no colon", []string{"-gantt", "badformat"}, "-gantt"},
		{"gantt inverted", []string{"-gantt", "100:50"}, "end must be after start"},
		{"gantt not numeric", []string{"-gantt", "x:y"}, "not a number"},
		{"bad window", []string{"-window", "-5"}, "-window"},
		{"unknown flag", []string{"-not-a-flag"}, "-not-a-flag"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var b strings.Builder
			err := run(tc.args, &b)
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			var ue usageError
			if !errors.As(err, &ue) {
				t.Fatalf("args %v: %v is not a usageError", tc.args, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q missing %q", err, tc.want)
			}
			if msg := strings.TrimSpace(err.Error()); strings.Contains(msg, "\n") {
				t.Errorf("usage error is not one line: %q", msg)
			}
		})
	}
}

// TestSpansOutput: -spans prints the per-request decomposition and a clean
// SPLIT run folds with no invariant problems.
func TestSpansOutput(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-system", "SPLIT", "-scenario", "Scenario1", "-spans"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
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

// TestPerfettoExport: the acceptance-criterion path — a Scenario4 SPLIT run
// exports Chrome trace-event JSON that validates against the schema and
// round-trips through the validator with a nonzero event count.
func TestPerfettoExport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	var b strings.Builder
	if err := run([]string{"-system", "SPLIT", "-scenario", "Scenario4", "-perfetto", path}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "chrome://tracing") {
		t.Errorf("missing export banner: %.200s", b.String())
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
	dir := t.TempDir()
	path := filepath.Join(dir, "series.json")
	var b strings.Builder
	if err := run([]string{"-system", "SPLIT", "-scenario", "Scenario1", "-timeseries", path, "-window", "5000"}, &b); err != nil {
		t.Fatal(err)
	}
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

func TestReplayRecordedWorkload(t *testing.T) {
	dir := t.TempDir()
	recPath := filepath.Join(dir, "r.csv")
	var b strings.Builder
	// Record a scenario under SPLIT...
	if err := run([]string{"-system", "SPLIT", "-scenario", "Scenario1", "-records", recPath}, &b); err != nil {
		t.Fatal(err)
	}
	// The records carry columns replay does not read — the derived ones,
	// device and outcome — and replay ignores them.
	raw, err := os.ReadFile(recPath)
	if err != nil {
		t.Fatal(err)
	}
	if header, _, _ := strings.Cut(string(raw), "\n"); !strings.HasSuffix(header, ",device,outcome") {
		t.Errorf("records header = %q", header)
	}
	// ...then what-if replay the identical arrivals under REEF.
	b.Reset()
	if err := run([]string{"-system", "REEF", "-replay", recPath}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "REEF replaying") || !strings.Contains(out, "n=1000") {
		t.Errorf("replay output: %.200s", out)
	}
	// Replaying a missing file fails.
	if err := run([]string{"-system", "SPLIT", "-replay", "/nope.csv"}, &b); err == nil {
		t.Error("missing replay file accepted")
	}
}
