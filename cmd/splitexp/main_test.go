package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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
	var b strings.Builder
	if err := run([]string{"-quick"}, &b); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "quick.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("-quick output differs from testdata/quick.txt:\n%s", b.String())
	}
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
	if err := run([]string{"-nope"}, &b); err == nil {
		t.Error("bad flag accepted")
	}
}
