package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"split/internal/onnxlite"
)

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var b strings.Builder
	if err := run(args, &b); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return b.String()
}

func TestTable3Output(t *testing.T) {
	out := runOK(t, "-table3")
	if !strings.Contains(out, "resnet50") || !strings.Contains(out, "vgg19") {
		t.Errorf("table3 missing models:\n%s", out)
	}
	if strings.Count(out, "\n") != 7 { // header + 6 rows
		t.Errorf("table3 row count wrong:\n%s", out)
	}
}

func TestFig5Output(t *testing.T) {
	out := runOK(t, "-fig5")
	for _, want := range []string{"RES-1", "VGG-3", "Figure 5(a)", "Figure 5(b)"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig5 missing %q", want)
		}
	}
}

func TestSplitSingleModelWithArtifacts(t *testing.T) {
	dir := t.TempDir()
	out := runOK(t, "-model", "resnet50", "-blocks", "2", "-out", dir, "-save-blocks")
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
	dir := t.TempDir()
	dot := filepath.Join(dir, "g.dot")
	runOK(t, "-model", "vgg19", "-blocks", "2", "-dot", dot)
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
	out := runOK(t, "-deploy", "-out", dir)
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

func TestErrors(t *testing.T) {
	var b strings.Builder
	if err := run(nil, &b); err == nil {
		t.Error("no action accepted")
	}
	if err := run([]string{"-model", "nope"}, &b); err == nil {
		t.Error("unknown model accepted")
	}
	if err := run([]string{"-model", "vgg19", "-blocks", "1"}, &b); err == nil {
		t.Error("1-block GA accepted")
	}
}
