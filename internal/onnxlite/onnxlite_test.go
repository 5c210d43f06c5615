package onnxlite

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"split/internal/model"
	"split/internal/profiler"
	"split/internal/zoo"
)

func TestGraphRoundTrip(t *testing.T) {
	for _, name := range []string{"vgg19", "gpt2"} {
		g := zoo.MustLoad(name)
		var buf bytes.Buffer
		if err := EncodeGraph(&buf, g); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeGraph(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != g.Name || got.Domain != g.Domain || got.Class != g.Class {
			t.Errorf("%s: header mismatch", name)
		}
		if got.NumOps() != g.NumOps() {
			t.Fatalf("%s: op count %d vs %d", name, got.NumOps(), g.NumOps())
		}
		for i := range g.Ops {
			if got.Ops[i] != g.Ops[i] {
				t.Fatalf("%s: op %d differs", name, i)
			}
		}
	}
}

func TestEncodeGraphRejectsInvalid(t *testing.T) {
	g := &model.Graph{Name: ""}
	var buf bytes.Buffer
	if err := EncodeGraph(&buf, g); err == nil {
		t.Error("invalid graph encoded")
	}
}

// TestDecodeGraphClass: a graph file's class decodes to its class, and a
// graph that names none decodes unclassified.
func TestDecodeGraphClass(t *testing.T) {
	for class, want := range map[string]model.RequestClass{`"class":"Short",`: model.Short, `"class":"Long",`: model.Long, ``: 0} {
		g, err := DecodeGraph(strings.NewReader(`{"version":1,"name":"x",` + class + `"ops":[{"name":"a","kind":"Conv","time_ms":1}]}`))
		if err != nil || g.Class != want {
			t.Errorf("class %q decoded to %v, %v; want %v", class, g, err, want)
		}
	}
}

func TestDecodeGraphErrors(t *testing.T) {
	cases := []string{
		"not json",
		`{"version": 99, "name": "x", "ops": [{"name":"a","kind":"Conv","time_ms":1}]}`,
		`{"version": 1, "name": "x", "ops": []}`, // invalid: no ops
		`{"version": 1, "name": "x", "class": "Medium", "ops": [{"name":"a","kind":"Conv","time_ms":1}]}`,
		`{"version": 1, "name": "x", "class": "short", "ops": [{"name":"a","kind":"Conv","time_ms":1}]}`,
	}
	for i, s := range cases {
		if _, err := DecodeGraph(strings.NewReader(s)); err == nil {
			t.Errorf("case %d decoded", i)
		}
	}
}

func TestPlanRoundTrip(t *testing.T) {
	p := &model.SplitPlan{
		Model:         "vgg19",
		Cuts:          []int{16, 29},
		BlockTimesMs:  []float64{25.2, 26.1, 25.8},
		OverheadRatio: 0.142,
		StdDevMs:      0.35,
	}
	var buf bytes.Buffer
	if err := EncodePlan(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := DecodePlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Model != p.Model || got.NumBlocks() != 3 || got.StdDevMs != p.StdDevMs {
		t.Errorf("roundtrip = %+v", got)
	}
}

func TestDecodePlanErrors(t *testing.T) {
	cases := []string{
		"nope",
		`{"version": 2, "model": "x", "cuts": [], "block_times_ms": [1]}`,
		`{"version": 1, "model": "", "cuts": [], "block_times_ms": [1]}`,
		`{"version": 1, "model": "x", "cuts": [1], "block_times_ms": [1]}`, // count mismatch
	}
	for i, s := range cases {
		if _, err := DecodePlan(strings.NewReader(s)); err == nil {
			t.Errorf("case %d decoded", i)
		}
	}
}

func TestSaveLoadFiles(t *testing.T) {
	dir := t.TempDir()
	g := zoo.MustLoad("yolov2")
	gpath := filepath.Join(dir, "sub", "yolov2.graph.json")
	if err := SaveGraph(gpath, g); err != nil {
		t.Fatal(err)
	}
	got, err := LoadGraph(gpath)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumOps() != g.NumOps() {
		t.Error("graph file roundtrip lost ops")
	}

	p := model.UnsplitPlan(g)
	ppath := filepath.Join(dir, "plans", "yolov2.plan.json")
	if err := SavePlan(ppath, p); err != nil {
		t.Fatal(err)
	}
	gotPlan, err := LoadPlan(ppath)
	if err != nil {
		t.Fatal(err)
	}
	if gotPlan.Model != "yolov2" {
		t.Errorf("plan model = %q", gotPlan.Model)
	}
}

func TestLoadMissingFiles(t *testing.T) {
	if _, err := LoadGraph("/nonexistent/g.json"); err == nil {
		t.Error("missing graph loaded")
	}
	if _, err := LoadPlan("/nonexistent/p.json"); err == nil {
		t.Error("missing plan loaded")
	}
}

func TestPlanDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	plans := map[string]*model.SplitPlan{
		"resnet50": {Model: "resnet50", Cuts: []int{63}, BlockTimesMs: []float64{15.9, 15.6}},
		"vgg19":    {Model: "vgg19", Cuts: []int{16, 29}, BlockTimesMs: []float64{25, 26, 26}},
	}
	if err := SavePlanDir(dir, plans); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPlanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("loaded %d plans", len(got))
	}
	if got["resnet50"].Cuts[0] != 63 {
		t.Error("plan content lost")
	}
}

func TestLoadPlanDirEmptyAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	got, err := LoadPlanDir(dir)
	if err != nil || len(got) != 0 {
		t.Errorf("empty dir: %v, %v", got, err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.plan.json"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPlanDir(dir); err == nil {
		t.Error("corrupt plan dir loaded")
	}
}

func TestExtractBlocks(t *testing.T) {
	g := zoo.MustLoad("resnet50")
	prof := profiler.New(g, model.DefaultCostModel())
	plan := prof.Plan(prof.Evaluate([]int{40, 80}))
	blocks, err := ExtractBlocks(g, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 3 {
		t.Fatalf("%d blocks", len(blocks))
	}
	totalOps := 0
	for i, b := range blocks {
		if err := b.Validate(); err != nil {
			t.Errorf("block %d invalid: %v", i, err)
		}
		totalOps += b.NumOps()
	}
	if totalOps != g.NumOps() {
		t.Errorf("blocks cover %d ops of %d", totalOps, g.NumOps())
	}
	if blocks[0].Ops[0] != g.Ops[0] {
		t.Error("block 0 does not start at op 0")
	}
}

func TestExtractBlocksErrors(t *testing.T) {
	g := zoo.MustLoad("resnet50")
	other := &model.SplitPlan{Model: "vgg19", Cuts: []int{5}}
	if _, err := ExtractBlocks(g, other); err == nil {
		t.Error("mismatched plan accepted")
	}
	bad := &model.SplitPlan{Model: "resnet50", Cuts: []int{0}}
	if _, err := ExtractBlocks(g, bad); err == nil {
		t.Error("invalid cuts accepted")
	}
}

func TestSaveLoadBlocks(t *testing.T) {
	dir := t.TempDir()
	g := zoo.MustLoad("vgg19")
	prof := profiler.New(g, model.DefaultCostModel())
	plan := prof.Plan(prof.Evaluate([]int{16, 29}))
	paths, err := SaveBlocks(dir, g, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("%d block files", len(paths))
	}
	blocks, err := LoadBlocks(dir, "vgg19")
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 3 {
		t.Fatalf("%d blocks loaded", len(blocks))
	}
	total := 0
	for _, b := range blocks {
		total += b.NumOps()
	}
	if total != g.NumOps() {
		t.Errorf("blocks cover %d ops of %d", total, g.NumOps())
	}
	if _, err := LoadBlocks(dir, "unknown"); err == nil {
		t.Error("missing blocks loaded")
	}
}

func TestExtractBlocksRemapsEdges(t *testing.T) {
	g := zoo.MustLoad("resnet50")
	prof := profiler.New(g, model.DefaultCostModel())
	plan := prof.Plan(prof.Evaluate([]int{60}))
	blocks, err := ExtractBlocks(g, plan)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range blocks {
		if len(b.Edges) == 0 {
			t.Errorf("block %d has no intra-block edges", i)
		}
		for _, e := range b.Edges {
			if e.From < 0 || e.To >= b.NumOps() || e.From >= e.To {
				t.Fatalf("block %d: bad remapped edge %+v", i, e)
			}
		}
	}
}

func TestWriteDOT(t *testing.T) {
	g := zoo.MustLoad("resnet50")
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, []int{60}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, `digraph "resnet50"`) {
		t.Errorf("header: %q", out[:40])
	}
	if !strings.Contains(out, "style=dashed") {
		t.Error("no skip-connection edges rendered")
	}
	if !strings.Contains(out, `group="block1"`) {
		t.Error("cut annotation missing")
	}
	if strings.Count(out, "->") != len(g.Edges) {
		t.Errorf("edge count %d, want %d", strings.Count(out, "->"), len(g.Edges))
	}
}

func TestWriteDOTChainFallback(t *testing.T) {
	g := &model.Graph{Name: "chain", Ops: []model.Op{
		{Name: "a", TimeMs: 1}, {Name: "b", TimeMs: 1}, {Name: "c", TimeMs: 1},
	}}
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "->") != 2 {
		t.Errorf("chain edges: %q", buf.String())
	}
}
