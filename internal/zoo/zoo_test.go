package zoo

import (
	"math"
	"testing"

	"split/internal/model"
	"split/internal/stats"
)

func TestTable1OperatorCountsExact(t *testing.T) {
	for name, want := range Table1Ops {
		g := MustLoad(name)
		if got := g.NumOps(); got != want {
			t.Errorf("%s: %d operators, Table 1 says %d", name, got, want)
		}
	}
}

func TestTable1LatenciesExact(t *testing.T) {
	for name, want := range Table1Latency {
		g := MustLoad(name)
		if got := g.TotalTimeMs(); math.Abs(got-want) > 1e-6 {
			t.Errorf("%s: latency %.4f ms, want %.4f", name, got, want)
		}
	}
}

func TestAllModelsValidate(t *testing.T) {
	for _, name := range Names() {
		g := MustLoad(name)
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestClassesMatchTable1(t *testing.T) {
	want := map[string]model.RequestClass{
		"yolov2":    model.Short,
		"googlenet": model.Short,
		"resnet50":  model.Long,
		"vgg19":     model.Long,
		"gpt2":      model.Short,
	}
	for name, class := range want {
		if got := MustLoad(name).Class; got != class {
			t.Errorf("%s: class %s, want %s", name, got, class)
		}
	}
}

func TestDomainsMatchTable1(t *testing.T) {
	want := map[string]string{
		"yolov2":    "Object Detection",
		"googlenet": "Image Classification",
		"resnet50":  "Image Classification",
		"vgg19":     "Image Classification",
		"gpt2":      "Text Generation",
	}
	for name, dom := range want {
		if got := MustLoad(name).Domain; got != dom {
			t.Errorf("%s: domain %q, want %q", name, got, dom)
		}
	}
}

func TestLoadUnknown(t *testing.T) {
	if _, err := Load("nonexistent"); err == nil {
		t.Error("Load(unknown) succeeded")
	}
}

func TestMustLoadPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustLoad(unknown) did not panic")
		}
	}()
	MustLoad("nope")
}

func TestLoadReturnsFreshGraphs(t *testing.T) {
	a := MustLoad("vgg19")
	b := MustLoad("vgg19")
	a.Ops[0].TimeMs = 999
	if b.Ops[0].TimeMs == 999 {
		t.Error("Load shares op slices between calls")
	}
}

func TestLoadDeterministic(t *testing.T) {
	for _, name := range BenchmarkModels {
		a, b := MustLoad(name), MustLoad(name)
		if a.NumOps() != b.NumOps() {
			t.Fatalf("%s: nondeterministic op count", name)
		}
		for i := range a.Ops {
			if a.Ops[i] != b.Ops[i] {
				t.Fatalf("%s: op %d differs between loads", name, i)
			}
		}
	}
}

func TestLoadBenchmarkSet(t *testing.T) {
	set := LoadBenchmarkSet()
	if len(set) != 5 {
		t.Fatalf("benchmark set has %d models", len(set))
	}
	for _, name := range BenchmarkModels {
		if set[name] == nil {
			t.Errorf("missing %s", name)
		}
	}
}

// Observation 1 substrate (§2.4): data volume should broadly decrease along
// CNN graphs — the front third moves more bytes than the back third.
func TestCNNVolumeDecaysFrontToBack(t *testing.T) {
	for _, name := range []string{"vgg19", "resnet50", "googlenet", "alexnet"} {
		g := MustLoad(name)
		n := g.NumOps()
		var front, back float64
		for _, op := range g.Ops[:n/3] {
			front += float64(op.OutBytes)
		}
		for _, op := range g.Ops[2*n/3:] {
			back += float64(op.OutBytes)
		}
		front /= float64(n / 3)
		back /= float64(n - 2*n/3)
		if front <= back {
			t.Errorf("%s: mean front volume %.0f <= back %.0f", name, front, back)
		}
	}
}

// Observation 2 substrate: per-op time is front-heavy in CNNs (big spatial
// dims early), so the time-midpoint lies before the op-count midpoint.
func TestCNNTimeMidpointBeforeOpMidpoint(t *testing.T) {
	for _, name := range []string{"vgg19", "resnet50"} {
		g := MustLoad(name)
		prefix := g.PrefixTimes()
		half := g.TotalTimeMs() / 2
		mid := 0
		for i, p := range prefix {
			if p >= half {
				mid = i
				break
			}
		}
		if mid >= g.NumOps()/2 {
			t.Errorf("%s: time midpoint at op %d of %d — not front-heavy", name, mid, g.NumOps())
		}
	}
}

func TestGPT2StructuralDecomposition(t *testing.T) {
	g := MustLoad("gpt2")
	// 12 layers × 12 heads × 1 softmax per head = 144 softmaxes in attention.
	softmax := 0
	matmul := 0
	for _, op := range g.Ops {
		switch op.Kind {
		case model.Softmax:
			softmax++
		case model.MatMul:
			matmul++
		}
	}
	if softmax != 144 {
		t.Errorf("gpt2 softmax count = %d, want 144", softmax)
	}
	// 4 projection matmuls + 24 per-head matmuls per layer, + lm head.
	if matmul != 12*(4+24)+1 {
		t.Errorf("gpt2 matmul count = %d, want %d", matmul, 12*28+1)
	}
}

func TestVGG19Structure(t *testing.T) {
	g := MustLoad("vgg19")
	counts := map[model.Kind]int{}
	for _, op := range g.Ops {
		counts[op.Kind]++
	}
	if counts[model.Conv] != 16 {
		t.Errorf("vgg19 convs = %d, want 16", counts[model.Conv])
	}
	if counts[model.Gemm] != 3 {
		t.Errorf("vgg19 gemms = %d, want 3", counts[model.Gemm])
	}
	if counts[model.MaxPool] != 5 {
		t.Errorf("vgg19 pools = %d, want 5", counts[model.MaxPool])
	}
	if counts[model.ReLU] != 18 {
		t.Errorf("vgg19 relus = %d, want 18", counts[model.ReLU])
	}
}

func TestResNet50Structure(t *testing.T) {
	g := MustLoad("resnet50")
	counts := map[model.Kind]int{}
	for _, op := range g.Ops {
		counts[op.Kind]++
	}
	// 1 stem + 16×3 bottleneck convs + 4 projections = 53.
	if counts[model.Conv] != 53 {
		t.Errorf("resnet50 convs = %d, want 53", counts[model.Conv])
	}
	if counts[model.Add] != 16 {
		t.Errorf("resnet50 residual adds = %d, want 16", counts[model.Add])
	}
}

func TestConvTimesDominateElementwise(t *testing.T) {
	g := MustLoad("resnet50")
	var convMean, ewMean float64
	var convN, ewN int
	for _, op := range g.Ops {
		switch op.Kind {
		case model.Conv:
			convMean += op.TimeMs
			convN++
		case model.ReLU, model.Add:
			ewMean += op.TimeMs
			ewN++
		}
	}
	convMean /= float64(convN)
	ewMean /= float64(ewN)
	if convMean <= ewMean {
		t.Errorf("conv mean %.4f <= elementwise mean %.4f", convMean, ewMean)
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if len(names) != len(Table1Latency) {
		t.Fatalf("Names() has %d entries", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names() not sorted at %d", i)
		}
	}
}

func TestProfilingModelsAllLoad(t *testing.T) {
	for _, name := range ProfilingModels {
		if _, err := Load(name); err != nil {
			t.Errorf("profiling model %s: %v", name, err)
		}
	}
}

func TestOpTimesReasonablySpread(t *testing.T) {
	// No op should dominate a model (splitting would be impossible).
	for _, name := range BenchmarkModels {
		g := MustLoad(name)
		times := make([]float64, g.NumOps())
		for i, op := range g.Ops {
			times[i] = op.TimeMs
		}
		if frac := stats.Max(times) / g.TotalTimeMs(); frac > 0.45 {
			t.Errorf("%s: single op holds %.0f%% of total time", name, frac*100)
		}
	}
}

// TestGraphsSizedOnce checks graphSize against every build: Ops and Edges
// come out exactly full, so a build sized them once and never grew them.
func TestGraphsSizedOnce(t *testing.T) {
	for _, name := range Names() {
		g := MustLoad(name)
		if cap(g.Ops) != len(g.Ops) || cap(g.Edges) != len(g.Edges) {
			t.Errorf("%s: %d ops in cap %d, %d edges in cap %d; graphSize says %+v",
				name, len(g.Ops), cap(g.Ops), len(g.Edges), cap(g.Edges), graphSize[name])
		}
	}
}

// TestAddFromDedupesInputs feeds an op the same input twice, and the model
// input as well: it gets one edge. No zoo model lists an input twice, so
// the graph digests cannot see the dedupe.
func TestAddFromDedupesInputs(t *testing.T) {
	b := newBuilder("t", "t", model.Short, 1, 1, 1)
	x := b.relu()
	y := b.relu()
	z := b.addFrom([]int{x, -1, y, x, y}, model.Add, 1, 1)
	want := []model.Edge{{From: 0, To: 1}, {From: x, To: z}, {From: y, To: z}}
	if len(b.g.Edges) != len(want) {
		t.Fatalf("edges %v, want %v", b.g.Edges, want)
	}
	for i := range want {
		if b.g.Edges[i] != want[i] {
			t.Fatalf("edges %v, want %v", b.g.Edges, want)
		}
	}
}
