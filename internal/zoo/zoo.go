// Package zoo provides synthetic operator-level graphs of the deep learning
// models evaluated in the SPLIT paper.
//
// The paper profiles real ONNX models from the ONNX model zoo on a Jetson
// Nano (§3.1). That substrate is unavailable here, so each builder
// reconstructs the model's architecture layer by layer — convolution shapes,
// feature map sizes, transformer decompositions — computes per-operator
// FLOPs and tensor volumes from those shapes, derives a raw execution time
// from a roofline-style device model, and finally calibrates the graph so
// its total latency matches Table 1 of the paper. Operator counts for the
// five benchmark models match Table 1 exactly:
//
//	YOLOv2     84 ops   10.80 ms  Object Detection      Short
//	GoogLeNet 142 ops   13.20 ms  Image Classification  Short
//	ResNet50  122 ops   28.35 ms  Image Classification  Long
//	VGG19      44 ops   67.50 ms  Image Classification  Long
//	GPT-2    2534 ops   20.40 ms  Text Generation       Short
//
// Builders also emit the full data-dependency DAG (§2.2): residual
// connections in ResNet/ShuffleNet/EfficientNet/GPT-2, inception branches in
// GoogLeNet, the passthrough in YOLOv2 and dense connectivity in DenseNet.
// Cut boundary volumes therefore account for every tensor crossing a cut,
// so splitting inside a skip connection is correctly more expensive than
// splitting between blocks.
//
// The additional §3.1 profiling-study models (AlexNet, SqueezeNetv1,
// ShuffleNet, DenseNet, EfficientNet) are provided with realistic
// architectures and plausible Nano latencies.
package zoo

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"split/internal/model"
)

// Device throughput constants for the raw (pre-calibration) cost model.
// Only the *relative* per-op times they induce matter: every graph is scaled
// to its Table 1 latency afterwards.
const (
	flopsPerMs    = 2.35e8 // ~235 GFLOP/s effective compute
	memBytesPerMs = 6.0e6  // ~6 GB/s effective memory traffic
	kernelFixedMs = 0.004  // ~4 µs kernel launch overhead
	bytesPerElem  = 4      // fp32 tensors
)

// Table1Latency maps model name to the isolated latency (ms) from Table 1,
// or to our chosen calibration for the extra profiling-study models.
var Table1Latency = map[string]float64{
	"yolov2":       10.80,
	"googlenet":    13.20,
	"resnet50":     28.35,
	"vgg19":        67.50,
	"gpt2":         20.40,
	"alexnet":      9.20,
	"squeezenet":   5.10,
	"shufflenet":   6.30,
	"densenet":     33.80,
	"efficientnet": 15.60,
}

// Table1Ops maps the five benchmark models to their Table 1 operator counts.
var Table1Ops = map[string]int{
	"yolov2":    84,
	"googlenet": 142,
	"resnet50":  122,
	"vgg19":     44,
	"gpt2":      2534,
}

// BenchmarkModels lists the five models used in the paper's evaluation
// (§5.1), in Table 1 order.
var BenchmarkModels = []string{"yolov2", "googlenet", "resnet50", "vgg19", "gpt2"}

// ProfilingModels lists the models of the §3.1 large-scale profiling study.
var ProfilingModels = []string{
	"vgg19", "resnet50", "alexnet", "squeezenet", "shufflenet",
	"densenet", "googlenet", "yolov2", "efficientnet", "gpt2",
}

// Load builds the named model. The graph is freshly constructed on every
// call, so callers may mutate it freely.
func Load(name string) (*model.Graph, error) {
	switch name {
	case "yolov2":
		return YOLOv2(), nil
	case "googlenet":
		return GoogLeNet(), nil
	case "resnet50":
		return ResNet50(), nil
	case "vgg19":
		return VGG19(), nil
	case "gpt2":
		return GPT2(), nil
	case "alexnet":
		return AlexNet(), nil
	case "squeezenet":
		return SqueezeNet(), nil
	case "shufflenet":
		return ShuffleNet(), nil
	case "densenet":
		return DenseNet(), nil
	case "efficientnet":
		return EfficientNet(), nil
	}
	return nil, fmt.Errorf("zoo: unknown model %q", name)
}

// MustLoad is Load that panics on error, for use in tests and examples where
// the name is a compile-time constant.
func MustLoad(name string) *model.Graph {
	g, err := Load(name)
	if err != nil {
		panic(err)
	}
	return g
}

// Names returns all model names in the zoo, sorted.
func Names() []string {
	names := make([]string, 0, len(Table1Latency))
	for n := range Table1Latency {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LoadBenchmarkSet loads the five evaluation models keyed by name.
func LoadBenchmarkSet() map[string]*model.Graph {
	set := make(map[string]*model.Graph, len(BenchmarkModels))
	for _, n := range BenchmarkModels {
		set[n] = MustLoad(n)
	}
	return set
}

// ---------------------------------------------------------------------------
// graph, builder, tbuilder: incremental graph construction
// ---------------------------------------------------------------------------

// graphSize is each model's op and edge count, so a build sizes Ops and
// Edges once (TestGraphsSizedOnce keeps it exact).
var graphSize = map[string]struct{ ops, edges int }{
	"alexnet": {22, 21}, "densenet": {306, 363}, "efficientnet": {127, 151}, "googlenet": {142, 168},
	"gpt2": {2534, 3051}, "resnet50": {122, 137}, "shufflenet": {135, 150}, "squeezenet": {65, 72},
	"vgg19": {44, 43}, "yolov2": {84, 86},
}

// graph is the core both builders share: it appends ops and their
// dependency edges and names op i "<kind>_<n>", the n-th op of its kind, in
// one string per graph at finish. A builder tracks its own tensor shape and
// reports the cursor's output volume through out.
type graph struct {
	g     *model.Graph
	last  int // index of the op producing the cursor tensor; -1 = model input
	out   func() int64
	kinds []kindCount // ops of each kind so far, in first-use order
	ords  []int32     // ords[i] is op i's n
	names int         // bytes of all op names
	num   [10]byte    // decimal scratch
}

type kindCount struct {
	kind model.Kind
	n    int32
}

func newGraph(name, domain string, class model.RequestClass, out func() int64) graph {
	size := graphSize[name]
	return graph{
		g: &model.Graph{
			Name: name, Domain: domain, Class: class,
			Ops:   make([]model.Op, 0, size.ops),
			Edges: make([]model.Edge, 0, size.edges),
		},
		last:  -1,
		out:   out,
		kinds: make([]kindCount, 0, 16),
		ords:  make([]int32, 0, size.ops),
	}
}

// rawTime derives the pre-calibration execution time of an op from its
// compute and memory demand.
func rawTime(flops, bytes int64) float64 {
	return float64(flops)/flopsPerMs + float64(bytes)/memBytesPerMs + kernelFixedMs
}

// addFrom appends an op consuming the outputs of the given ops (deduped;
// -1 inputs, i.e. the model input, are skipped) and moves the cursor to it.
// It returns the new op's index.
func (c *graph) addFrom(inputs []int, kind model.Kind, flops, moveBytes int64) int {
	idx := len(c.g.Ops)
	k := slices.IndexFunc(c.kinds, func(kc kindCount) bool { return kc.kind == kind })
	if k < 0 {
		k, c.kinds = len(c.kinds), append(c.kinds, kindCount{kind: kind})
	}
	c.kinds[k].n++
	n := c.kinds[k].n
	c.ords = append(c.ords, n)
	c.names += len(kind) + 1 + len(strconv.AppendInt(c.num[:0], int64(n), 10))
	c.g.Ops = append(c.g.Ops, model.Op{
		Kind:     kind,
		TimeMs:   rawTime(flops, moveBytes),
		OutBytes: c.out(),
		FLOPs:    flops,
	})
	first := len(c.g.Edges)
	for _, in := range inputs {
		if in >= 0 && !slices.ContainsFunc(c.g.Edges[first:], func(e model.Edge) bool { return e.From == in }) {
			c.g.Edges = append(c.g.Edges, model.Edge{From: in, To: idx})
		}
	}
	c.last = idx
	return idx
}

// add appends a chain op consuming the cursor tensor.
func (c *graph) add(kind model.Kind, flops, moveBytes int64) int {
	return c.addFrom([]int{c.last}, kind, flops, moveBytes)
}

// finish names the ops, calibrates the graph to its Table 1 latency and
// returns it. A build has no input, so TestAllModelsValidate runs
// Graph.Validate (and its name map) once per model, not every Load.
func (c *graph) finish() *model.Graph {
	target, ok := Table1Latency[c.g.Name]
	if !ok {
		panic(fmt.Sprintf("zoo: no calibration latency for %s", c.g.Name))
	}
	var names strings.Builder
	names.Grow(c.names)
	for i := range c.g.Ops {
		op := &c.g.Ops[i]
		from := names.Len()
		names.WriteString(string(op.Kind))
		names.WriteByte('_')
		names.Write(strconv.AppendInt(c.num[:0], int64(c.ords[i]), 10))
		// Grown once, the builder never moves what it wrote: the name is a
		// window on the one string all the names share.
		op.Name = names.String()[from:]
	}
	c.g.ScaleTo(target)
	return c.g
}

// builder constructs a CNN graph while tracking the current feature map
// shape (channels, height, width). Every method appends exactly the ops it
// names, computing FLOPs, output volume and raw time from the shape.
type builder struct {
	graph
	c, h, w int // current feature map shape
}

func newBuilder(name, domain string, class model.RequestClass, c, h, w int) *builder {
	b := &builder{c: c, h: h, w: w}
	b.graph = newGraph(name, domain, class, b.outBytes)
	return b
}

func (b *builder) outBytes() int64 {
	return int64(b.c*b.h*b.w) * bytesPerElem
}

func convOut(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}

// conv appends a convolution with outC filters of size k×k.
func (b *builder) conv(outC, k, stride, pad int) int {
	inC, inH, inW := b.c, b.h, b.w
	outH := convOut(inH, k, stride, pad)
	outW := convOut(inW, k, stride, pad)
	flops := int64(2) * int64(k*k*inC) * int64(outC) * int64(outH*outW)
	weights := int64(k*k*inC*outC) * bytesPerElem
	inB := int64(inC*inH*inW) * bytesPerElem
	b.c, b.h, b.w = outC, outH, outW
	return b.add(model.Conv, flops, inB+weights+b.outBytes())
}

// dwconv appends a depthwise convolution (channel count unchanged).
func (b *builder) dwconv(k, stride, pad int) int {
	inC, inH, inW := b.c, b.h, b.w
	outH := convOut(inH, k, stride, pad)
	outW := convOut(inW, k, stride, pad)
	flops := int64(2*k*k) * int64(inC) * int64(outH*outW)
	weights := int64(k*k*inC) * bytesPerElem
	inB := int64(inC*inH*inW) * bytesPerElem
	b.h, b.w = outH, outW
	return b.add(model.DWConv, flops, inB+weights+b.outBytes())
}

// elementwise appends a cheap pointwise op (activation, bn, ...).
func (b *builder) elementwise(kind model.Kind) int {
	n := int64(b.c * b.h * b.w)
	return b.add(kind, n, 2*n*bytesPerElem)
}

func (b *builder) relu() int    { return b.elementwise(model.ReLU) }
func (b *builder) leaky() int   { return b.elementwise(model.LeakyReLU) }
func (b *builder) bn() int      { return b.elementwise(model.BatchNorm) }
func (b *builder) sigmoid() int { return b.elementwise(model.Sigmoid) }
func (b *builder) swish() int   { return b.elementwise(model.Swish) }

// residual appends an Add joining the cursor tensor with the tensor produced
// by op `from` (the skip connection).
func (b *builder) residual(from int) int {
	n := int64(b.c * b.h * b.w)
	return b.addFrom([]int{b.last, from}, model.Add, n, 3*n*bytesPerElem)
}

func (b *builder) lrn() int {
	n := int64(b.c * b.h * b.w)
	return b.add(model.LRN, 5*n, 2*n*bytesPerElem) // cross-channel window of ~5
}

func (b *builder) maxpool(k, stride, pad int) int {
	n := int64(b.c * b.h * b.w)
	b.h = convOut(b.h, k, stride, pad)
	b.w = convOut(b.w, k, stride, pad)
	return b.add(model.MaxPool, int64(k*k)*int64(b.c*b.h*b.w), n*bytesPerElem+b.outBytes())
}

func (b *builder) avgpool(k, stride, pad int) int {
	n := int64(b.c * b.h * b.w)
	b.h = convOut(b.h, k, stride, pad)
	b.w = convOut(b.w, k, stride, pad)
	return b.add(model.AvgPool, int64(k*k)*int64(b.c*b.h*b.w), n*bytesPerElem+b.outBytes())
}

func (b *builder) globalAvgPool() int {
	n := int64(b.c * b.h * b.w)
	b.h, b.w = 1, 1
	return b.add(model.GlobalAvg, n, n*bytesPerElem+b.outBytes())
}

// concatFrom appends a Concat of the given source ops. The caller must set
// the output channel count first (b.c).
func (b *builder) concatFrom(inputs []int) int {
	n := int64(b.c * b.h * b.w)
	return b.addFrom(inputs, model.Concat, n, 2*n*bytesPerElem)
}

func (b *builder) flatten() int {
	n := int64(b.c * b.h * b.w)
	b.c, b.h, b.w = b.c*b.h*b.w, 1, 1
	return b.add(model.Flatten, n, 2*n*bytesPerElem)
}

// gemm appends a fully connected layer to `out` features.
func (b *builder) gemm(out int) int {
	in := b.c * b.h * b.w
	flops := int64(2) * int64(in) * int64(out)
	weights := int64(in*out) * bytesPerElem
	b.c, b.h, b.w = out, 1, 1
	return b.add(model.Gemm, flops, weights+int64(in+out)*bytesPerElem)
}

func (b *builder) softmax() int {
	n := int64(b.c * b.h * b.w)
	return b.add(model.Softmax, 4*n, 2*n*bytesPerElem)
}

func (b *builder) reshape() int {
	n := int64(b.c * b.h * b.w)
	return b.add(model.Reshape, 0, 2*n*bytesPerElem)
}

func (b *builder) transpose() int {
	n := int64(b.c * b.h * b.w)
	return b.add(model.Transpose, 0, 2*n*bytesPerElem)
}

func (b *builder) slice(newC int) int {
	b.c = newC
	n := int64(b.c * b.h * b.w)
	return b.add(model.Slice, 0, 2*n*bytesPerElem)
}

func (b *builder) shuffle() int {
	n := int64(b.c * b.h * b.w)
	return b.add(model.Shuffle, 0, 2*n*bytesPerElem)
}

// ---------------------------------------------------------------------------
// VGG19 — 44 ops, 67.5 ms, Long (pure chain)
// ---------------------------------------------------------------------------

// VGG19 builds the 16-conv/3-FC VGG-19 graph: 16 Conv + 18 ReLU + 5 MaxPool
// + 1 Flatten + 3 Gemm + 1 Softmax = 44 operators.
func VGG19() *model.Graph {
	b := newBuilder("vgg19", "Image Classification", model.Long, 3, 224, 224)
	block := func(convs, ch int) {
		for i := 0; i < convs; i++ {
			b.conv(ch, 3, 1, 1)
			b.relu()
		}
		b.maxpool(2, 2, 0)
	}
	block(2, 64)
	block(2, 128)
	block(4, 256)
	block(4, 512)
	block(4, 512)
	b.flatten()
	b.gemm(4096)
	b.relu()
	b.gemm(4096)
	b.relu()
	b.gemm(1000)
	b.softmax()
	return b.finish()
}

// ---------------------------------------------------------------------------
// ResNet50 — 122 ops, 28.35 ms, Long (residual skip connections)
// ---------------------------------------------------------------------------

// ResNet50 builds the standard [3,4,6,3] bottleneck ResNet-50 with folded
// batch norm: stem (Conv+ReLU+MaxPool), 16 bottlenecks (7 ops each, 8 with a
// projection shortcut), GlobalAveragePool + Flatten + Gemm = 122 operators.
// Identity bottlenecks carry a skip edge from the block entry to the
// residual Add, so a cut inside a bottleneck must also transfer the entry
// tensor.
func ResNet50() *model.Graph {
	b := newBuilder("resnet50", "Image Classification", model.Long, 3, 224, 224)
	b.conv(64, 7, 2, 3)
	b.relu()
	b.maxpool(3, 2, 1)

	bottleneck := func(mid, out, stride int, project bool) {
		entry := b.last
		b.conv(mid, 1, stride, 0)
		b.relu()
		b.conv(mid, 3, 1, 1)
		b.relu()
		mainOut := b.conv(out, 1, 1, 0)
		skip := entry
		if project {
			// Projection shortcut: a 1x1 conv on the block input running as
			// a parallel branch from entry.
			b.last = entry
			b.c = out // projection emits the block's output shape
			skip = b.conv(out, 1, 1, 0)
			b.last = mainOut
		}
		b.residual(skip)
		b.relu()
	}
	stage := func(n, mid, out, stride int) {
		bottleneck(mid, out, stride, true)
		for i := 1; i < n; i++ {
			bottleneck(mid, out, 1, false)
		}
	}
	stage(3, 64, 256, 1)
	stage(4, 128, 512, 2)
	stage(6, 256, 1024, 2)
	stage(3, 512, 2048, 2)

	b.globalAvgPool()
	b.flatten()
	b.gemm(1000)
	return b.finish()
}

// ---------------------------------------------------------------------------
// GoogLeNet — 142 ops, 13.2 ms, Short (four-way inception branches)
// ---------------------------------------------------------------------------

// GoogLeNet builds Inception-v1: a 10-op stem, nine 14-op inception modules
// with two interleaved MaxPools, and a 4-op classifier head = 142 operators.
// Each module's four branches all read the module input and join at a
// Concat, so cuts inside a module cross several tensors.
func GoogLeNet() *model.Graph {
	b := newBuilder("googlenet", "Image Classification", model.Short, 3, 224, 224)
	// Stem: conv7x7 + relu + maxpool + lrn + conv1x1 + relu + conv3x3 + relu + lrn + maxpool.
	b.conv(64, 7, 2, 3)
	b.relu()
	b.maxpool(3, 2, 1)
	b.lrn()
	b.conv(64, 1, 1, 0)
	b.relu()
	b.conv(192, 3, 1, 1)
	b.relu()
	b.lrn()
	b.maxpool(3, 2, 1)

	// inception appends a 14-op module: four parallel branches in sequential
	// execution order, each branching from the module entry, ending in
	// Concat. Branches: 1x1; 1x1→3x3; 1x1→5x5; maxpool→1x1.
	inception := func(c1, r3, c3, r5, c5, cp int) {
		entry := b.last
		inC, h, w := b.c, b.h, b.w
		outs := make([]int, 0, 4)
		branch := func(f func() int) {
			b.last = entry
			b.c, b.h, b.w = inC, h, w
			outs = append(outs, f())
		}
		branch(func() int { b.conv(c1, 1, 1, 0); return b.relu() })
		branch(func() int { b.conv(r3, 1, 1, 0); b.relu(); b.conv(c3, 3, 1, 1); return b.relu() })
		branch(func() int { b.conv(r5, 1, 1, 0); b.relu(); b.conv(c5, 5, 1, 2); return b.relu() })
		branch(func() int { b.maxpool(3, 1, 1); b.conv(cp, 1, 1, 0); return b.relu() })
		b.c = c1 + c3 + c5 + cp
		b.concatFrom(outs)
	}

	inception(64, 96, 128, 16, 32, 32)   // 3a -> 256
	inception(128, 128, 192, 32, 96, 64) // 3b -> 480
	b.maxpool(3, 2, 1)
	inception(192, 96, 208, 16, 48, 64)    // 4a -> 512
	inception(160, 112, 224, 24, 64, 64)   // 4b -> 512
	inception(128, 128, 256, 24, 64, 64)   // 4c -> 512
	inception(112, 144, 288, 32, 64, 64)   // 4d -> 528
	inception(256, 160, 320, 32, 128, 128) // 4e -> 832
	b.maxpool(3, 2, 1)
	inception(256, 160, 320, 32, 128, 128) // 5a -> 832
	inception(384, 192, 384, 48, 128, 128) // 5b -> 1024

	b.globalAvgPool()
	b.flatten()
	b.gemm(1000)
	b.softmax()
	return b.finish()
}

// ---------------------------------------------------------------------------
// YOLOv2 — 84 ops, 10.8 ms, Short (passthrough/reorg skip)
// ---------------------------------------------------------------------------

// YOLOv2 builds the Darknet-19-based YOLOv2 detector at 416×416: 23
// convolutions (22 with BatchNorm+LeakyReLU), 5 MaxPools, the passthrough
// reorg (Reshape/Transpose/Reshape + Concat) and an 8-op region decode head
// = 84 operators. The passthrough edge spans 20+ operators, making mid-head
// cuts expensive.
func YOLOv2() *model.Graph {
	b := newBuilder("yolov2", "Object Detection", model.Short, 3, 416, 416)
	cbl := func(outC, k int) int { // conv + bn + leaky
		pad := 0
		if k == 3 {
			pad = 1
		}
		b.conv(outC, k, 1, pad)
		b.bn()
		return b.leaky()
	}
	cbl(32, 3)
	b.maxpool(2, 2, 0)
	cbl(64, 3)
	b.maxpool(2, 2, 0)
	cbl(128, 3)
	cbl(64, 1)
	cbl(128, 3)
	b.maxpool(2, 2, 0)
	cbl(256, 3)
	cbl(128, 1)
	cbl(256, 3)
	b.maxpool(2, 2, 0)
	cbl(512, 3)
	cbl(256, 1)
	cbl(512, 3)
	cbl(256, 1)
	pass := cbl(512, 3) // conv13 output: passthrough source (26x26x512)
	passC, passH, passW := b.c, b.h, b.w
	b.maxpool(2, 2, 0)
	cbl(1024, 3)
	cbl(512, 1)
	cbl(1024, 3)
	cbl(512, 1)
	cbl(1024, 3)
	// Detection head.
	cbl(1024, 3)
	head := cbl(1024, 3)
	headC, headH, headW := b.c, b.h, b.w
	// Passthrough branch: 1x1 conv on conv13 output, then reorg to 13x13.
	b.last = pass
	b.c, b.h, b.w = passC, passH, passW
	cbl(64, 1)
	b.reshape()
	b.transpose()
	b.c, b.h, b.w = 64*4, passH/2, passW/2
	reorg := b.reshape()
	// Concat passthrough with head.
	b.c, b.h, b.w = headC+256, headH, headW
	b.concatFrom([]int{head, reorg})
	cbl(1024, 3)
	// Final 1x1 conv to 5 anchors × (5+20) channels, no activation.
	b.conv(125, 1, 1, 0)
	// Region decode: reshape, slice xy, sigmoid, slice wh, mul(exp approx),
	// slice class, softmax, concat.
	full := b.c
	dec := b.reshape()
	b.slice(10) // xy for 5 anchors
	xy := b.sigmoid()
	b.last = dec
	b.c = full
	b.slice(10) // wh
	wh := b.elementwise(model.Mul)
	b.last = dec
	b.c = full
	b.slice(100) // class scores
	cls := b.softmax()
	b.c = full
	b.concatFrom([]int{xy, wh, cls})
	return b.finish()
}

// ---------------------------------------------------------------------------
// GPT-2 — 2534 ops, 20.4 ms, Short (transformer residual structure)
// ---------------------------------------------------------------------------

// gptDims holds GPT-2-small transformer dimensions.
type gptDims struct {
	seq, hidden, heads, ffn int
}

// gpt2Dims are GPT-2-small dimensions with a 64-token context, matching a
// single short text-generation forward pass.
var gpt2Dims = gptDims{seq: 64, hidden: 768, heads: 12, ffn: 3072}

// tbuilder builds transformer graphs where tensors are (seq × features).
type tbuilder struct {
	graph
	seq  int
	feat int // current feature width
}

func newTBuilder(name, domain string, class model.RequestClass, seq, feat int) *tbuilder {
	t := &tbuilder{seq: seq, feat: feat}
	t.graph = newGraph(name, domain, class, t.outBytes)
	return t
}

func (t *tbuilder) outBytes() int64 {
	return int64(t.seq*t.feat) * bytesPerElem
}

// matmul appends a (seq×feat)·(feat×out) matrix multiply.
func (t *tbuilder) matmul(out int) int {
	flops := int64(2) * int64(t.seq) * int64(t.feat) * int64(out)
	weights := int64(t.feat*out) * bytesPerElem
	in := t.outBytes()
	t.feat = out
	return t.add(model.MatMul, flops, in+weights+t.outBytes())
}

// ew appends a pointwise op over the current tensor.
func (t *tbuilder) ew(kind model.Kind) int {
	n := int64(t.seq * t.feat)
	return t.add(kind, n, 2*n*bytesPerElem)
}

// ewFrom appends a pointwise op consuming specific inputs.
func (t *tbuilder) ewFrom(inputs []int, kind model.Kind) int {
	n := int64(t.seq * t.feat)
	return t.addFrom(inputs, kind, n, 2*n*bytesPerElem)
}

// layerNorm appends the 9-op decomposed LayerNormalization used by the ONNX
// GPT-2 export: ReduceMean, Sub, Mul(square), ReduceMean, Add(eps), Sqrt,
// Div, Mul(gamma), Add(beta). The Sub and Div reference the input and the
// centered tensor respectively, creating short intra-LN skips.
func (t *tbuilder) layerNorm() int {
	x := t.last
	mean := t.ew(model.ReduceMean)
	sub := t.ewFrom([]int{x, mean}, model.Sub)
	t.ew(model.Mul)        // square
	t.ew(model.ReduceMean) // variance
	t.ew(model.Add)        // + eps
	std := t.ew(model.Sqrt)
	t.ewFrom([]int{sub, std}, model.Div)
	t.ew(model.Mul)        // gamma
	return t.ew(model.Add) // beta
}

// gelu appends the 8-op tanh-approximation GELU decomposition; the final
// products reference the GELU input.
func (t *tbuilder) gelu() int {
	x := t.last
	t.ew(model.Mul)                       // x*x
	t.ew(model.Mul)                       // x^3
	t.ew(model.Mul)                       // 0.044715*x^3
	t.ewFrom([]int{t.last, x}, model.Add) // x + ...
	t.ew(model.Tanh)
	t.ew(model.Add)                       // 1 + tanh
	t.ewFrom([]int{t.last, x}, model.Mul) // x * (...)
	return t.ew(model.Mul)                // 0.5 * ...
}

// attentionHead appends the 14 per-head ops of the decomposed multi-head
// attention, reading the shared q/k/v tensors: slice+reshape of q, k and v,
// transpose k, matmul qk, div scale, add mask, softmax, matmul av,
// transpose out, reshape out. It returns the head output index.
func (t *tbuilder) attentionHead(q, k, v, headDim int) int {
	full := t.feat
	perHeadFrom := func(in int, kind model.Kind) int {
		n := int64(t.seq * headDim)
		t.feat = headDim
		return t.addFrom([]int{in}, kind, n, 2*n*bytesPerElem)
	}
	perHead := func(kind model.Kind) int {
		return perHeadFrom(t.last, kind)
	}
	perHeadFrom(q, model.Slice)
	qr := perHead(model.Reshape)
	perHeadFrom(k, model.Slice)
	kr := perHead(model.Reshape)
	perHeadFrom(v, model.Slice)
	vr := perHead(model.Reshape)
	kt := perHeadFrom(kr, model.Transpose) // k^T
	// qk^T: (seq×d)·(d×seq) -> seq×seq scores
	qkFlops := int64(2) * int64(t.seq) * int64(headDim) * int64(t.seq)
	scoreBytes := int64(t.seq*t.seq) * bytesPerElem
	t.addFrom([]int{qr, kt}, model.MatMul, qkFlops, 2*int64(t.seq*headDim)*bytesPerElem+scoreBytes)
	t.add(model.Div, int64(t.seq*t.seq), 2*scoreBytes)
	t.add(model.Add, int64(t.seq*t.seq), 2*scoreBytes)
	sm := t.add(model.Softmax, 4*int64(t.seq*t.seq), 2*scoreBytes)
	// attn·v: (seq×seq)·(seq×d)
	avFlops := int64(2) * int64(t.seq) * int64(t.seq) * int64(headDim)
	t.addFrom([]int{sm, vr}, model.MatMul, avFlops, scoreBytes+2*int64(t.seq*headDim)*bytesPerElem)
	perHead(model.Transpose)
	out := perHead(model.Reshape)
	t.feat = full
	return out
}

// transformerLayer appends one 210-op decoded GPT-2 block: LN(9) + QKV
// matmul+bias(2) + split(3) + KV-cache concat(2) + 12 heads × 14 + head
// concat(1) + proj matmul+bias(2) + residual(1) + LN(9) + MLP
// (matmul+bias+gelu8+matmul+bias = 12) + residual(1).
func (t *tbuilder) transformerLayer(d gptDims) {
	headDim := d.hidden / d.heads
	entry := t.last
	t.layerNorm() // 9
	t.matmul(3 * d.hidden)
	qkv := t.ew(model.Add) // qkv bias
	t.feat = d.hidden
	q := t.ewFrom([]int{qkv}, model.Slice)
	k := t.ewFrom([]int{qkv}, model.Slice)
	v := t.ewFrom([]int{qkv}, model.Slice)
	kc := t.ewFrom([]int{k}, model.Concat) // kv-cache concat k
	vc := t.ewFrom([]int{v}, model.Concat) // kv-cache concat v
	// A constant capacity keeps GPT-2-small's 12 head outputs on the stack.
	heads := make([]int, 0, 16)
	for h := 0; h < d.heads; h++ {
		heads = append(heads, t.attentionHead(q, kc, vc, headDim))
	}
	t.ewFrom(heads, model.Concat) // merge heads
	t.matmul(d.hidden)
	t.ew(model.Add)                                   // proj bias
	res1 := t.ewFrom([]int{t.last, entry}, model.Add) // residual
	t.layerNorm()                                     // 9
	t.matmul(d.ffn)
	t.ew(model.Add) // ffn bias
	t.gelu()        // 8
	t.matmul(d.hidden)
	t.ew(model.Add)                          // ffn proj bias
	t.ewFrom([]int{t.last, res1}, model.Add) // residual
}

// GPT2 builds the decomposed GPT-2-small graph: 3-op embedding stem
// (Gather wte, Gather wpe, Add), 12 × 210-op transformer layers, and an
// 11-op head (LayerNorm 9 + lm-head MatMul + Reshape) = 2534 operators.
func GPT2() *model.Graph {
	d := gpt2Dims
	t := newTBuilder("gpt2", "Text Generation", model.Short, d.seq, d.hidden)
	// Embedding stem: the position gather runs as a parallel branch off the
	// model input and joins the token gather at the Add.
	tok := t.ew(model.Embedding) // token embedding gather
	t.last = -1
	pos := t.ew(model.Embedding) // position embedding gather
	t.ewFrom([]int{tok, pos}, model.Add)
	for l := 0; l < 12; l++ {
		t.transformerLayer(d)
	}
	t.layerNorm()
	// LM head: hidden -> vocab projection (tied weights).
	t.matmul(50257)
	t.feat = d.hidden // restore nominal width for OutBytes of the final reshape
	t.ew(model.Reshape)
	return t.finish()
}

// ---------------------------------------------------------------------------
// Profiling-study extras (§3.1): AlexNet, SqueezeNet, ShuffleNet, DenseNet,
// EfficientNet. Operator counts are architecture-faithful but not pinned.
// ---------------------------------------------------------------------------

// AlexNet builds the classic 5-conv/3-FC AlexNet with LRN (pure chain).
func AlexNet() *model.Graph {
	b := newBuilder("alexnet", "Image Classification", model.Short, 3, 227, 227)
	b.conv(96, 11, 4, 0)
	b.relu()
	b.lrn()
	b.maxpool(3, 2, 0)
	b.conv(256, 5, 1, 2)
	b.relu()
	b.lrn()
	b.maxpool(3, 2, 0)
	b.conv(384, 3, 1, 1)
	b.relu()
	b.conv(384, 3, 1, 1)
	b.relu()
	b.conv(256, 3, 1, 1)
	b.relu()
	b.maxpool(3, 2, 0)
	b.flatten()
	b.gemm(4096)
	b.relu()
	b.gemm(4096)
	b.relu()
	b.gemm(1000)
	b.softmax()
	return b.finish()
}

// SqueezeNet builds SqueezeNet v1.1 with its eight fire modules (two-way
// expand branches joined by Concat).
func SqueezeNet() *model.Graph {
	b := newBuilder("squeezenet", "Image Classification", model.Short, 3, 224, 224)
	b.conv(64, 3, 2, 0)
	b.relu()
	b.maxpool(3, 2, 0)
	fire := func(squeeze, expand int) {
		b.conv(squeeze, 1, 1, 0)
		sq := b.relu()
		inC, h, w := b.c, b.h, b.w
		b.conv(expand, 1, 1, 0)
		e1 := b.relu()
		b.last = sq
		b.c, b.h, b.w = inC, h, w
		b.conv(expand, 3, 1, 1)
		e3 := b.relu()
		b.c = 2 * expand
		b.concatFrom([]int{e1, e3})
	}
	fire(16, 64)
	fire(16, 64)
	b.maxpool(3, 2, 0)
	fire(32, 128)
	fire(32, 128)
	b.maxpool(3, 2, 0)
	fire(48, 192)
	fire(48, 192)
	fire(64, 256)
	fire(64, 256)
	b.conv(1000, 1, 1, 0)
	b.relu()
	b.globalAvgPool()
	b.softmax()
	return b.finish()
}

// ShuffleNet builds ShuffleNet v1 (g=3) with channel shuffle units and
// residual joins.
func ShuffleNet() *model.Graph {
	b := newBuilder("shufflenet", "Image Classification", model.Short, 3, 224, 224)
	b.conv(24, 3, 2, 1)
	b.relu()
	b.maxpool(3, 2, 1)
	unit := func(out, stride int) {
		entry := b.last
		b.conv(out/4, 1, 1, 0) // grouped 1x1 (modelled as conv)
		b.relu()
		b.shuffle()
		b.dwconv(3, stride, 1)
		b.bn()
		main := b.conv(out, 1, 1, 0)
		if stride == 1 {
			b.residual(entry)
		} else {
			b.concatFrom([]int{main, entry})
		}
		b.relu()
	}
	stage := func(n, out int) {
		unit(out, 2)
		for i := 1; i < n; i++ {
			unit(out, 1)
		}
	}
	stage(4, 240)
	stage(8, 480)
	stage(4, 960)
	b.globalAvgPool()
	b.flatten()
	b.gemm(1000)
	b.softmax()
	return b.finish()
}

// DenseNet builds DenseNet-121 with 4 dense blocks and transition layers.
// Every dense layer's Concat joins the running feature map with the new
// growth channels, producing the long-range connectivity DenseNet is known
// for (modelled via the accumulated concat chain).
func DenseNet() *model.Graph {
	b := newBuilder("densenet", "Image Classification", model.Long, 3, 224, 224)
	b.conv(64, 7, 2, 3)
	b.relu()
	b.maxpool(3, 2, 1)
	growth := 32
	denseLayer := func() {
		entry := b.last
		inC := b.c
		b.conv(4*growth, 1, 1, 0)
		b.relu()
		b.conv(growth, 3, 1, 1)
		g := b.relu()
		b.c = inC + growth
		b.concatFrom([]int{entry, g})
	}
	transition := func() {
		b.conv(b.c/2, 1, 1, 0)
		b.relu()
		b.avgpool(2, 2, 0)
	}
	for _, n := range []int{6, 12, 24, 16} {
		for i := 0; i < n; i++ {
			denseLayer()
		}
		if n != 16 {
			transition()
		}
	}
	b.globalAvgPool()
	b.flatten()
	b.gemm(1000)
	b.softmax()
	return b.finish()
}

// EfficientNet builds EfficientNet-B0 with MBConv blocks (squeeze-excite
// modelled as sigmoid gating) and residual joins on stride-1 same-width
// blocks.
func EfficientNet() *model.Graph {
	b := newBuilder("efficientnet", "Object Detection", model.Short, 3, 224, 224)
	b.conv(32, 3, 2, 1)
	b.swish()
	mbconv := func(out, expand, k, stride int) {
		entry := b.last
		inC := b.c
		if expand != 1 {
			b.conv(inC*expand, 1, 1, 0)
			b.swish()
		}
		pad := k / 2
		b.dwconv(k, stride, pad)
		dw := b.swish()
		// Squeeze-and-excite: pooled gating, modelled as sigmoid+mul.
		gate := b.sigmoid()
		b.ewFromGate(dw, gate)
		b.conv(out, 1, 1, 0)
		if stride == 1 && inC == out {
			b.residual(entry)
		}
	}
	type stage struct{ n, out, expand, k, stride int }
	for _, s := range []stage{
		{1, 16, 1, 3, 1}, {2, 24, 6, 3, 2}, {2, 40, 6, 5, 2},
		{3, 80, 6, 3, 2}, {3, 112, 6, 5, 1}, {4, 192, 6, 5, 2}, {1, 320, 6, 3, 1},
	} {
		mbconv(s.out, s.expand, s.k, s.stride)
		for i := 1; i < s.n; i++ {
			mbconv(s.out, s.expand, s.k, 1)
		}
	}
	b.conv(1280, 1, 1, 0)
	b.swish()
	b.globalAvgPool()
	b.flatten()
	b.gemm(1000)
	b.softmax()
	return b.finish()
}

// ewFromGate appends the SE gating Mul joining the depthwise output with
// the gate.
func (b *builder) ewFromGate(dw, gate int) int {
	n := int64(b.c * b.h * b.w)
	return b.addFrom([]int{dw, gate}, model.Mul, n, 3*n*bytesPerElem)
}
