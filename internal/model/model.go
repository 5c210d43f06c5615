// Package model defines the operator-level representation of deep learning
// models used throughout the SPLIT reproduction.
//
// A model is a Graph: an ordered list of operators in topological execution
// order (the order ONNX Runtime executes them on a single-stream device).
// Each operator carries a cost model — execution time and output data volume
// — which is everything the paper's splitting and scheduling decisions depend
// on. Cut points are positions between consecutive operators; splitting a
// graph at m-1 cut points yields m Blocks. The extra time a split execution
// pays at each block boundary (intermediate tensor transfer plus block
// relaunch) is captured by CostModel.
package model

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
)

// Kind classifies an operator. The set covers the CNN and Transformer
// operators appearing in the paper's model zoo (§3.1).
type Kind string

// Operator kinds. These mirror common ONNX op types.
const (
	Conv      Kind = "Conv"
	DWConv    Kind = "DWConv" // depthwise convolution (ShuffleNet, EfficientNet)
	ReLU      Kind = "Relu"
	MaxPool   Kind = "MaxPool"
	AvgPool   Kind = "AveragePool"
	GlobalAvg Kind = "GlobalAveragePool"
	BatchNorm Kind = "BatchNormalization"
	LRN       Kind = "LRN"
	Gemm      Kind = "Gemm" // fully connected
	MatMul    Kind = "MatMul"
	Add       Kind = "Add"
	Mul       Kind = "Mul"
	Concat    Kind = "Concat"
	Softmax   Kind = "Softmax"
	Sigmoid   Kind = "Sigmoid"
	Tanh      Kind = "Tanh"
	Gelu      Kind = "Gelu"
	LayerNorm Kind = "LayerNormalization"
	Reshape   Kind = "Reshape"
	Transpose Kind = "Transpose"
	SplitOp   Kind = "Split"
	Slice     Kind = "Slice"
	Shuffle   Kind = "ChannelShuffle"
	Dropout   Kind = "Dropout"
	Flatten   Kind = "Flatten"
	Embedding Kind = "Gather" // token embedding lookup
	Attention Kind = "Attention"
	Upsample  Kind = "Upsample"
	LeakyReLU Kind = "LeakyRelu"
	Swish     Kind = "Swish"
	Pad       Kind = "Pad"
	// Primitive math ops appearing in decomposed LayerNorm/GELU exports.
	ReduceMean Kind = "ReduceMean"
	Sub        Kind = "Sub"
	Div        Kind = "Div"
	Sqrt       Kind = "Sqrt"
)

// RequestClass tells whether a model serves short or long requests in the
// paper's workload taxonomy (Table 1). It is one byte, so the outcome record
// every request leaves carries it in padding; its text form is the class's
// name, so JSON and the exports spell it as words.
type RequestClass uint8

// Request classes from Table 1. The zero value is an unclassified model,
// spelled "".
const (
	Short RequestClass = iota + 1
	Long
)

var classNames = [...]string{0: "", Short: "Short", Long: "Long"}

// String returns "Short", "Long", or "" for the zero class.
func (c RequestClass) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "RequestClass(" + strconv.Itoa(int(c)) + ")"
}

// ParseClass is the class a name spells: "Short", "Long", or "" for an
// unclassified model. Any other name is an error.
func ParseClass(s string) (RequestClass, error) {
	for c, name := range classNames {
		if s == name {
			return RequestClass(c), nil
		}
	}
	return 0, fmt.Errorf("model: unknown request class %q", s)
}

// MarshalText spells the class as String does.
func (c RequestClass) MarshalText() ([]byte, error) {
	if int(c) >= len(classNames) {
		return nil, fmt.Errorf("model: invalid request class %d", uint8(c))
	}
	return []byte(classNames[c]), nil
}

// UnmarshalText reads what MarshalText writes.
func (c *RequestClass) UnmarshalText(text []byte) error {
	v, err := ParseClass(string(text))
	if err != nil {
		return err
	}
	*c = v
	return nil
}

// Op is a single operator with its cost profile.
type Op struct {
	// Name uniquely identifies the op within its graph, e.g. "conv3_2".
	Name string
	// Kind is the operator type.
	Kind Kind
	// TimeMs is the isolated execution time of this op on the target device
	// in milliseconds.
	TimeMs float64
	// OutBytes is the size of the operator's output tensor in bytes. A cut
	// placed immediately after this op must move OutBytes across the block
	// boundary.
	OutBytes int64
	// FLOPs is the floating point operation count (informational; the zoo
	// derives TimeMs from it before calibration).
	FLOPs int64
}

// Edge is a data dependency between two operators: To consumes the output
// of From. From < To always holds in a topologically ordered graph.
type Edge struct {
	From, To int
}

// Graph is a model: operators in single-stream execution order, with the
// inter-operator data dependencies of §2.2's DAG view.
type Graph struct {
	// Name is the zoo identifier, e.g. "resnet50".
	Name string
	// Domain is the application domain from Table 1, e.g. "Image Classification".
	Domain string
	// Class says whether requests of this model are short or long.
	Class RequestClass
	// Ops is the topologically ordered operator list.
	Ops []Op
	// Edges is the data-dependency DAG over Ops indices. When empty, the
	// graph is treated as a pure chain (each op feeds the next) — the
	// degenerate case that older artifacts and simple tests use. When
	// non-empty it must describe every dependency, because boundary
	// volumes are computed from it: a cut's transfer cost is the sum of
	// all distinct tensors crossing the cut, which for skip connections
	// (ResNet residuals, YOLO passthrough, inception branches) exceeds the
	// single preceding tensor.
	Edges []Edge
}

// NumOps returns the number of operators M.
func (g *Graph) NumOps() int { return len(g.Ops) }

// TotalTimeMs returns the vanilla (unsplit) execution time T: the sum of all
// operator times.
func (g *Graph) TotalTimeMs() float64 {
	var t float64
	for _, op := range g.Ops {
		t += op.TimeMs
	}
	return t
}

// Validate checks structural invariants: non-empty, positive op times,
// non-negative volumes, unique op names.
func (g *Graph) Validate() error {
	if g.Name == "" {
		return errors.New("model: graph has empty name")
	}
	if len(g.Ops) == 0 {
		return fmt.Errorf("model %s: graph has no operators", g.Name)
	}
	seen := make(map[string]bool, len(g.Ops))
	for i, op := range g.Ops {
		if op.Name == "" {
			return fmt.Errorf("model %s: op %d has empty name", g.Name, i)
		}
		if seen[op.Name] {
			return fmt.Errorf("model %s: duplicate op name %q", g.Name, op.Name)
		}
		seen[op.Name] = true
		if op.TimeMs <= 0 || math.IsNaN(op.TimeMs) || math.IsInf(op.TimeMs, 0) {
			return fmt.Errorf("model %s: op %q has invalid time %v", g.Name, op.Name, op.TimeMs)
		}
		if op.OutBytes < 0 {
			return fmt.Errorf("model %s: op %q has negative output volume", g.Name, op.Name)
		}
	}
	for _, e := range g.Edges {
		if e.From < 0 || e.To >= len(g.Ops) {
			return fmt.Errorf("model %s: edge %d->%d out of range", g.Name, e.From, e.To)
		}
		if e.From >= e.To {
			return fmt.Errorf("model %s: edge %d->%d violates topological order", g.Name, e.From, e.To)
		}
	}
	return nil
}

// BoundaryBytesAt returns the data volume crossing a cut placed at position
// c (between Ops[c-1] and Ops[c]): the sum of the output tensors of all
// distinct operators before the cut that feed an operator at or after it.
// For a pure chain (no explicit edges) this is just Ops[c-1].OutBytes; with
// skip connections it is larger, which is why cutting inside a residual
// block is expensive.
func (g *Graph) BoundaryBytesAt(c int) int64 {
	if len(g.Edges) == 0 {
		return g.Ops[c-1].OutBytes
	}
	var total int64
	counted := make(map[int]bool)
	for _, e := range g.Edges {
		if e.From < c && e.To >= c && !counted[e.From] {
			counted[e.From] = true
			total += g.Ops[e.From].OutBytes
		}
	}
	return total
}

// PrefixTimes returns the cumulative execution time after each operator:
// result[i] = sum of Ops[0..i].TimeMs. len(result) == NumOps().
func (g *Graph) PrefixTimes() []float64 {
	prefix := make([]float64, len(g.Ops))
	var acc float64
	for i, op := range g.Ops {
		acc += op.TimeMs
		prefix[i] = acc
	}
	return prefix
}

// ScaleTo multiplies every operator time by a constant so that TotalTimeMs
// becomes target. It is used by the zoo to calibrate synthetic graphs to the
// latencies reported in Table 1.
func (g *Graph) ScaleTo(targetMs float64) {
	total := g.TotalTimeMs()
	if total <= 0 {
		return
	}
	f := targetMs / total
	for i := range g.Ops {
		g.Ops[i].TimeMs *= f
	}
}

// CostModel captures the per-boundary overhead of a split execution: when a
// model is cut after operator i, the succeeding block must reload the
// intermediate tensor (OutBytes of op i) and relaunch the runtime session.
//
// boundary(i) = FixedLaunchMs + OutBytes(i) / BytesPerMs
//
// The defaults are calibrated against the paper's Table 3 overheads on a
// Jetson Nano with ONNX Runtime: a few milliseconds of session relaunch plus
// roughly 1 GB/s effective round-trip intermediate transfer.
type CostModel struct {
	// FixedLaunchMs is the constant per-boundary cost (session setup, kernel
	// relaunch, allocator warm-up) in milliseconds.
	FixedLaunchMs float64
	// BytesPerMs is the effective boundary transfer bandwidth.
	BytesPerMs float64
}

// DefaultCostModel returns the calibrated Jetson-Nano-like cost model.
func DefaultCostModel() CostModel {
	return CostModel{FixedLaunchMs: 3.0, BytesPerMs: 1.0e6}
}

// BoundaryMs returns the overhead of a block boundary placed immediately
// after the operator producing outBytes of intermediate data.
func (c CostModel) BoundaryMs(outBytes int64) float64 {
	return c.FixedLaunchMs + float64(outBytes)/c.BytesPerMs
}

// Block is a half-open operator range [Start, End) of a graph.
type Block struct {
	Start, End int
}

// Len returns the number of operators in the block.
func (b Block) Len() int { return b.End - b.Start }

// ValidateCuts checks that cuts are strictly increasing positions in
// [1, M-1]. A cut at position c separates Ops[c-1] and Ops[c].
func (g *Graph) ValidateCuts(cuts []int) error {
	m := g.NumOps()
	prev := 0
	for _, c := range cuts {
		if c < 1 || c > m-1 {
			return fmt.Errorf("model %s: cut %d out of range [1,%d]", g.Name, c, m-1)
		}
		if c <= prev {
			return fmt.Errorf("model %s: cuts not strictly increasing at %d", g.Name, c)
		}
		prev = c
	}
	return nil
}

// Blocks returns the m = len(cuts)+1 blocks induced by the cut positions.
// Cuts must be valid (see ValidateCuts); invalid cuts cause a panic since
// they indicate a bug in the caller.
func (g *Graph) Blocks(cuts []int) []Block {
	if err := g.ValidateCuts(cuts); err != nil {
		panic(err)
	}
	blocks := make([]Block, 0, len(cuts)+1)
	start := 0
	for _, c := range cuts {
		blocks = append(blocks, Block{Start: start, End: c})
		start = c
	}
	blocks = append(blocks, Block{Start: start, End: g.NumOps()})
	return blocks
}

// BlockTimesMs returns the execution time of each block under the given cost
// model. The boundary overhead of a cut is attributed to the succeeding
// block, which must load the crossing tensors before executing: the first
// block pays no overhead, every later block pays BoundaryMs of the data
// volume crossing the cut at its start (see BoundaryBytesAt).
func (g *Graph) BlockTimesMs(cuts []int, cm CostModel) []float64 {
	blocks := g.Blocks(cuts)
	times := make([]float64, len(blocks))
	for i, b := range blocks {
		var t float64
		for _, op := range g.Ops[b.Start:b.End] {
			t += op.TimeMs
		}
		if b.Start > 0 {
			t += cm.BoundaryMs(g.BoundaryBytesAt(b.Start))
		}
		times[i] = t
	}
	return times
}

// SplitOverhead returns the splitting overhead ratio defined in §2.4
// footnote 2: the additional execution time of the blocks relative to the
// vanilla model's execution time.
func (g *Graph) SplitOverhead(cuts []int, cm CostModel) float64 {
	var extra float64
	for _, c := range cuts {
		extra += cm.BoundaryMs(g.BoundaryBytesAt(c))
	}
	return extra / g.TotalTimeMs()
}

// SplitPlan records the outcome of offline splitting for one model: the cut
// positions plus the profiled block times it induces. Plans are what the
// deployment manager loads online.
type SplitPlan struct {
	// Model is the graph name the plan applies to.
	Model string
	// Cuts are the strictly increasing cut positions (possibly empty: no
	// splitting).
	Cuts []int
	// BlockTimesMs are the per-block execution times including boundary
	// overheads, profiled offline.
	BlockTimesMs []float64
	// OverheadRatio is the splitting overhead (extra time / vanilla time).
	OverheadRatio float64
	// StdDevMs is the population standard deviation of BlockTimesMs.
	StdDevMs float64
}

// NumBlocks returns the number of blocks in the plan.
func (p *SplitPlan) NumBlocks() int { return len(p.Cuts) + 1 }

// TotalTimeMs returns the split execution time (sum of block times).
func (p *SplitPlan) TotalTimeMs() float64 {
	var t float64
	for _, b := range p.BlockTimesMs {
		t += b
	}
	return t
}

// NewSplitPlan profiles the cuts on g and returns a complete plan. Cuts may
// be given in any order; they are sorted before validation.
func NewSplitPlan(g *Graph, cuts []int, cm CostModel) (*SplitPlan, error) {
	sorted := append([]int(nil), cuts...)
	sort.Ints(sorted)
	if err := g.ValidateCuts(sorted); err != nil {
		return nil, err
	}
	times := g.BlockTimesMs(sorted, cm)
	return &SplitPlan{
		Model:         g.Name,
		Cuts:          sorted,
		BlockTimesMs:  times,
		OverheadRatio: g.SplitOverhead(sorted, cm),
		StdDevMs:      stdDev(times),
	}, nil
}

// UnsplitPlan returns the trivial plan that executes g as a single block.
func UnsplitPlan(g *Graph) *SplitPlan {
	return &SplitPlan{
		Model:        g.Name,
		BlockTimesMs: []float64{g.TotalTimeMs()},
	}
}

func stdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var v float64
	for _, x := range xs {
		d := x - mean
		v += d * d
	}
	return math.Sqrt(v / float64(len(xs)))
}

// CandidateCount returns C(M-1, m-1): the number of ways to split a model
// with M operators into m blocks (§2.2). The result saturates at
// math.MaxFloat64 rather than overflowing.
func CandidateCount(numOps, numBlocks int) float64 {
	if numBlocks < 1 || numOps < numBlocks {
		return 0
	}
	n := numOps - 1
	k := numBlocks - 1
	if k > n-k {
		k = n - k
	}
	result := 1.0
	for i := 0; i < k; i++ {
		result = result * float64(n-i) / float64(i+1)
		if math.IsInf(result, 1) {
			return math.MaxFloat64
		}
	}
	return math.Round(result)
}
