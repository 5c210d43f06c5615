// Package split is the public API of the SPLIT reproduction: a QoS-aware
// DNN inference system for a single shared GPU that improves the latency
// violation rate and jitter by splitting models into evenly-sized blocks
// with a genetic algorithm (offline) and preempting between blocks with a
// greedy response-ratio scheduler (online).
//
// Typical use:
//
//	g, _ := split.LoadModel("vgg19")
//	plan, _ := split.SplitModel(g, 3, split.DefaultCost())        // offline GA
//	dep, _ := split.Deploy()                                       // full benchmark set
//	runs := dep.RunAllScenarios(split.DefaultSystems(), 1)         // Table 2 sweep
//
// or start the serving path:
//
//	srv, _ := split.NewServerWith(catalog, split.WithDevices(2))
//	l, _ := net.Listen("tcp", "127.0.0.1:0")
//	srv.Start(l)
//	c, _ := split.Dial(srv.Addr())
//	reply, _ := c.Infer("yolov2")
//
// The package re-exports the library's building blocks; the heavy lifting
// lives in the internal packages (see DESIGN.md for the inventory).
package split

import (
	"split/internal/analytic"
	"split/internal/core"
	"split/internal/engine"
	"split/internal/ga"
	"split/internal/metrics"
	"split/internal/model"
	"split/internal/onnxlite"
	"split/internal/policy"
	"split/internal/profiler"
	"split/internal/queueing"
	"split/internal/serve"
	"split/internal/trace"
	"split/internal/workload"
	"split/internal/zoo"
)

// Core model types.
type (
	// Graph is an operator-level model graph.
	Graph = model.Graph
	// Op is one operator with its cost profile.
	Op = model.Op
	// SplitPlan is an offline splitting result deployable online.
	SplitPlan = model.SplitPlan
	// CostModel prices block-boundary overheads.
	CostModel = model.CostModel
	// RequestClass distinguishes Short from Long request models.
	RequestClass = model.RequestClass
)

// Scheduling and evaluation types.
type (
	// Record is the per-request outcome a system reports.
	Record = policy.Record
	// System is a scheduling system under test.
	System = policy.System
	// Catalog maps deployed model names to scheduler knowledge.
	Catalog = policy.Catalog
	// Scenario is a Table 2 workload scenario.
	Scenario = workload.Scenario
	// Arrival is one request arrival in a trace.
	Arrival = workload.Arrival
	// WorkloadConfig parameterizes trace generation.
	WorkloadConfig = workload.Config
	// Tracer records scheduling timelines.
	Tracer = trace.Tracer
	// Deployment is a prepared model+plan catalog with scenario helpers.
	Deployment = core.Deployment
	// Pipeline configures the offline splitting phase.
	Pipeline = core.Pipeline
	// GAConfig parameterizes the genetic algorithm.
	GAConfig = ga.Config
	// GAResult is a GA run outcome with per-generation telemetry.
	GAResult = ga.Result
	// Candidate is one profiled splitting option.
	Candidate = profiler.Candidate
	// QoSSummary is a compact per-run QoS digest.
	QoSSummary = metrics.Summary
)

// Serving types.
type (
	// Server is the real-time RPC serving path.
	Server = serve.Server
	// ServerConfig parameterizes a Server: Knobs plus what only a live
	// server has (catalog, time scale, observability).
	ServerConfig = serve.Config
	// Knobs are the scheduling knobs the simulator's SPLIT system and
	// ServerConfig both embed, so a tuned configuration carries between
	// them field for field.
	Knobs = engine.Knobs
	// ServerOption is one functional server option (WithDevices,
	// WithPlacement, WithTimeScale, ...).
	ServerOption = serve.Option
	// Client talks to a Server.
	Client = serve.Client
	// InferReply is a completed request's QoS outcome.
	InferReply = serve.InferReply
)

// Functional server options for NewServerWith; every other knob is a
// ServerConfig field.
var (
	// WithDevices sets the fleet size (one queue and hold timer per device).
	WithDevices = serve.WithDevices
	// WithPlacement selects the fleet placement policy: "round-robin",
	// "least-loaded" or "affinity".
	WithPlacement = serve.WithPlacement
	// WithTimeScale accelerates or slows the virtual clock.
	WithTimeScale = serve.WithTimeScale
	// WithObs attaches a live metrics registry.
	WithObs = serve.WithObs
	// WithSink attaches a live scheduling-event sink.
	WithSink = serve.WithSink
)

// Request classes.
const (
	Short = model.Short
	Long  = model.Long
)

// LoadModel builds the named zoo model (one of Models()).
func LoadModel(name string) (*Graph, error) { return zoo.Load(name) }

// Models returns every model name in the zoo.
func Models() []string { return zoo.Names() }

// BenchmarkModels returns the five evaluation models of Table 1.
func BenchmarkModels() []string { return append([]string(nil), zoo.BenchmarkModels...) }

// DefaultCost returns the calibrated Jetson-Nano-like boundary cost model.
func DefaultCost() CostModel { return model.DefaultCostModel() }

// SplitModel runs the evenly-sized genetic splitting of §3.3 and returns a
// deployable plan with numBlocks blocks.
func SplitModel(g *Graph, numBlocks int, cm CostModel) (*SplitPlan, error) {
	p := profiler.New(g, cm)
	res, err := ga.Run(p, ga.DefaultConfig(numBlocks))
	if err != nil {
		return nil, err
	}
	return p.Plan(res.Best), nil
}

// SplitModelGA is SplitModel with full control over the GA configuration;
// it also returns the run telemetry (Figure 5 series).
func SplitModelGA(g *Graph, cm CostModel, cfg GAConfig) (*SplitPlan, *GAResult, error) {
	p := profiler.New(g, cm)
	res, err := ga.Run(p, cfg)
	if err != nil {
		return nil, nil, err
	}
	return p.Plan(res.Best), res, nil
}

// DefaultGAConfig returns the paper-scale GA configuration for numBlocks.
func DefaultGAConfig(numBlocks int) GAConfig { return ga.DefaultConfig(numBlocks) }

// UnsplitPlan returns the trivial single-block plan for g.
func UnsplitPlan(g *Graph) *SplitPlan { return model.UnsplitPlan(g) }

// ExpectedWait evaluates Eq. 1 on a plan's block times: the expected
// waiting latency of a uniformly random arrival.
func ExpectedWait(blockTimesMs []float64) float64 {
	return analytic.ExpectedWait(blockTimesMs)
}

// NewCatalog assembles the scheduler catalog from graphs and plans (plans
// may be nil for unsplit deployment).
func NewCatalog(graphs map[string]*Graph, plans map[string]*SplitPlan) Catalog {
	return policy.NewCatalog(graphs, plans)
}

// Deploy builds the full paper deployment: the five benchmark models with
// GA split plans for the long models.
func Deploy() (*Deployment, error) { return core.DefaultPipeline().Deploy() }

// DefaultSystems returns the four evaluated systems (SPLIT, ClockWork,
// PREMA, RT-A) in the paper's order.
func DefaultSystems() []System { return core.DefaultSystems() }

// NewSystem constructs a system by display name: "SPLIT", "SPLIT-partial",
// "ClockWork", "PREMA", "PREMA-NPU", "RT-A", or "Stream-Parallel".
func NewSystem(name string) (System, error) { return core.SystemByName(name) }

// Scenarios returns the six Table 2 scenarios.
func Scenarios() []Scenario { return workload.Table2() }

// GenerateWorkload produces a seeded arrival trace.
func GenerateWorkload(cfg WorkloadConfig) ([]Arrival, error) { return workload.Generate(cfg) }

// ScenarioWorkload builds the standard per-task Poisson trace for a
// Table 2 scenario over the given models.
func ScenarioWorkload(sc Scenario, models []string, seed int64) ([]Arrival, error) {
	return workload.Generate(workload.ForScenario(sc, models, seed))
}

// NewTracer returns an event recorder to pass into System.Run.
func NewTracer() *Tracer { return trace.New() }

// Summarize digests one system's records into the headline QoS numbers.
func Summarize(system string, recs []Record) QoSSummary { return metrics.Summarize(system, recs) }

// ViolationRate returns the fraction of requests with response ratio > α.
func ViolationRate(recs []Record, alpha float64) float64 {
	return metrics.ViolationRate(recs, alpha)
}

// JitterByModel returns the per-model std deviation of end-to-end time.
func JitterByModel(recs []Record) map[string]float64 { return metrics.JitterByModel(recs) }

// SavePlan persists a split plan as JSON (the .onnx-block analogue).
func SavePlan(path string, p *SplitPlan) error { return onnxlite.SavePlan(path, p) }

// LoadPlan reads a persisted split plan.
func LoadPlan(path string) (*SplitPlan, error) { return onnxlite.LoadPlan(path) }

// SaveGraph persists a model graph as JSON.
func SaveGraph(path string, g *Graph) error { return onnxlite.SaveGraph(path, g) }

// LoadGraph reads a persisted model graph.
func LoadGraph(path string) (*Graph, error) { return onnxlite.LoadGraph(path) }

// NewServer builds the real-time RPC server from a filled-in config.
func NewServer(cfg ServerConfig) (*Server, error) { return serve.NewServer(cfg) }

// NewServerWith builds the real-time RPC server from functional options:
//
//	srv, err := split.NewServerWith(catalog,
//	    split.WithDevices(2), split.WithPlacement("least-loaded"),
//	    split.WithTimeScale(0.05))
func NewServerWith(catalog Catalog, opts ...ServerOption) (*Server, error) {
	return serve.New(catalog, opts...)
}

// Dial connects to a running server.
func Dial(addr string) (*Client, error) { return serve.Dial(addr) }

// Queueing-theory helpers (M/G/1 analysis of the workload).
type (
	// MG1 is the FCFS M/G/1 queue model validating the simulator.
	MG1 = queueing.MG1
	// ServiceMix is a discrete service-time distribution.
	ServiceMix = queueing.ServiceMix
	// MMPPConfig parameterizes the bursty workload extension.
	MMPPConfig = workload.MMPPConfig
)

// BenchmarkServiceMix returns the five-model uniform mix of the evaluation.
func BenchmarkServiceMix() ServiceMix {
	times := make([]float64, 0, len(zoo.BenchmarkModels))
	for _, name := range zoo.BenchmarkModels {
		times = append(times, zoo.Table1Latency[name])
	}
	return queueing.NewUniformMix(times)
}

// AnalyzeQueue builds the M/G/1 model for a mean inter-arrival time over
// the given mix: utilization, Pollaczek–Khinchine waits, violation-curve
// approximations.
func AnalyzeQueue(meanIntervalMs float64, mix ServiceMix) MG1 {
	return queueing.NewMG1FromInterval(meanIntervalMs, mix)
}

// GenerateMMPPWorkload produces a bursty two-state MMPP arrival trace.
func GenerateMMPPWorkload(cfg MMPPConfig) ([]Arrival, error) {
	return workload.GenerateMMPP(cfg)
}
