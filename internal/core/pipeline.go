// Package core orchestrates the SPLIT reproduction end to end: it builds
// evenly-sized split plans for the model zoo with the genetic algorithm
// (offline phase, §4.1 step 3), assembles the deployment catalog, replays
// Table 2 scenarios through every scheduling system (online phase), and
// regenerates each table and figure of the paper's evaluation. The cmd/
// tools, the root-level benchmarks, and EXPERIMENTS.md are all thin clients
// of this package.
package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"

	"split/internal/ga"
	"split/internal/metrics"
	"split/internal/model"
	"split/internal/policy"
	"split/internal/profiler"
	"split/internal/trace"
	"split/internal/workload"
	"split/internal/zoo"
)

// Pipeline is the offline configuration: which models to split into how
// many blocks, under which device cost model and GA settings.
type Pipeline struct {
	// Cost is the block-boundary cost model.
	Cost model.CostModel
	// BlockCounts maps model name to the number of blocks its plan should
	// have. Models not listed run unsplit. The defaults split only the two
	// long models, at the block counts Table 3 identifies as optimal
	// (ResNet50: 2, VGG19: 3).
	BlockCounts map[string]int
	// GASeed seeds every GA run for reproducibility.
	GASeed int64
	// GAConfig overrides the GA configuration builder; nil uses
	// ga.DefaultConfig.
	GAConfig func(numBlocks int) ga.Config
}

// DefaultPipeline returns the paper-faithful configuration.
func DefaultPipeline() *Pipeline {
	return &Pipeline{
		Cost:        model.DefaultCostModel(),
		BlockCounts: map[string]int{"resnet50": 2, "vgg19": 3},
		GASeed:      1,
	}
}

// gaConfig resolves the GA configuration for a block count.
func (p *Pipeline) gaConfig(numBlocks int) ga.Config {
	var cfg ga.Config
	if p.GAConfig != nil {
		cfg = p.GAConfig(numBlocks)
	} else {
		cfg = ga.DefaultConfig(numBlocks)
	}
	cfg.Seed = p.GASeed
	return cfg
}

// BuildPlans runs the offline splitting phase for every configured model
// and returns the plans plus each GA run's telemetry.
func (p *Pipeline) BuildPlans(graphs map[string]*model.Graph) (map[string]*model.SplitPlan, map[string]*ga.Result, error) {
	plans := make(map[string]*model.SplitPlan)
	results := make(map[string]*ga.Result)
	names := make([]string, 0, len(p.BlockCounts))
	for name := range p.BlockCounts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := p.BlockCounts[name]
		g, ok := graphs[name]
		if !ok {
			return nil, nil, fmt.Errorf("core: plan requested for unknown model %q", name)
		}
		prof := profiler.New(g, p.Cost)
		res, err := ga.Run(prof, p.gaConfig(m))
		if err != nil {
			return nil, nil, fmt.Errorf("core: GA on %s: %w", name, err)
		}
		plans[name] = prof.Plan(res.Best)
		results[name] = res
	}
	return plans, results, nil
}

// Deployment is the prepared online state: graphs, plans and the catalog
// every system schedules against.
type Deployment struct {
	Graphs  map[string]*model.Graph
	Plans   map[string]*model.SplitPlan
	GARuns  map[string]*ga.Result
	Catalog policy.Catalog
}

// Deploy loads the benchmark zoo, builds plans, and returns the deployment.
func (p *Pipeline) Deploy() (*Deployment, error) {
	graphs := zoo.LoadBenchmarkSet()
	plans, runs, err := p.BuildPlans(graphs)
	if err != nil {
		return nil, err
	}
	return &Deployment{
		Graphs:  graphs,
		Plans:   plans,
		GARuns:  runs,
		Catalog: policy.NewCatalog(graphs, plans),
	}, nil
}

// DefaultSystems returns the four systems compared in the evaluation, in
// the paper's presentation order.
func DefaultSystems() []policy.System {
	return []policy.System{
		policy.NewSplit(),
		policy.NewClockWork(),
		policy.NewPREMA(),
		policy.NewRTA(),
	}
}

// SystemByName constructs a system by its display name (case-sensitive).
func SystemByName(name string) (policy.System, error) {
	switch name {
	case "SPLIT":
		return policy.NewSplit(), nil
	case "SPLIT-partial":
		s := policy.NewSplit()
		s.PartialPreemption = true
		return s, nil
	case "ClockWork":
		return policy.NewClockWork(), nil
	case "PREMA":
		return policy.NewPREMA(), nil
	case "PREMA-NPU":
		return policy.NewPREMANPU(), nil
	case "RT-A":
		return policy.NewRTA(), nil
	case "Stream-Parallel":
		return policy.NewStreamParallel(), nil
	case "REEF":
		return policy.NewREEF(), nil
	}
	return nil, fmt.Errorf("core: unknown system %q", name)
}

// ScenarioRun is one (scenario, system) cell of the evaluation.
type ScenarioRun struct {
	Scenario workload.Scenario
	System   string
	Records  []policy.Record
	Summary  metrics.Summary
}

// RunScenario replays one Table 2 scenario through one system.
func (d *Deployment) RunScenario(sc workload.Scenario, sys policy.System, seed int64, tr *trace.Tracer) ScenarioRun {
	return d.replay(sc, scenarioTrace(sc, seed), sys, tr)
}

// RunAllScenarios replays every Table 2 scenario through every system with
// a shared seed, scenario outer and system inner. Each scenario's trace is
// generated once and handed to every system, which only reads it. The
// traces, then the runs, share the cores through each.
func (d *Deployment) RunAllScenarios(systems []policy.System, seed int64) []ScenarioRun {
	scenarios := workload.Table2()
	traces := make([][]workload.Arrival, len(scenarios))
	each(len(scenarios), func(i int) { traces[i] = scenarioTrace(scenarios[i], seed) })
	out := make([]ScenarioRun, len(scenarios)*len(systems))
	each(len(out), func(k int) {
		i := k / len(systems)
		out[k] = d.replay(scenarios[i], traces[i], systems[k%len(systems)], nil)
	})
	return out
}

// each calls fn(0), …, fn(n-1) on min(GOMAXPROCS, n) goroutines, which take
// indexes from a shared counter, and returns once every call has returned;
// with one worker it makes the calls inline, in order. The calls must be
// independent, each writing only its own slot of a result the caller sized,
// so the result is the same on any number of cores. A panic in fn is
// re-raised on the caller's goroutine, where it can be recovered.
func each(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	done := make(chan any, workers) // what each worker recovered: nil, or fn's panic
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- recover() }()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	var problem any
	for w := 0; w < workers; w++ {
		if p := <-done; p != nil {
			problem = p
		}
	}
	if problem != nil {
		panic(problem)
	}
}

// scenarioTrace generates scenario sc's arrivals over the benchmark models.
func scenarioTrace(sc workload.Scenario, seed int64) []workload.Arrival {
	return workload.MustGenerate(workload.ForScenario(sc, zoo.BenchmarkModels, seed))
}

// replay runs one system over a scenario's trace and summarizes the records.
func (d *Deployment) replay(sc workload.Scenario, arrivals []workload.Arrival, sys policy.System, tr *trace.Tracer) ScenarioRun {
	recs := sys.Run(arrivals, d.Catalog, tr)
	name := sys.Name()
	return ScenarioRun{Scenario: sc, System: name, Records: recs, Summary: metrics.Summarize(name, recs)}
}
