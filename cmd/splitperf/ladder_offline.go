package main

import (
	"bytes"

	"split/internal/core"
	"split/internal/ga"
	"split/internal/model"
	"split/internal/onnxlite"
	"split/internal/profiler"
	"split/internal/zoo"
)

// capacityRequests is the trace length of one capacity-search probe on the
// ladder (the search's own default is 20000).
const capacityRequests = 5000

// offlineRungs measure what happens before a request is ever served:
// loading the zoo, profiling, the genetic search, plan files, deployment
// and capacity planning. They can only ever show up in setup_s.
var offlineRungs = []rung{
	{"zoo+profiler", rungProfile},
	{"ga", rungGA},
	{"onnxlite+core", rungDeploy},
}

func rungProfile(l *ladder) {
	l.set("zoo.load_all_ms", l.wall(3, func() { sinkI += len(zoo.LoadBenchmarkSet()) })*1e3)
	gpt2 := zoo.MustLoad("gpt2")
	var prof *profiler.Profiler
	l.set("profiler.new_ms.gpt2", l.wall(3, func() { prof = profiler.New(gpt2, model.DefaultCostModel()) })*1e3)
	cuts := []int{gpt2.NumOps() / 4, gpt2.NumOps() / 2, 3 * gpt2.NumOps() / 4}
	l.set("profiler.evaluate_ns", l.perOp(l.n(1024), nil, func(int) {
		sinkF += prof.Evaluate(cuts).StdDevMs
	}))
}

func rungGA(l *ladder) {
	for _, c := range []struct {
		model  string
		blocks int
		metric string
	}{{"vgg19", 3, "ga.run_ms.vgg19_m3"}, {"gpt2", 4, "ga.run_ms.gpt2_m4"}} {
		prof := profiler.New(zoo.MustLoad(c.model), model.DefaultCostModel())
		cfg := ga.DefaultConfig(c.blocks)
		cfg.Seed = l.e.seed
		var res *ga.Result
		l.set(c.metric, l.wall(3, func() {
			var err error
			if res, err = ga.Run(prof, cfg); err != nil {
				l.fail(err)
			}
		})*1e3)
		if c.model == "vgg19" && res != nil {
			l.set("ga.best_std_ms.vgg19_m3", res.Best.StdDevMs)
		}
	}
}

func rungDeploy(l *ladder) {
	plan := l.dep.Plans["vgg19"]
	var file bytes.Buffer
	l.set("onnxlite.plan_roundtrip_us", l.perOp(16, nil, func(int) {
		file.Reset()
		if err := onnxlite.EncodePlan(&file, plan); err != nil {
			l.fail(err)
		}
		if _, err := onnxlite.DecodePlan(&file); err != nil {
			l.fail(err)
		}
	})/1e3)
	l.set("core.deploy_ms", l.wall(3, func() {
		if _, err := core.DefaultPipeline().Deploy(); err != nil {
			l.fail(err)
		}
	})*1e3)
	var row core.CapacityRow
	l.set("core.capacity_search_ms", l.wall(1, func() {
		row = l.dep.CapacitySearch(core.CapacityConfig{
			Devices: 2, Placement: "least-loaded", Requests: l.n(capacityRequests), Seed: l.e.seed,
		})
	})*1e3)
	l.set("core.capacity_evals", float64(row.Evals))
}
