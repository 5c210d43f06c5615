package core

import (
	"fmt"
	"strings"

	"split/internal/metrics"
	"split/internal/policy"
	"split/internal/stats"
	"split/internal/workload"
	"split/internal/zoo"
)

// Multi-seed experiment aggregation: the paper reports single runs of 1000
// requests; averaging several seeded replications adds confidence intervals
// to the reproduction and separates real orderings from sampling noise.

// Fig6Aggregate is one system's violation curve in one scenario, aggregated
// over seeds.
type Fig6Aggregate struct {
	Scenario  workload.Scenario
	System    string
	Alphas    []float64
	MeanCurve []float64
	// StdCurve is the across-seed sample std deviation per α.
	StdCurve []float64
	Seeds    int
}

// perSeed replays the whole grid once per seed, 1 to seeds, and reduces
// every run as it lands: out[k][s-1] is reduce of RunAllScenarios' cell k at
// seed s. Only what reduce returns outlives a seed.
func perSeed[T any](d *Deployment, systems []policy.System, seeds int, reduce func([]policy.Record) T) [][]T {
	out := make([][]T, len(workload.Table2())*len(systems))
	for s := 1; s <= seeds; s++ {
		for k, run := range d.RunAllScenarios(systems, int64(s)) {
			out[k] = append(out[k], reduce(run.Records))
		}
	}
	return out
}

// Fig6MultiSeed replays every scenario × system over `seeds` independent
// workload seeds and aggregates the violation curves.
func Fig6MultiSeed(d *Deployment, systems []policy.System, seeds int) []Fig6Aggregate {
	alphas := metrics.DefaultAlphas()
	curves := perSeed(d, systems, seeds, func(recs []policy.Record) []float64 {
		return metrics.ViolationCurve(recs, alphas)
	})
	out := make([]Fig6Aggregate, len(curves))
	for k, cs := range curves {
		out[k] = Fig6Aggregate{Scenario: workload.Table2()[k/len(systems)], System: systems[k%len(systems)].Name(),
			Alphas: alphas, MeanCurve: make([]float64, len(alphas)), StdCurve: make([]float64, len(alphas)), Seeds: seeds}
		for i := range alphas {
			vs := make([]float64, len(cs))
			for s, c := range cs {
				vs[s] = c[i]
			}
			out[k].MeanCurve[i] = stats.Mean(vs)
			out[k].StdCurve[i] = stats.SampleStdDev(vs)
		}
	}
	return out
}

// RenderFig6Aggregate formats mean±std violation rates at α ∈ {2,4,8,16}.
func RenderFig6Aggregate(aggs []Fig6Aggregate) string {
	idx := map[float64]int{}
	if len(aggs) > 0 {
		for i, a := range aggs[0].Alphas {
			idx[a] = i
		}
	}
	show := []float64{2, 4, 8, 16}
	var b strings.Builder
	current := ""
	for _, a := range aggs {
		if a.Scenario.Name != current {
			current = a.Scenario.Name
			fmt.Fprintf(&b, "\n%s (λ=%.0fms, %d seeds): violation %% mean±std\n",
				a.Scenario.Name, a.Scenario.MeanIntervalMs, a.Seeds)
			fmt.Fprintf(&b, "%-16s", "system")
			for _, al := range show {
				fmt.Fprintf(&b, "%16s", fmt.Sprintf("α=%.0f", al))
			}
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%-16s", a.System)
		for _, al := range show {
			i := idx[al]
			fmt.Fprintf(&b, "%16s", fmt.Sprintf("%5.1f±%.1f", a.MeanCurve[i]*100, a.StdCurve[i]*100))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig7Aggregate is one system's per-model jitter in one scenario, aggregated
// over seeds.
type Fig7Aggregate struct {
	Scenario workload.Scenario
	System   string
	// MeanJitterMs and StdJitterMs map model name to across-seed stats.
	MeanJitterMs map[string]float64
	StdJitterMs  map[string]float64
	Seeds        int
}

// Fig7MultiSeed aggregates per-model jitter over seeds.
func Fig7MultiSeed(d *Deployment, systems []policy.System, seeds int) []Fig7Aggregate {
	jitters := perSeed(d, systems, seeds, metrics.JitterByModel)
	out := make([]Fig7Aggregate, len(jitters))
	for k, js := range jitters {
		samples := map[string][]float64{}
		for _, j := range js {
			for m, v := range j {
				samples[m] = append(samples[m], v)
			}
		}
		out[k] = Fig7Aggregate{Scenario: workload.Table2()[k/len(systems)], System: systems[k%len(systems)].Name(),
			MeanJitterMs: map[string]float64{}, StdJitterMs: map[string]float64{}, Seeds: seeds}
		for m, vs := range samples {
			out[k].MeanJitterMs[m] = stats.Mean(vs)
			out[k].StdJitterMs[m] = stats.SampleStdDev(vs)
		}
	}
	return out
}

// RenderFig7Aggregate formats the aggregated jitter table.
func RenderFig7Aggregate(aggs []Fig7Aggregate) string {
	var b strings.Builder
	current := ""
	for _, a := range aggs {
		if a.Scenario.Name != current {
			current = a.Scenario.Name
			fmt.Fprintf(&b, "\n%s (λ=%.0fms, %d seeds): jitter ms mean±std\n",
				a.Scenario.Name, a.Scenario.MeanIntervalMs, a.Seeds)
			fmt.Fprintf(&b, "%-16s", "system")
			for _, m := range zoo.BenchmarkModels {
				fmt.Fprintf(&b, "%16s", m)
			}
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%-16s", a.System)
		for _, m := range zoo.BenchmarkModels {
			fmt.Fprintf(&b, "%16s", fmt.Sprintf("%6.1f±%.1f", a.MeanJitterMs[m], a.StdJitterMs[m]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
