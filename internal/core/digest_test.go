package core

import (
	"sort"
	"testing"

	"split/internal/fixture"
)

// TestDeployPlanDigest pins the offline half of DefaultPipeline().Deploy
// bit for bit: every plan's cuts, block times, overhead and σ, and every GA
// run's best candidate, fitness, evaluation count and per-generation
// trajectory. A change to the zoo, the profiler or the GA that is meant to
// be a refactor must leave it where it is.
func TestDeployPlanDigest(t *testing.T) {
	const want = 0x0ae0c6873f7ad670
	dep := testDeploy(t)
	names := make([]string, 0, len(dep.Plans))
	for name := range dep.Plans {
		names = append(names, name)
	}
	sort.Strings(names)
	d := fixture.NewDigest()
	for _, name := range names {
		p := dep.Plans[name]
		d.Str(p.Model)
		d.U64(uint64(len(p.Cuts)))
		for _, c := range p.Cuts {
			d.U64(uint64(c))
		}
		for _, bt := range p.BlockTimesMs {
			d.F64(bt)
		}
		d.F64(p.OverheadRatio)
		d.F64(p.StdDevMs)
		r := dep.GARuns[name]
		d.F64(r.Fitness)
		d.U64(uint64(r.Evaluations))
		if r.Converged {
			d.U64(1)
		}
		for _, c := range r.Best.Cuts {
			d.U64(uint64(c))
		}
		for _, bt := range r.Best.BlockTimesMs {
			d.F64(bt)
		}
		d.F64(r.Best.StdDevMs)
		d.F64(r.Best.Overhead)
		for _, gs := range r.PerGeneration {
			d.U64(uint64(gs.Gen))
			d.F64(gs.BestFitness)
			d.F64(gs.BestStdDevMs)
			d.F64(gs.BestOverhead)
			d.F64(gs.MeanFitness)
		}
	}
	if got := d.Sum(); got != want {
		t.Errorf("Deploy plan digest %#016x, want %#016x", got, uint64(want))
	}
}

// TestDeployAllocs bounds what one Deploy allocates: the zoo, the profiler
// and the GA allocate per model, not per operator or per candidate. The
// parent of that change allocated 12,173 times per Deploy; the bound is a
// tenth of it, and the change itself measured 95.
func TestDeployAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := DefaultPipeline().Deploy(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1217 {
		t.Errorf("Deploy allocates %.0f times, want at most 1217", allocs)
	}
}
