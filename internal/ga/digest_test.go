package ga

import (
	"testing"

	"split/internal/analytic"
	"split/internal/fixture"
	"split/internal/model"
	"split/internal/profiler"
	"split/internal/zoo"
)

// runDigest folds a GA result into one value: best cuts, block times, σ,
// overhead and fitness, the evaluation count, the stop reason and the whole
// per-generation trajectory.
func runDigest(d *fixture.Digest, res *Result) {
	for _, c := range res.Best.Cuts {
		d.U64(uint64(c))
	}
	for _, bt := range res.Best.BlockTimesMs {
		d.F64(bt)
	}
	d.F64(res.Best.StdDevMs)
	d.F64(res.Best.Overhead)
	d.F64(res.Fitness)
	d.U64(uint64(res.Evaluations))
	if res.Converged {
		d.U64(1)
	}
	for _, gs := range res.PerGeneration {
		d.U64(uint64(gs.Gen))
		d.F64(gs.BestFitness)
		d.F64(gs.BestStdDevMs)
		d.F64(gs.BestOverhead)
		d.F64(gs.MeanFitness)
	}
}

// TestGARunDigests pins ga.Run, HillClimb and Anneal bit for bit on every
// zoo model at m = 2, 3, 4 under their default settings: the trajectories
// depend on every fitness value, on the order the population sorts into and
// on every draw the breeding makes, so a faster GA that is not the same GA
// moves them.
func TestGARunDigests(t *testing.T) {
	want := map[string]uint64{
		"alexnet":      0x8a626d09513ebf03,
		"densenet":     0x0ca63cabe4422d9e,
		"efficientnet": 0xafcc894295c66fad,
		"googlenet":    0x247f88b1cf0652db,
		"gpt2":         0x970d70a7ce21c51d,
		"resnet50":     0xdf5336aca6ef5a05,
		"shufflenet":   0x6d5286014c458815,
		"squeezenet":   0x57f3a5d69fbf4661,
		"vgg19":        0x816d6074f530d722,
		"yolov2":       0x09cfd34842da6ebc,
	}
	for _, name := range zoo.Names() {
		p := profiler.New(zoo.MustLoad(name), model.DefaultCostModel())
		d := fixture.NewDigest()
		for m := 2; m <= 4; m++ {
			res, err := Run(p, DefaultConfig(m))
			if err != nil {
				t.Fatal(err)
			}
			runDigest(d, res)
			for _, sr := range []SearchResult{HillClimb(p, m, 400, 1), Anneal(p, m, AnnealConfig{MaxEvals: 400, T0: 0.05, Cooling: 0.99, Seed: 1})} {
				for _, c := range sr.Best.Cuts {
					d.U64(uint64(c))
				}
				d.F64(sr.Fitness)
				d.U64(uint64(sr.Evaluations))
				for _, f := range sr.Trajectory {
					d.F64(f)
				}
			}
		}
		if got := d.Sum(); got != want[name] {
			t.Errorf("%s: GA digest %#016x, want %#016x", name, got, want[name])
		}
	}
}

// TestScoringAllocatesNothing checks the GA's scoring path, Profiler.Score
// into a reused buffer and the Eq. 2 fitness, allocates nothing.
func TestScoringAllocatesNothing(t *testing.T) {
	p := profiler.New(zoo.MustLoad("gpt2"), model.DefaultCostModel())
	cuts := []int{600, 1200, 1900}
	times := make([]float64, len(cuts)+1)
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		sd, overhead := p.Score(cuts, times)
		sink += analytic.Fitness(sd, p.TotalTimeMs(), overhead, len(times))
	})
	if allocs != 0 {
		t.Errorf("scoring a candidate allocates %.0f times, want 0", allocs)
	}
	if sink == 0 {
		t.Error("no fitness")
	}
}

// TestRunAllocatesPerRunNotPerGeneration runs the GA for 10 and for 40
// generations, the stall limit out of reach, and wants the same number of
// allocations: breeding, scoring and sorting a generation allocate nothing.
func TestRunAllocatesPerRunNotPerGeneration(t *testing.T) {
	p := vggProfiler()
	allocsAt := func(gens int) float64 {
		cfg := DefaultConfig(3)
		cfg.Generations = gens
		cfg.StallLimit = gens + 1
		return testing.AllocsPerRun(5, func() {
			if res, err := Run(p, cfg); err != nil || len(res.PerGeneration) != gens {
				t.Fatalf("run: %v", err)
			}
		})
	}
	if a10, a40 := allocsAt(10), allocsAt(40); a10 != a40 {
		t.Errorf("Run allocates %.0f times at 10 generations and %.0f at 40", a10, a40)
	}
}
