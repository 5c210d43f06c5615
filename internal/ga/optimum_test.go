package ga

import (
	"fmt"
	"testing"

	"split/internal/analytic"
	"split/internal/model"
	"split/internal/profiler"
	"split/internal/zoo"
)

// TestGAGapToOptimum runs the GA at its default settings, seeds 1 to 5,
// against the exhaustive optimum of the same Eq. 2 fitness, on every zoo
// model and block count m = 2, 3, 4 with at most 5×10⁵ candidates. The gap
// is how far the GA's fitness falls short of the optimum's, as a percentage
// of the optimum's magnitude; each row pins its worst measured gap as an
// upper bound. EXPERIMENTS.md's E4 carries the table.
func TestGAGapToOptimum(t *testing.T) {
	const maxCandidates = 5e5
	// maxGapPct is each row's worst gap over the five seeds, rounded up;
	// rows missing from it must match the optimum at every seed.
	maxGapPct := map[string]float64{
		"densenet/3":     0.0052,
		"efficientnet/4": 0.013,
		"gpt2/2":         0.012,
		"shufflenet/4":   0.013,
		"yolov2/4":       1.19,
	}
	rows := 0
	for _, name := range zoo.Names() {
		p := profiler.New(zoo.MustLoad(name), model.DefaultCostModel())
		total := p.TotalTimeMs()
		for m := 2; m <= 4; m++ {
			if model.CandidateCount(p.Graph.NumOps(), m) > maxCandidates {
				continue
			}
			rows++
			row := fmt.Sprintf("%s/%d", name, m)
			opt, _ := p.Exhaustive(m, func(c profiler.Candidate) float64 {
				return -analytic.Fitness(c.StdDevMs, total, c.Overhead, m)
			})
			optFit := analytic.Fitness(opt.StdDevMs, total, opt.Overhead, m)
			for seed := int64(1); seed <= 5; seed++ {
				cfg := DefaultConfig(m)
				cfg.Seed = seed
				res, err := Run(p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if gap := (optFit - res.Fitness) / -optFit * 100; gap > maxGapPct[row] {
					t.Errorf("%s seed %d: GA cuts %v are %.4g%% short of the optimum %v, bound %g%%",
						row, seed, res.Best.Cuts, gap, opt.Cuts, maxGapPct[row])
				}
			}
		}
	}
	if rows != 27 {
		t.Errorf("%d rows within %g candidates, the table has 27", rows, float64(maxCandidates))
	}
}
