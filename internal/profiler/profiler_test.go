package profiler

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"split/internal/model"
	"split/internal/zoo"
)

func newTestProfiler() *Profiler {
	return New(zoo.MustLoad("vgg19"), model.DefaultCostModel())
}

func TestEvaluateMatchesGraphBlockTimes(t *testing.T) {
	g := zoo.MustLoad("resnet50")
	cm := model.DefaultCostModel()
	p := New(g, cm)
	for _, cuts := range [][]int{{1}, {60}, {121}, {30, 90}, {10, 50, 100}} {
		got := p.Evaluate(cuts).BlockTimesMs
		want := g.BlockTimesMs(cuts, cm)
		if len(got) != len(want) {
			t.Fatalf("cuts %v: %d blocks vs %d", cuts, len(got), len(want))
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Errorf("cuts %v block %d: %v vs %v", cuts, i, got[i], want[i])
			}
		}
	}
}

func TestEvaluateUnsplit(t *testing.T) {
	p := newTestProfiler()
	c := p.Evaluate(nil)
	if c.NumBlocks() != 1 || c.Overhead != 0 || c.StdDevMs != 0 {
		t.Errorf("unsplit candidate: %+v", c)
	}
	if math.Abs(c.BlockTimesMs[0]-p.TotalTimeMs()) > 1e-9 {
		t.Errorf("unsplit block time %v", c.BlockTimesMs[0])
	}
}

func TestEvaluateDoesNotAliasCuts(t *testing.T) {
	p := newTestProfiler()
	cuts := []int{10, 20}
	c := p.Evaluate(cuts)
	cuts[0] = 5
	if c.Cuts[0] != 10 {
		t.Error("candidate aliases caller's cut slice")
	}
}

func TestRangePct(t *testing.T) {
	c := Candidate{BlockTimesMs: []float64{10, 14, 12}}
	if got := c.RangePct(100); math.Abs(got-4) > 1e-12 {
		t.Errorf("RangePct = %v, want 4", got)
	}
	if got := (Candidate{}).RangePct(100); got != 0 {
		t.Errorf("empty RangePct = %v", got)
	}
}

func TestCutGridShapeAndValidity(t *testing.T) {
	p := newTestProfiler() // 44 ops
	grid := p.CutGrid(1)
	if len(grid.Overhead) != 43 {
		t.Fatalf("grid rows = %d, want 43", len(grid.Overhead))
	}
	for i := range grid.Valid {
		for j := range grid.Valid[i] {
			valid := grid.Valid[i][j]
			if valid != (j > i) {
				t.Fatalf("validity wrong at (%d,%d)", i, j)
			}
			if valid && (grid.Overhead[i][j] <= 0 || grid.StdDev[i][j] < 0) {
				t.Errorf("cell (%d,%d): overhead=%v std=%v", i, j, grid.Overhead[i][j], grid.StdDev[i][j])
			}
		}
	}
}

func TestCutGridStride(t *testing.T) {
	p := newTestProfiler()
	grid := p.CutGrid(5)
	if len(grid.Overhead) != 9 { // positions 1,6,...,41
		t.Errorf("strided rows = %d, want 9", len(grid.Overhead))
	}
	// Stride 0 behaves as stride 1.
	if got := len(p.CutGrid(0).Overhead); got != 43 {
		t.Errorf("stride-0 rows = %d", got)
	}
}

func TestSingleCutProfileObservations(t *testing.T) {
	// Observation 1: early cuts cost more than late cuts.
	for _, name := range []string{"vgg19", "resnet50"} {
		p := New(zoo.MustLoad(name), model.DefaultCostModel())
		over, std := p.SingleCutProfile()
		n := len(over)
		if n != p.Graph.NumOps()-1 {
			t.Fatalf("%s: %d profile points", name, n)
		}
		var front, back float64
		for _, v := range over[:n/3] {
			front += v
		}
		for _, v := range over[2*n/3:] {
			back += v
		}
		if front <= back {
			t.Errorf("%s: front overhead sum %.3f <= back %.3f (observation 1 violated)", name, front, back)
		}
		// Observation 2: edges are more uneven than the best interior point.
		best := math.Inf(1)
		for _, v := range std {
			if v < best {
				best = v
			}
		}
		if std[0] <= best || std[n-1] <= best {
			t.Errorf("%s: edge std (%.3f, %.3f) not worse than best %.3f (observation 2 violated)",
				name, std[0], std[n-1], best)
		}
	}
}

func TestExhaustiveFindsTrueOptimum(t *testing.T) {
	// Tiny synthetic graph with a known perfect 2-split.
	g := &model.Graph{Name: "tiny", Ops: []model.Op{
		{Name: "a", TimeMs: 4},
		{Name: "b", TimeMs: 4},
		{Name: "c", TimeMs: 4},
		{Name: "d", TimeMs: 4},
	}}
	p := New(g, model.CostModel{FixedLaunchMs: 0, BytesPerMs: 1e6})
	best, evals := p.Exhaustive(2, StdDevObjective)
	if evals != 3 {
		t.Errorf("evals = %d, want 3", evals)
	}
	if best.Cuts[0] != 2 || best.StdDevMs != 0 {
		t.Errorf("best = %+v, want cut at 2", best)
	}
}

func TestExhaustiveCountMatchesCandidateCount(t *testing.T) {
	g := zoo.MustLoad("vgg19")
	p := New(g, model.DefaultCostModel())
	for m := 2; m <= 3; m++ {
		_, evals := p.Exhaustive(m, StdDevObjective)
		want := int(model.CandidateCount(g.NumOps(), m))
		if evals != want {
			t.Errorf("m=%d: %d evals, want %d", m, evals, want)
		}
	}
}

func TestExhaustiveSingleBlock(t *testing.T) {
	p := newTestProfiler()
	best, evals := p.Exhaustive(1, StdDevObjective)
	if evals != 1 || best.NumBlocks() != 1 {
		t.Errorf("single block: evals=%d blocks=%d", evals, best.NumBlocks())
	}
}

func TestRandomCutsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := int(nRaw%100) + 10
		k := int(kRaw%8) + 1
		r := rand.New(rand.NewSource(seed))
		cuts := RandomCuts(n, k, r)
		if len(cuts) != k {
			return false
		}
		for i, c := range cuts {
			if c < 1 || c > n-1 {
				return false
			}
			if i > 0 && cuts[i] <= cuts[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestRandomCutsZeroAndPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := RandomCuts(10, 0, rng); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("k > n-1 did not panic")
		}
	}()
	RandomCuts(3, 5, rng)
}

func TestRandomSample(t *testing.T) {
	p := newTestProfiler()
	rng := rand.New(rand.NewSource(9))
	cands := p.RandomSample(3, 50, rng)
	if len(cands) != 50 {
		t.Fatalf("got %d candidates", len(cands))
	}
	for _, c := range cands {
		if c.NumBlocks() != 3 {
			t.Errorf("candidate with %d blocks", c.NumBlocks())
		}
		if c.Overhead <= 0 {
			t.Errorf("candidate with overhead %v", c.Overhead)
		}
	}
}

func TestPlanRoundTrip(t *testing.T) {
	p := newTestProfiler()
	c := p.Evaluate([]int{15, 30})
	plan := p.Plan(c)
	if plan.Model != "vgg19" || plan.NumBlocks() != 3 {
		t.Errorf("plan = %+v", plan)
	}
	if plan.StdDevMs != c.StdDevMs || plan.OverheadRatio != c.Overhead {
		t.Error("plan drops candidate metrics")
	}
}

func TestEvaluatePanicsOnBadCuts(t *testing.T) {
	p := newTestProfiler()
	defer func() {
		if recover() == nil {
			t.Error("Evaluate(bad cuts) did not panic")
		}
	}()
	p.Evaluate([]int{0})
}

// Property: overhead is the sum of the boundary costs of the chosen cuts,
// normalized — so adding a cut strictly increases overhead.
func TestOverheadMonotoneInCuts(t *testing.T) {
	p := newTestProfiler()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		cuts := RandomCuts(p.Graph.NumOps(), 2, rng)
		sub := p.Evaluate(cuts[:1])
		full := p.Evaluate(cuts)
		if full.Overhead <= sub.Overhead {
			t.Fatalf("overhead not monotone: %v vs %v (cuts %v)", full.Overhead, sub.Overhead, cuts)
		}
	}
}
