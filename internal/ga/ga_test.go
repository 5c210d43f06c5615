package ga

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"split/internal/analytic"
	"split/internal/model"
	"split/internal/profiler"
	"split/internal/zoo"
)

func vggProfiler() *profiler.Profiler {
	return profiler.New(zoo.MustLoad("vgg19"), model.DefaultCostModel())
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(3)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bads := []func(*Config){
		func(c *Config) { c.NumBlocks = 1 },
		func(c *Config) { c.PopulationSize = 1 },
		func(c *Config) { c.Generations = 0 },
		func(c *Config) { c.CrossoverProb = 1.5 },
		func(c *Config) { c.CrossoverProb = -0.1 },
		func(c *Config) { c.MutationProb = 2 },
		func(c *Config) { c.ElitePct = -1 },
		func(c *Config) { c.TournamentK = 0 },
	}
	for i, mod := range bads {
		c := DefaultConfig(3)
		mod(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	p := vggProfiler()
	cfg := DefaultConfig(3)
	cfg.PopulationSize = 0
	if _, err := Run(p, cfg); err == nil {
		t.Error("invalid config accepted by Run")
	}
}

func TestRunRejectsTooManyCuts(t *testing.T) {
	g := &model.Graph{Name: "tiny", Ops: []model.Op{
		{Name: "a", TimeMs: 1}, {Name: "b", TimeMs: 1},
	}}
	p := profiler.New(g, model.DefaultCostModel())
	if _, err := Run(p, DefaultConfig(5)); err == nil {
		t.Error("5 blocks of a 2-op model accepted")
	}
}

func TestGAMatchesExhaustiveForTwoBlocks(t *testing.T) {
	for _, name := range []string{"vgg19", "resnet50"} {
		g := zoo.MustLoad(name)
		p := profiler.New(g, model.DefaultCostModel())
		total := p.TotalTimeMs()
		best, _ := p.Exhaustive(2, func(c profiler.Candidate) float64 {
			return -analytic.Fitness(c.StdDevMs, total, c.Overhead, 2)
		})
		res, err := Run(p, DefaultConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		wantFit := analytic.Fitness(best.StdDevMs, total, best.Overhead, 2)
		if res.Fitness < wantFit-1e-6 {
			t.Errorf("%s: GA fitness %v below exhaustive optimum %v (cuts %v vs %v)",
				name, res.Fitness, wantFit, res.Best.Cuts, best.Cuts)
		}
	}
}

func TestGAProducesValidCuts(t *testing.T) {
	p := vggProfiler()
	for m := 2; m <= 5; m++ {
		res, err := Run(p, DefaultConfig(m))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Best.Cuts) != m-1 {
			t.Fatalf("m=%d: %d cuts", m, len(res.Best.Cuts))
		}
		if err := p.Graph.ValidateCuts(res.Best.Cuts); err != nil {
			t.Errorf("m=%d: invalid cuts %v: %v", m, res.Best.Cuts, err)
		}
	}
}

func TestGADeterministicBySeed(t *testing.T) {
	p := vggProfiler()
	cfg := DefaultConfig(3)
	a, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fitness != b.Fitness || len(a.PerGeneration) != len(b.PerGeneration) {
		t.Error("same seed produced different runs")
	}
	cfg.Seed = 999
	c, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Different seeds explore differently (cut positions may coincide, but
	// the trajectories should differ).
	same := len(a.PerGeneration) == len(c.PerGeneration)
	if same {
		for i := range a.PerGeneration {
			if a.PerGeneration[i].MeanFitness != c.PerGeneration[i].MeanFitness {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical trajectories")
	}
}

func TestGABestFitnessNonDecreasingAcrossGenerations(t *testing.T) {
	p := vggProfiler()
	cfg := DefaultConfig(4)
	cfg.StallLimit = cfg.Generations
	res, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerGeneration) < 5 {
		t.Fatalf("only %d generations recorded", len(res.PerGeneration))
	}
	for i := 1; i < len(res.PerGeneration); i++ {
		if res.PerGeneration[i].BestFitness < res.PerGeneration[i-1].BestFitness-1e-12 {
			t.Errorf("best fitness regressed at generation %d", i)
		}
	}
}

func TestGAStallStopsEarly(t *testing.T) {
	p := vggProfiler()
	cfg := DefaultConfig(2)
	cfg.Generations = 100
	cfg.StallLimit = 3
	res, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("run did not report convergence")
	}
	if len(res.PerGeneration) >= 100 {
		t.Errorf("stall did not stop early: %d generations", len(res.PerGeneration))
	}
}

func TestGAEvaluationAccounting(t *testing.T) {
	p := vggProfiler()
	cfg := DefaultConfig(3)
	cfg.StallLimit = cfg.Generations
	res, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	elites := int(cfg.ElitePct * float64(cfg.PopulationSize))
	want := cfg.PopulationSize + (len(res.PerGeneration)-1)*(cfg.PopulationSize-elites)
	// The final generation breeds once more after its stats entry.
	if res.Evaluations != want+(cfg.PopulationSize-elites) {
		t.Logf("evaluations=%d, generations=%d (informational)", res.Evaluations, len(res.PerGeneration))
	}
	if res.Evaluations < cfg.PopulationSize {
		t.Errorf("evaluations %d below initial population", res.Evaluations)
	}
}

func TestGuidedInitAvoidsFront(t *testing.T) {
	p := profiler.New(zoo.MustLoad("resnet50"), model.DefaultCostModel())
	rng := rand.New(rand.NewSource(5))
	n := p.Graph.NumOps()
	guard := int(0.05 * float64(n))
	for trial := 0; trial < 200; trial++ {
		cuts := make([]int, 3)
		guidedCuts(cuts, p, 0.05, rng)
		for i, c := range cuts {
			if c < guard || c > n-1 {
				t.Fatalf("guided cut %d out of range: %d", i, c)
			}
			if i > 0 && cuts[i] <= cuts[i-1] {
				t.Fatalf("guided cuts not increasing: %v", cuts)
			}
		}
	}
}

func TestGuidedBeatsUniformOnAverageInitialFitness(t *testing.T) {
	// The guided initializer should seed better populations for the long
	// models — that's its whole point (§3.2).
	p := profiler.New(zoo.MustLoad("vgg19"), model.DefaultCostModel())
	total := p.TotalTimeMs()
	rng := rand.New(rand.NewSource(6))
	var guided, uniform float64
	const trials = 300
	for i := 0; i < trials; i++ {
		gc := make([]int, 2)
		guidedCuts(gc, p, 0.05, rng)
		c := p.Evaluate(gc)
		guided += analytic.Fitness(c.StdDevMs, total, c.Overhead, 3)
		uc := profiler.RandomCuts(p.Graph.NumOps(), 2, rng)
		c = p.Evaluate(uc)
		uniform += analytic.Fitness(c.StdDevMs, total, c.Overhead, 3)
	}
	if guided <= uniform {
		t.Errorf("guided init mean fitness %.4f <= uniform %.4f", guided/trials, uniform/trials)
	}
}

func TestRepairProducesValidCuts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(raw []int16, nRaw uint8) bool {
		n := int(nRaw%60) + 10
		k := len(raw)%6 + 1
		cuts := make([]int, k)
		for i := range cuts {
			v := 0
			if i < len(raw) {
				v = int(raw[i])
			}
			cuts[i] = v
		}
		repair(cuts, n, rng)
		out := cuts
		for i, c := range out {
			if c < 1 || c > n-1 {
				return false
			}
			if i > 0 && out[i] <= out[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestCrossoverSingleCutAverages(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	child := make([]int, 1)
	crossover(child, []int{10}, []int{20}, 44, rng)
	if child[0] != 15 {
		t.Errorf("single-cut crossover = %v, want [15]", child)
	}
}

func TestCrossoverPreservesLength(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		a := profiler.RandomCuts(44, 3, rng)
		b := profiler.RandomCuts(44, 3, rng)
		child := make([]int, 3)
		crossover(child, a, b, 44, rng)
		for i := 1; i < len(child); i++ {
			if child[i] <= child[i-1] {
				t.Fatalf("child cuts not increasing: %v", child)
			}
		}
	}
}

func TestMutateRespectsProbabilityZero(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cfg := DefaultConfig(4)
	cfg.MutationProb = 0
	cuts := []int{5, 10, 15}
	out := append([]int(nil), cuts...)
	mutate(out, 44, cfg, rng)
	for i := range cuts {
		if out[i] != cuts[i] {
			t.Errorf("mutation with p=0 changed cuts: %v", out)
		}
	}
}

func TestMutateAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := DefaultConfig(4)
	cfg.MutationProb = 1
	for trial := 0; trial < 200; trial++ {
		cuts := profiler.RandomCuts(44, 3, rng)
		out := cuts
		mutate(out, 44, cfg, rng)
		for i, c := range out {
			if c < 1 || c > 43 {
				t.Fatalf("mutated cut out of range: %v", out)
			}
			if i > 0 && out[i] <= out[i-1] {
				t.Fatalf("mutated cuts not increasing: %v", out)
			}
		}
	}
}

func TestRandomSearchReturnsBestOfBudget(t *testing.T) {
	p := vggProfiler()
	c1, f1 := RandomSearch(p, 3, 10, 1)
	c2, f2 := RandomSearch(p, 3, 500, 1)
	if len(c1.Cuts) != 2 || len(c2.Cuts) != 2 {
		t.Fatal("wrong cut counts")
	}
	if f2 < f1 {
		t.Errorf("larger budget found worse candidate: %v vs %v", f2, f1)
	}
}

func TestFig5ShapeGAConvergesWithin15Generations(t *testing.T) {
	// Paper: "nearly all models obtain optimal options within 12
	// generations; after 15 all models find the optimal options".
	for _, name := range []string{"resnet50", "vgg19"} {
		p := profiler.New(zoo.MustLoad(name), model.DefaultCostModel())
		for m := 2; m <= 4; m++ {
			cfg := DefaultConfig(m)
			cfg.StallLimit = cfg.Generations
			res, err := Run(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			reached := -1
			for i, gs := range res.PerGeneration {
				if math.Abs(gs.BestFitness-res.Fitness) < 1e-9 {
					reached = i
					break
				}
			}
			if reached < 0 || reached > 15 {
				t.Errorf("%s m=%d: best fitness first reached at generation %d", name, m, reached)
			}
		}
	}
}
