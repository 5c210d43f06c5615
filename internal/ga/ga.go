// Package ga implements the paper's evenly-sized model splitting search
// (§3.3): a genetic algorithm over cut-point vectors whose fitness (Eq. 2)
// rewards low block-time standard deviation and low splitting overhead, with
// initialization and mutation guided by the §2.4 observations — avoid cuts
// near the front of the model (expensive intermediate tensors) and seed cuts
// near the even time quantiles, slightly toward the beginning.
package ga

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"split/internal/analytic"
	"split/internal/profiler"
)

// Config parameterizes one GA run. The zero value is not runnable; use
// DefaultConfig and override as needed.
type Config struct {
	// NumBlocks m: the model is split at m-1 cut points.
	NumBlocks int
	// PopulationSize is the number of candidates per generation.
	PopulationSize int
	// Generations caps the number of generations.
	Generations int
	// CrossoverProb is the probability a selected pair is crossed over
	// rather than copied.
	CrossoverProb float64
	// MutationProb is the per-cut-point mutation probability.
	MutationProb float64
	// ElitePct is the fraction of the best individuals carried over
	// unchanged to the next generation.
	ElitePct float64
	// StallLimit stops the search early when the best fitness has not
	// improved for this many consecutive generations ("the result remains
	// unchanged for a certain number of iterations").
	StallLimit int
	// TournamentK is the tournament selection size.
	TournamentK int
	// GuidedInit enables observation-guided initialization (§3.2). When
	// false the initial population is uniform random (ablation baseline).
	GuidedInit bool
	// FrontGuardFrac keeps cuts out of the first fraction of operators,
	// implementing the "splitting at early operators incurs a larger
	// overhead" observation. Applied only when GuidedInit is true.
	FrontGuardFrac float64
	// Seed seeds the run's private RNG, making results reproducible.
	Seed int64
}

// DefaultConfig returns the configuration used in the paper-scale
// experiments: population 80, up to 30 generations, crossover 0.8,
// mutation 0.25, 10% elites, stall stop after 8 generations. With these
// settings every (model, block-count) pair of the evaluation reaches its
// final optimum within 15 generations, the Figure 5 behaviour.
func DefaultConfig(numBlocks int) Config {
	return Config{
		NumBlocks:      numBlocks,
		PopulationSize: 80,
		Generations:    30,
		CrossoverProb:  0.8,
		MutationProb:   0.25,
		ElitePct:       0.10,
		StallLimit:     8,
		TournamentK:    3,
		GuidedInit:     true,
		FrontGuardFrac: 0.05,
		Seed:           1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.NumBlocks < 2:
		return errors.New("ga: NumBlocks must be >= 2")
	case c.PopulationSize < 2:
		return errors.New("ga: PopulationSize must be >= 2")
	case c.Generations < 1:
		return errors.New("ga: Generations must be >= 1")
	case c.CrossoverProb < 0 || c.CrossoverProb > 1:
		return errors.New("ga: CrossoverProb must be in [0,1]")
	case c.MutationProb < 0 || c.MutationProb > 1:
		return errors.New("ga: MutationProb must be in [0,1]")
	case c.ElitePct < 0 || c.ElitePct > 1:
		return errors.New("ga: ElitePct must be in [0,1]")
	case c.TournamentK < 1:
		return errors.New("ga: TournamentK must be >= 1")
	}
	return nil
}

// GenerationStats records the telemetry plotted in Figure 5: per generation,
// the best individual's std deviation and overhead.
type GenerationStats struct {
	Gen          int
	BestFitness  float64
	BestStdDevMs float64
	BestOverhead float64
	MeanFitness  float64
}

// Result is the outcome of a GA run.
type Result struct {
	// Best is the best candidate found across all generations.
	Best profiler.Candidate
	// Fitness is Eq. 2 evaluated on Best.
	Fitness float64
	// PerGeneration holds Figure 5 telemetry, one entry per generation run.
	PerGeneration []GenerationStats
	// Evaluations counts profiler evaluations performed.
	Evaluations int
	// Converged is true when the run stopped on the stall criterion rather
	// than the generation cap.
	Converged bool
}

type individual struct {
	cuts    []int
	cand    profiler.Candidate
	fitness float64
}

// Run executes the genetic algorithm on p's graph.
func Run(p *profiler.Profiler, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := p.Graph.NumOps()
	k := cfg.NumBlocks - 1
	if k > n-1 {
		return nil, fmt.Errorf("ga: cannot place %d cuts in a %d-op model", k, n)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	total := p.TotalTimeMs()

	evaluate := func(cuts []int) individual {
		c := p.Evaluate(cuts)
		return individual{
			cuts:    cuts,
			cand:    c,
			fitness: analytic.Fitness(c.StdDevMs, total, c.Overhead, cfg.NumBlocks),
		}
	}
	// evaluateAll scores a batch of cut vectors. A single evaluation is
	// O(m) over precomputed prefix sums — sub-microsecond — so fanning a
	// generation across goroutines measured no speed-up and is not done.
	evaluateAll := func(cutSets [][]int) []individual {
		out := make([]individual, len(cutSets))
		for i, cuts := range cutSets {
			out[i] = evaluate(cuts)
		}
		return out
	}

	res := &Result{}
	initial := make([][]int, cfg.PopulationSize)
	for i := range initial {
		if cfg.GuidedInit {
			initial[i] = guidedCuts(p, k, cfg.FrontGuardFrac, rng)
		} else {
			initial[i] = profiler.RandomCuts(n, k, rng)
		}
	}
	pop := evaluateAll(initial)
	res.Evaluations += len(pop)

	best := bestOf(pop)
	stall := 0
	for gen := 0; gen < cfg.Generations; gen++ {
		sortByFitness(pop)
		if pop[0].fitness > best.fitness {
			best = pop[0]
			stall = 0
		} else {
			stall++
		}
		res.PerGeneration = append(res.PerGeneration, GenerationStats{
			Gen:          gen,
			BestFitness:  best.fitness,
			BestStdDevMs: best.cand.StdDevMs,
			BestOverhead: best.cand.Overhead,
			MeanFitness:  meanFitness(pop),
		})
		if stall >= cfg.StallLimit {
			res.Converged = true
			break
		}

		elites := int(cfg.ElitePct * float64(cfg.PopulationSize))
		if elites > len(pop) {
			elites = len(pop)
		}
		next := make([]individual, 0, cfg.PopulationSize)
		next = append(next, pop[:elites]...)
		// Breed all children first (sequential RNG), then score the batch.
		children := make([][]int, 0, cfg.PopulationSize-elites)
		for len(children) < cfg.PopulationSize-elites {
			a := tournament(pop, cfg.TournamentK, rng)
			b := tournament(pop, cfg.TournamentK, rng)
			var child []int
			if rng.Float64() < cfg.CrossoverProb {
				child = crossover(a.cuts, b.cuts, n, rng)
			} else {
				child = append([]int(nil), a.cuts...)
			}
			children = append(children, mutate(child, n, cfg, rng))
		}
		next = append(next, evaluateAll(children)...)
		res.Evaluations += len(children)
		pop = next
	}
	sortByFitness(pop)
	if pop[0].fitness > best.fitness {
		best = pop[0]
	}
	res.Best = best.cand
	res.Fitness = best.fitness
	return res, nil
}

// guidedCuts implements the §3.2 observation-guided initialization: target
// cut j near the time quantile j/m — "closer to the middle but slightly
// towards the beginning" — jittered, and clamped out of the expensive front
// region.
func guidedCuts(p *profiler.Profiler, k int, frontGuard float64, rng *rand.Rand) []int {
	g := p.Graph
	n := g.NumOps()
	prefix := g.PrefixTimes()
	total := p.TotalTimeMs()
	minPos := int(frontGuard * float64(n))
	if minPos < 1 {
		minPos = 1
	}
	m := k + 1
	cuts := make([]int, 0, k)
	used := make(map[int]bool, k)
	for j := 1; j <= k; j++ {
		targetT := float64(j) / float64(m) * total
		// Find the first op whose cumulative time reaches the quantile.
		pos := sort.SearchFloat64s(prefix, targetT) + 1
		// Jitter: gaussian with width ~n/12, biased 0 mean.
		pos += int(rng.NormFloat64() * float64(n) / 12)
		pos = clamp(pos, minPos, n-1)
		for used[pos] {
			pos = clamp(pos+1, minPos, n-1)
			if pos == n-1 && used[pos] {
				pos = minPos + rng.Intn(n-1-minPos+1)
			}
		}
		used[pos] = true
		cuts = append(cuts, pos)
	}
	sort.Ints(cuts)
	return cuts
}

// crossover is a one-point crossover over the sorted cut vectors with
// duplicate repair. With a single cut point it averages the parents.
func crossover(a, b []int, n int, rng *rand.Rand) []int {
	k := len(a)
	if k == 1 {
		return []int{clamp((a[0]+b[0])/2, 1, n-1)}
	}
	x := 1 + rng.Intn(k-1)
	child := make([]int, 0, k)
	child = append(child, a[:x]...)
	child = append(child, b[x:]...)
	return repair(child, n, rng)
}

// mutate shifts each cut with probability cfg.MutationProb by a gaussian
// step of width n/15, then repairs duplicates.
func mutate(cuts []int, n int, cfg Config, rng *rand.Rand) []int {
	out := append([]int(nil), cuts...)
	changed := false
	for i := range out {
		if rng.Float64() < cfg.MutationProb {
			step := int(rng.NormFloat64() * float64(n) / 15)
			if step == 0 {
				step = 1 - 2*rng.Intn(2) // ±1
			}
			out[i] = clamp(out[i]+step, 1, n-1)
			changed = true
		}
	}
	if changed {
		return repair(out, n, rng)
	}
	return out
}

// repair sorts cuts and resolves duplicates/overflows by nudging to free
// positions, keeping the vector a valid strictly increasing cut set.
func repair(cuts []int, n int, rng *rand.Rand) []int {
	sort.Ints(cuts)
	used := make(map[int]bool, len(cuts))
	for i, c := range cuts {
		c = clamp(c, 1, n-1)
		for used[c] {
			c++
			if c > n-1 {
				// Wrap to a random free slot.
				c = 1 + rng.Intn(n-1)
			}
		}
		used[c] = true
		cuts[i] = c
	}
	sort.Ints(cuts)
	return cuts
}

func tournament(pop []individual, k int, rng *rand.Rand) individual {
	best := pop[rng.Intn(len(pop))]
	for i := 1; i < k; i++ {
		c := pop[rng.Intn(len(pop))]
		if c.fitness > best.fitness {
			best = c
		}
	}
	return best
}

func bestOf(pop []individual) individual {
	best := pop[0]
	for _, ind := range pop[1:] {
		if ind.fitness > best.fitness {
			best = ind
		}
	}
	return best
}

func sortByFitness(pop []individual) {
	sort.Slice(pop, func(i, j int) bool { return pop[i].fitness > pop[j].fitness })
}

func meanFitness(pop []individual) float64 {
	var s float64
	for _, ind := range pop {
		s += ind.fitness
	}
	return s / float64(len(pop))
}

func clamp(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// RandomSearch is the ablation baseline: it profiles `evals` uniform random
// candidates and returns the best by Eq. 2 fitness.
func RandomSearch(p *profiler.Profiler, numBlocks, evals int, seed int64) (profiler.Candidate, float64) {
	rng := rand.New(rand.NewSource(seed))
	total := p.TotalTimeMs()
	var best profiler.Candidate
	bestFit := 0.0
	for i := 0; i < evals; i++ {
		cuts := profiler.RandomCuts(p.Graph.NumOps(), numBlocks-1, rng)
		c := p.Evaluate(cuts)
		f := analytic.Fitness(c.StdDevMs, total, c.Overhead, numBlocks)
		if i == 0 || f > bestFit {
			best, bestFit = c, f
		}
	}
	return best, bestFit
}
