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
	"slices"
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

// individual is one member of a population: its cuts, a window on the
// generation's shared cut storage, and their Eq. 2 score.
type individual struct {
	cuts     []int
	stdDevMs float64
	overhead float64
	fitness  float64
}

// set makes ind a copy of from, its cuts copied into ind's own storage.
func (ind *individual) set(from *individual) {
	copy(ind.cuts, from.cuts)
	ind.stdDevMs, ind.overhead, ind.fitness = from.stdDevMs, from.overhead, from.fitness
}

// population is one generation, its individuals' cuts windows on one slice
// of k ints each. Run keeps two and breeds each generation into the other,
// so a generation allocates nothing.
type population []individual

func newPopulation(size, k int) population {
	p, cuts := make(population, size), make([]int, size*k)
	for i := range p {
		p[i].cuts = cuts[i*k : (i+1)*k : (i+1)*k]
	}
	return p
}

// Len, Less and Swap sort a population by descending fitness. The sort is
// sort.Sort, whose pdqsort makes the same comparisons and swaps as
// sort.Slice's: elites and unmutated clones tie on fitness all the time,
// and tournaments index the sorted population, so a different algorithm
// would change the plans. The pointer receiver keeps sort.Sort's interface
// from allocating a copy of the slice header per sort.
func (p *population) Len() int           { return len(*p) }
func (p *population) Less(i, j int) bool { return (*p)[i].fitness > (*p)[j].fitness }
func (p *population) Swap(i, j int)      { (*p)[i], (*p)[j] = (*p)[j], (*p)[i] }

// Run executes the genetic algorithm on p's graph. It scores candidates into
// one reused block-time buffer and breeds each generation into storage the
// run allocated up front; only the best individual becomes a
// profiler.Candidate.
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
	times := make([]float64, cfg.NumBlocks)
	score := func(ind *individual) {
		ind.stdDevMs, ind.overhead = p.Score(ind.cuts, times)
		ind.fitness = analytic.Fitness(ind.stdDevMs, total, ind.overhead, cfg.NumBlocks)
	}

	res := &Result{PerGeneration: make([]GenerationStats, 0, cfg.Generations)}
	pop, next := newPopulation(cfg.PopulationSize, k), newPopulation(cfg.PopulationSize, k)
	for i := range pop {
		ind := &pop[i]
		if cfg.GuidedInit {
			guidedCuts(ind.cuts, p, cfg.FrontGuardFrac, rng)
		} else {
			copy(ind.cuts, profiler.RandomCuts(n, k, rng))
		}
		score(ind)
	}
	res.Evaluations += len(pop)

	// best keeps cuts of its own: the population's storage is overwritten
	// by the next generation's breeding.
	best := individual{cuts: make([]int, k)}
	best.set(bestOf(pop))
	stall := 0
	for gen := 0; gen < cfg.Generations; gen++ {
		sort.Sort(&pop)
		if pop[0].fitness > best.fitness {
			best.set(&pop[0])
			stall = 0
		} else {
			stall++
		}
		res.PerGeneration = append(res.PerGeneration, GenerationStats{
			Gen:          gen,
			BestFitness:  best.fitness,
			BestStdDevMs: best.stdDevMs,
			BestOverhead: best.overhead,
			MeanFitness:  meanFitness(pop),
		})
		if stall >= cfg.StallLimit {
			res.Converged = true
			break
		}

		elites := min(int(cfg.ElitePct*float64(cfg.PopulationSize)), len(pop))
		for i := 0; i < elites; i++ {
			next[i].set(&pop[i])
		}
		// A score is O(m) over prefix sums, so a generation is scored as it
		// is bred, on one goroutine: fanning it out measured no speed-up.
		children := next[elites:]
		for i := range children {
			a := tournament(pop, cfg.TournamentK, rng)
			b := tournament(pop, cfg.TournamentK, rng)
			child := &children[i]
			if rng.Float64() < cfg.CrossoverProb {
				crossover(child.cuts, a.cuts, b.cuts, n, rng)
			} else {
				copy(child.cuts, a.cuts)
			}
			mutate(child.cuts, n, cfg, rng)
			score(child)
		}
		res.Evaluations += len(children)
		pop, next = next, pop
	}
	sort.Sort(&pop)
	if pop[0].fitness > best.fitness {
		best.set(&pop[0])
	}
	res.Best = p.Evaluate(best.cuts)
	res.Fitness = best.fitness
	return res, nil
}

// guidedCuts implements the §3.2 observation-guided initialization: target
// cut j near the time quantile j/m — "closer to the middle but slightly
// towards the beginning" — jittered, and clamped out of the expensive front
// region. It fills cuts, len(cuts) = m-1 of them, in increasing order.
func guidedCuts(cuts []int, p *profiler.Profiler, frontGuard float64, rng *rand.Rand) {
	n := p.Graph.NumOps()
	prefix := p.PrefixTimes()
	total := p.TotalTimeMs()
	minPos := int(frontGuard * float64(n))
	if minPos < 1 {
		minPos = 1
	}
	k := len(cuts)
	m := k + 1
	for j := 1; j <= k; j++ {
		used := cuts[:j-1]
		targetT := float64(j) / float64(m) * total
		// Find the first op whose cumulative time reaches the quantile.
		pos := sort.SearchFloat64s(prefix, targetT) + 1
		// Jitter: gaussian with width ~n/12, biased 0 mean.
		pos += int(rng.NormFloat64() * float64(n) / 12)
		pos = clamp(pos, minPos, n-1)
		for slices.Contains(used, pos) {
			pos = clamp(pos+1, minPos, n-1)
			if pos == n-1 && slices.Contains(used, pos) {
				pos = minPos + rng.Intn(n-1-minPos+1)
			}
		}
		cuts[j-1] = pos
	}
	sort.Ints(cuts)
}

// crossover is a one-point crossover over the sorted parent cut vectors into
// child, with duplicate repair. With a single cut point it averages the
// parents.
func crossover(child, a, b []int, n int, rng *rand.Rand) {
	k := len(a)
	if k == 1 {
		child[0] = clamp((a[0]+b[0])/2, 1, n-1)
		return
	}
	x := 1 + rng.Intn(k-1)
	copy(child, a[:x])
	copy(child[x:], b[x:])
	repair(child, n, rng)
}

// mutate shifts each cut with probability cfg.MutationProb by a gaussian
// step of width n/15, in place, then repairs duplicates.
func mutate(cuts []int, n int, cfg Config, rng *rand.Rand) {
	changed := false
	for i := range cuts {
		if rng.Float64() < cfg.MutationProb {
			step := int(rng.NormFloat64() * float64(n) / 15)
			if step == 0 {
				step = 1 - 2*rng.Intn(2) // ±1
			}
			cuts[i] = clamp(cuts[i]+step, 1, n-1)
			changed = true
		}
	}
	if changed {
		repair(cuts, n, rng)
	}
}

// repair sorts cuts and resolves duplicates/overflows by nudging to free
// positions, in place, keeping the vector a valid strictly increasing cut
// set. The positions already settled are cuts[:i], so a short scan of them
// is the set of used positions.
func repair(cuts []int, n int, rng *rand.Rand) {
	sort.Ints(cuts)
	for i, c := range cuts {
		c = clamp(c, 1, n-1)
		for slices.Contains(cuts[:i], c) {
			c++
			if c > n-1 {
				// Wrap to a random free slot.
				c = 1 + rng.Intn(n-1)
			}
		}
		cuts[i] = c
	}
	sort.Ints(cuts)
}

func tournament(pop []individual, k int, rng *rand.Rand) *individual {
	best := &pop[rng.Intn(len(pop))]
	for i := 1; i < k; i++ {
		c := &pop[rng.Intn(len(pop))]
		if c.fitness > best.fitness {
			best = c
		}
	}
	return best
}

func bestOf(pop []individual) *individual {
	best := &pop[0]
	for i := range pop[1:] {
		if pop[i+1].fitness > best.fitness {
			best = &pop[i+1]
		}
	}
	return best
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
