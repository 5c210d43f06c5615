package ga

import (
	"math"
	"math/rand"

	"split/internal/analytic"
	"split/internal/profiler"
)

// This file provides the alternative search strategies the paper's §2.3
// weighs against the genetic algorithm ("heuristic methods or reinforcement
// learning approaches ... substantial search overhead"). They share the GA's
// Eq. 2 objective and serve as ablation baselines: hill climbing (greedy
// local search), and simulated annealing (randomized local search with a
// cooling schedule).

// SearchResult is the outcome of a non-GA search run.
type SearchResult struct {
	Best        profiler.Candidate
	Fitness     float64
	Evaluations int
	// Trajectory records the best fitness after each accepted move.
	Trajectory []float64
}

// HillClimb runs steepest-ascent hill climbing from an observation-guided
// start: at each step it tries shifting every cut by ±1 and ±n/20 and takes
// the best improving move, stopping at a local optimum or after maxEvals
// profiler evaluations.
func HillClimb(p *profiler.Profiler, numBlocks, maxEvals int, seed int64) SearchResult {
	rng := rand.New(rand.NewSource(seed))
	n := p.Graph.NumOps()
	total := p.TotalTimeMs()
	k := numBlocks - 1

	fitness := func(cuts []int) (profiler.Candidate, float64) {
		c := p.Evaluate(cuts)
		return c, analytic.Fitness(c.StdDevMs, total, c.Overhead, numBlocks)
	}

	cur := make([]int, k)
	guidedCuts(cur, p, 0.05, rng)
	curCand, curFit := fitness(cur)
	res := SearchResult{Best: curCand, Fitness: curFit, Evaluations: 1,
		Trajectory: []float64{curFit}}

	steps := []int{1, -1, n / 20, -n / 20}
	for res.Evaluations < maxEvals {
		bestMove := -1
		bestStep := 0
		bestFit := curFit
		var bestCand profiler.Candidate
		for i := 0; i < k && res.Evaluations < maxEvals; i++ {
			for _, s := range steps {
				if s == 0 {
					continue
				}
				next := append([]int(nil), cur...)
				next[i] = clamp(next[i]+s, 1, n-1)
				repair(next, n, rng)
				cand, fit := fitness(next)
				res.Evaluations++
				if fit > bestFit {
					bestFit, bestMove, bestStep, bestCand = fit, i, s, cand
				}
			}
		}
		if bestMove < 0 {
			break // local optimum
		}
		cur[bestMove] = clamp(cur[bestMove]+bestStep, 1, n-1)
		repair(cur, n, rng)
		curFit = bestFit
		res.Best, res.Fitness = bestCand, bestFit
		res.Trajectory = append(res.Trajectory, bestFit)
	}
	return res
}

// AnnealConfig parameterizes simulated annealing.
type AnnealConfig struct {
	// MaxEvals caps profiler evaluations.
	MaxEvals int
	// T0 is the initial temperature in fitness units.
	T0 float64
	// Cooling is the geometric cooling factor per step.
	Cooling float64
	// Seed drives the run.
	Seed int64
}

// DefaultAnnealConfig matches the GA's evaluation budget.
func DefaultAnnealConfig() AnnealConfig {
	return AnnealConfig{MaxEvals: 2000, T0: 0.05, Cooling: 0.997, Seed: 1}
}

// Anneal runs simulated annealing over cut vectors with gaussian moves,
// accepting worse candidates with probability exp(Δ/T).
func Anneal(p *profiler.Profiler, numBlocks int, cfg AnnealConfig) SearchResult {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := p.Graph.NumOps()
	total := p.TotalTimeMs()
	k := numBlocks - 1

	fitness := func(cuts []int) (profiler.Candidate, float64) {
		c := p.Evaluate(cuts)
		return c, analytic.Fitness(c.StdDevMs, total, c.Overhead, numBlocks)
	}

	cur := make([]int, k)
	guidedCuts(cur, p, 0.05, rng)
	curCand, curFit := fitness(cur)
	res := SearchResult{Best: curCand, Fitness: curFit, Evaluations: 1,
		Trajectory: []float64{curFit}}

	temp := cfg.T0
	for res.Evaluations < cfg.MaxEvals {
		next := append([]int(nil), cur...)
		i := rng.Intn(k)
		step := int(rng.NormFloat64() * float64(n) / 15)
		if step == 0 {
			step = 1 - 2*rng.Intn(2)
		}
		next[i] = clamp(next[i]+step, 1, n-1)
		repair(next, n, rng)
		cand, fit := fitness(next)
		res.Evaluations++
		if fit > curFit || rng.Float64() < math.Exp((fit-curFit)/math.Max(temp, 1e-12)) {
			cur, curFit = next, fit
			if fit > res.Fitness {
				res.Best, res.Fitness = cand, fit
				res.Trajectory = append(res.Trajectory, fit)
			}
		}
		temp *= cfg.Cooling
	}
	return res
}
