// Package profiler measures split candidates offline, exactly as the paper's
// §3.1 large-scale evaluation does: given a model graph and a set of cut
// points, it reports the per-block execution times, the splitting overhead
// ratio, and the standard deviation of block times (the paper's evenness /
// jitter proxy). It also produces the Figure 2 cut-point grids and exhaustive
// or sampled sweeps over the candidate space.
package profiler

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"split/internal/model"
	"split/internal/stats"
)

// Profiler evaluates split candidates on a fixed graph under a fixed device
// cost model. It is cheap to construct and safe for concurrent use: all
// methods are read-only with respect to the graph.
type Profiler struct {
	Graph *model.Graph
	Cost  model.CostModel

	prefix     []float64 // cumulative op times for O(1) range sums
	boundaryMs []float64 // boundaryMs[c] = cost of a cut at position c (index 0 unused)
	total      float64
}

// New creates a profiler for g under cost model cm. Construction
// precomputes the boundary cost of every cut position in O(M + E) via a
// difference array over the edges' crossing intervals, so Evaluate runs in
// O(m) per candidate.
func New(g *model.Graph, cm model.CostModel) *Profiler {
	n := g.NumOps()
	boundary := make([]float64, n) // positions 1..n-1
	if len(g.Edges) == 0 {
		for c := 1; c <= n-1; c++ {
			boundary[c] = cm.BoundaryMs(g.Ops[c-1].OutBytes)
		}
	} else {
		// Source u's tensor crosses every cut c in (u, maxTo[u]]; maxTo[u]
		// is 0 when u feeds nothing. The volumes are whole numbers far
		// below 2⁵³, so the sums are exact in any order.
		maxTo := make([]int, n)
		for _, e := range g.Edges {
			maxTo[e.From] = max(maxTo[e.From], e.To)
		}
		diff := make([]float64, n+1)
		for u, t := range maxTo {
			if t == 0 {
				continue
			}
			diff[u+1] += float64(g.Ops[u].OutBytes)
			if t+1 <= n {
				diff[t+1] -= float64(g.Ops[u].OutBytes)
			}
		}
		var acc float64
		for c := 1; c <= n-1; c++ {
			acc += diff[c]
			boundary[c] = cm.BoundaryMs(int64(acc))
		}
	}
	return &Profiler{
		Graph:      g,
		Cost:       cm,
		prefix:     g.PrefixTimes(),
		boundaryMs: boundary,
		total:      g.TotalTimeMs(),
	}
}

// PrefixTimes returns the cumulative op times the profiler keeps:
// PrefixTimes()[i] is the summed time of Ops[0..i], as Graph.PrefixTimes
// computes it. The slice is the profiler's own; callers must not modify it.
func (p *Profiler) PrefixTimes() []float64 { return p.prefix }

// BoundaryMsAt returns the precomputed boundary cost of a cut at position c.
func (p *Profiler) BoundaryMsAt(c int) float64 { return p.boundaryMs[c] }

// TotalTimeMs returns the vanilla model execution time T.
func (p *Profiler) TotalTimeMs() float64 { return p.total }

// rangeTime returns the summed op time of ops [start, end).
func (p *Profiler) rangeTime(start, end int) float64 {
	if start == 0 {
		return p.prefix[end-1]
	}
	return p.prefix[end-1] - p.prefix[start-1]
}

// Candidate is one profiled splitting option.
type Candidate struct {
	// Cuts are the strictly increasing cut positions.
	Cuts []int
	// BlockTimesMs are the block execution times including boundary costs.
	BlockTimesMs []float64
	// StdDevMs is the population std deviation of block times (σ).
	StdDevMs float64
	// Overhead is the splitting overhead ratio (extra time / vanilla time).
	Overhead float64
}

// NumBlocks returns the number of blocks in the candidate.
func (c Candidate) NumBlocks() int { return len(c.Cuts) + 1 }

// RangePct returns (max-min)/vanillaTotal of block times as a percentage,
// the "Range(Percentage)" column of Table 3.
func (c Candidate) RangePct(totalMs float64) float64 {
	if len(c.BlockTimesMs) == 0 || totalMs <= 0 {
		return 0
	}
	return (stats.Max(c.BlockTimesMs) - stats.Min(c.BlockTimesMs)) / totalMs * 100
}

// Evaluate profiles one set of cut points. Cuts must be strictly increasing
// positions in [1, M-1]; Evaluate panics otherwise (callers generate cuts
// programmatically, so a bad cut is a bug).
func (p *Profiler) Evaluate(cuts []int) Candidate {
	times := make([]float64, len(cuts)+1)
	sd, overhead := p.Score(cuts, times)
	return Candidate{
		Cuts:         append([]int(nil), cuts...),
		BlockTimesMs: times,
		StdDevMs:     sd,
		Overhead:     overhead,
	}
}

// Score is Evaluate without the Candidate: it writes the block times of
// cuts into times, which must hold len(cuts)+1 values, and returns their σ
// and the overhead ratio, the same bits Evaluate reports. It allocates
// nothing, so a search can score every candidate into one buffer.
func (p *Profiler) Score(cuts []int, times []float64) (stdDevMs, overhead float64) {
	if err := p.Graph.ValidateCuts(cuts); err != nil {
		panic(err)
	}
	times = times[:len(cuts)+1]
	start := 0
	var extra float64
	for i, c := range cuts {
		t := p.rangeTime(start, c)
		if start > 0 {
			t += p.boundaryMs[start]
		}
		times[i] = t
		extra += p.boundaryMs[c]
		start = c
	}
	t := p.rangeTime(start, p.Graph.NumOps())
	if start > 0 {
		t += p.boundaryMs[start]
	}
	times[len(cuts)] = t
	return stats.StdDev(times), extra / p.total
}

// Plan converts a candidate into a deployable SplitPlan.
func (p *Profiler) Plan(c Candidate) *model.SplitPlan {
	return &model.SplitPlan{
		Model:         p.Graph.Name,
		Cuts:          append([]int(nil), c.Cuts...),
		BlockTimesMs:  append([]float64(nil), c.BlockTimesMs...),
		OverheadRatio: c.Overhead,
		StdDevMs:      c.StdDevMs,
	}
}

// Grid2D holds the Figure 2 data: for every pair of cut positions
// (i, j), i < j, the splitting overhead and block-time std deviation of the
// resulting 3-block split. Cells with j <= i are NaN-free zero and marked
// invalid via Valid.
type Grid2D struct {
	Model    string
	N        int // number of operators
	Overhead [][]float64
	StdDev   [][]float64
	Valid    [][]bool
}

// CutGrid computes the Figure 2 grids for all (first, second) cut pairs with
// the given stride (stride 1 = exhaustive; larger strides subsample the axes
// for big models). Axes are cut positions 1..M-1.
func (p *Profiler) CutGrid(stride int) *Grid2D {
	if stride < 1 {
		stride = 1
	}
	n := p.Graph.NumOps()
	g := &Grid2D{Model: p.Graph.Name, N: n}
	var times [3]float64
	for i := 1; i <= n-1; i += stride {
		rowO := make([]float64, 0, (n-1)/stride+1)
		rowS := make([]float64, 0, (n-1)/stride+1)
		rowV := make([]bool, 0, (n-1)/stride+1)
		for j := 1; j <= n-1; j += stride {
			if j <= i {
				rowO = append(rowO, 0)
				rowS = append(rowS, 0)
				rowV = append(rowV, false)
				continue
			}
			sd, overhead := p.Score([]int{i, j}, times[:])
			rowO = append(rowO, overhead)
			rowS = append(rowS, sd)
			rowV = append(rowV, true)
		}
		g.Overhead = append(g.Overhead, rowO)
		g.StdDev = append(g.StdDev, rowS)
		g.Valid = append(g.Valid, rowV)
	}
	return g
}

// SingleCutProfile profiles every single-cut position 1..M-1 and returns the
// per-position overhead and std deviation — the 1-D marginal of Figure 2
// used to verify the two §2.4 observations.
func (p *Profiler) SingleCutProfile() (overhead, stddev []float64) {
	n := p.Graph.NumOps()
	overhead = make([]float64, 0, n-1)
	stddev = make([]float64, 0, n-1)
	var times [2]float64
	for c := 1; c <= n-1; c++ {
		sd, o := p.Score([]int{c}, times[:])
		overhead = append(overhead, o)
		stddev = append(stddev, sd)
	}
	return overhead, stddev
}

// Exhaustive enumerates every C(M-1, m-1) candidate for numBlocks blocks and
// returns the one minimizing the objective. It is exponential in numBlocks
// and intended for validation on small models or numBlocks == 2..3.
// The objective receives each candidate and returns a score to minimize.
// The candidate's Cuts and BlockTimesMs are buffers the enumeration reuses
// for the next candidate, so the objective must not keep them; the
// returned best is a Candidate of its own.
func (p *Profiler) Exhaustive(numBlocks int, objective func(Candidate) float64) (best Candidate, evaluated int) {
	if numBlocks == 1 {
		return p.Evaluate(nil), 1
	}
	n := p.Graph.NumOps()
	cuts := make([]int, numBlocks-1)
	bestCuts := make([]int, numBlocks-1)
	times := make([]float64, numBlocks)
	bestScore := 0.0
	var rec func(idx, start int)
	rec = func(idx, start int) {
		if idx == len(cuts) {
			sd, overhead := p.Score(cuts, times)
			evaluated++
			s := objective(Candidate{Cuts: cuts, BlockTimesMs: times, StdDevMs: sd, Overhead: overhead})
			if evaluated == 1 || s < bestScore {
				bestScore = s
				copy(bestCuts, cuts)
			}
			return
		}
		// Leave room for the remaining cuts.
		for pos := start; pos <= n-1-(len(cuts)-1-idx); pos++ {
			cuts[idx] = pos
			rec(idx+1, pos+1)
		}
	}
	rec(0, 1)
	if evaluated == 0 {
		return Candidate{}, 0
	}
	return p.Evaluate(bestCuts), evaluated
}

// RandomSample profiles `count` uniformly random candidates with numBlocks
// blocks and returns them. Used for the ">20,000 splitting candidates"
// large-scale evaluation and as a search baseline.
func (p *Profiler) RandomSample(numBlocks, count int, rng *rand.Rand) []Candidate {
	n := p.Graph.NumOps()
	out := make([]Candidate, 0, count)
	for i := 0; i < count; i++ {
		cuts := RandomCuts(n, numBlocks-1, rng)
		out = append(out, p.Evaluate(cuts))
	}
	return out
}

// RandomCuts draws k distinct cut positions uniformly from [1, numOps-1] and
// returns them sorted.
func RandomCuts(numOps, k int, rng *rand.Rand) []int {
	if k <= 0 {
		return nil
	}
	if k > numOps-1 {
		panic(fmt.Sprintf("profiler: cannot choose %d cuts from %d positions", k, numOps-1))
	}
	cuts := make([]int, 0, k)
	for len(cuts) < k {
		c := 1 + rng.Intn(numOps-1)
		if !slices.Contains(cuts, c) {
			cuts = append(cuts, c)
		}
	}
	sort.Ints(cuts)
	return cuts
}

// StdDevObjective is the plain evenness objective: minimize σ.
func StdDevObjective(c Candidate) float64 { return c.StdDevMs }
