// Package stats provides small statistical helpers used across the SPLIT
// reproduction: means, standard deviations, percentiles and histograms over
// float64 samples. All functions are pure and allocation-light so they can be
// used from hot benchmarking loops.
package stats

import (
	"cmp"
	"fmt"
	"math"
	"strings"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (dividing by n, not n-1),
// matching the paper's use of σ as a dispersion measure over a fixed set of
// block execution times. It returns 0 for slices with fewer than one element.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// SampleVariance returns the Bessel-corrected variance (dividing by n-1).
// It returns 0 for slices with fewer than two elements.
func SampleVariance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs)-1)
}

// SampleStdDev returns the Bessel-corrected standard deviation of xs.
func SampleStdDev(xs []float64) float64 {
	return math.Sqrt(SampleVariance(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Min returns the minimum of xs. It panics on an empty slice because a
// minimum of nothing is a programming error in this codebase.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Range returns Max - Min, the spread of the sample.
func Range(xs []float64) float64 {
	return Max(xs) - Min(xs)
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It panics on an empty slice or a p
// outside the range, NaN included. It does not modify xs: it selects the two
// ranks it needs in a copy instead of sorting it, in the order sort.Float64s
// uses (NaN first), so it returns exactly what sorting would.
func Percentile(xs []float64, p float64) float64 {
	return PercentileInPlace(append([]float64(nil), xs...), p)
}

// PercentileInPlace is Percentile on xs itself, which it reorders: a
// caller done with the order of its own slice saves Percentile's copy.
func PercentileInPlace(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if !(p >= 0 && p <= 100) {
		panic(fmt.Sprintf("stats: percentile %v out of range [0,100]", p))
	}
	if len(xs) == 1 {
		return xs[0]
	}
	rank := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	x := selectRank(xs, lo)
	if lo == hi {
		return x
	}
	// Everything above lo is no less than xs[lo], so the next rank is the
	// least of it. A NaN at lo makes the result NaN whatever that is.
	y := xs[hi]
	for _, v := range xs[hi+1:] {
		if v < y {
			y = v
		}
	}
	frac := rank - float64(lo)
	return x*(1-frac) + y*frac
}

// selectRank reorders s so that s[k] holds the value a sort would put there,
// with no greater value before it and no lesser one after, and returns it.
// It is quickselect with a median-of-three pivot, ordered by cmp.Less: linear
// time expected.
func selectRank(s []float64, k int) float64 {
	lo, hi := 0, len(s)-1
	for hi > lo {
		if hi-lo < 12 {
			// Insertion sort, as sort.Float64s does at this size.
			for i := lo + 1; i <= hi; i++ {
				for j := i; j > lo && cmp.Less(s[j], s[j-1]); j-- {
					s[j], s[j-1] = s[j-1], s[j]
				}
			}
			break
		}
		mid := lo + (hi-lo)/2
		if cmp.Less(s[mid], s[lo]) {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if cmp.Less(s[hi], s[lo]) {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if cmp.Less(s[hi], s[mid]) {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := s[mid]
		// Hoare partition: s[lo] <= pivot <= s[hi] act as sentinels.
		i, j := lo, hi
		for i <= j {
			for cmp.Less(s[i], pivot) {
				i++
			}
			for cmp.Less(pivot, s[j]) {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return s[k]
		}
	}
	return s[k]
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 {
	return Percentile(xs, 50)
}

// CoefficientOfVariation returns StdDev/Mean, or 0 when the mean is 0.
func CoefficientOfVariation(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// Summary holds the common descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	P50    float64
	P95    float64
	P99    float64
	Max    float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	scratch := append([]float64(nil), xs...)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    Min(xs),
		P50:    PercentileInPlace(scratch, 50),
		P95:    PercentileInPlace(scratch, 95),
		P99:    PercentileInPlace(scratch, 99),
		Max:    Max(xs),
	}
}

// String renders the summary on one line, suitable for experiment logs.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f std=%.3f min=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f",
		s.N, s.Mean, s.StdDev, s.Min, s.P50, s.P95, s.P99, s.Max)
}

// Histogram is a fixed-width-bucket histogram over a closed interval.
type Histogram struct {
	Lo, Hi  float64
	Buckets []int
	// Under and Over count samples outside [Lo, Hi).
	Under, Over int
}

// NewHistogram creates a histogram with n buckets covering [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("stats: invalid histogram bounds")
	}
	return &Histogram{Lo: lo, Hi: hi, Buckets: make([]int, n)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Buckets)))
		if i == len(h.Buckets) { // guard float rounding at the upper edge
			i--
		}
		h.Buckets[i]++
	}
}

// Total returns the number of observations recorded, including out-of-range.
func (h *Histogram) Total() int {
	t := h.Under + h.Over
	for _, c := range h.Buckets {
		t += c
	}
	return t
}

// String renders an ASCII bar chart of the histogram.
func (h *Histogram) String() string {
	var b strings.Builder
	maxC := 1
	for _, c := range h.Buckets {
		if c > maxC {
			maxC = c
		}
	}
	w := (h.Hi - h.Lo) / float64(len(h.Buckets))
	for i, c := range h.Buckets {
		bar := strings.Repeat("#", c*40/maxC)
		fmt.Fprintf(&b, "[%8.2f,%8.2f) %6d %s\n", h.Lo+float64(i)*w, h.Lo+float64(i+1)*w, c, bar)
	}
	if h.Under > 0 {
		fmt.Fprintf(&b, "under: %d\n", h.Under)
	}
	if h.Over > 0 {
		fmt.Fprintf(&b, "over: %d\n", h.Over)
	}
	return b.String()
}
