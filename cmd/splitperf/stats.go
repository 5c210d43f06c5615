package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail percentile resting on fewer observations is one stall away from a
// different answer.
const minBeyond = 10

// tailLadder lists the tail percentiles the harness may report, highest
// first.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending-sorted sample: the smallest value with at least p% of the
// sample at or below it. It never interpolates, so every reported latency
// is one that a request actually saw.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile in an n-sample:
// ceil(p/100 * n), kept inside [1, n]. The small subtraction keeps a
// product that is a whole number in exact arithmetic (99.9% of 5000) from
// being rounded up by its floating-point error.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples above the nearest-rank p-th percentile position
// of an n-sample.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tailPercentile picks the highest percentile of tailLadder that still has
// at least minBeyond samples beyond it at sample size n; with too few
// samples for any of them it falls back to the lowest rung.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return tailLadder[len(tailLadder)-1]
}

// median returns the middle of xs (mean of the two middle values for an
// even count) without reordering the caller's slice; NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
