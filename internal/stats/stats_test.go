package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMeanBasic(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3}, 2},
		{[]float64{-1, 1}, 0},
		{[]float64{2.5, 2.5, 2.5}, 2.5},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestVarianceEdgeCases(t *testing.T) {
	if got := Variance(nil); got != 0 {
		t.Errorf("Variance(nil) = %v", got)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Errorf("Variance(single) = %v", got)
	}
	if got := StdDev([]float64{7, 7, 7}); got != 0 {
		t.Errorf("StdDev(constant) = %v", got)
	}
}

func TestSampleVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	want := 32.0 / 7.0
	if got := SampleVariance(xs); !almostEqual(got, want, 1e-12) {
		t.Errorf("SampleVariance = %v, want %v", got, want)
	}
	if got := SampleVariance([]float64{1}); got != 0 {
		t.Errorf("SampleVariance(single) = %v, want 0", got)
	}
	if got := SampleStdDev(xs); !almostEqual(got, math.Sqrt(want), 1e-12) {
		t.Errorf("SampleStdDev = %v", got)
	}
}

func TestMinMaxRange(t *testing.T) {
	xs := []float64{3, -2, 8, 0}
	if Min(xs) != -2 {
		t.Errorf("Min = %v", Min(xs))
	}
	if Max(xs) != 8 {
		t.Errorf("Max = %v", Max(xs))
	}
	if Range(xs) != 10 {
		t.Errorf("Range = %v", Range(xs))
	}
}

func TestMinMaxPanicOnEmpty(t *testing.T) {
	for name, f := range map[string]func([]float64) float64{"Min": Min, "Max": Max} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(empty) did not panic", name)
				}
			}()
			f(nil)
		}()
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Median([]float64{9}); got != 9 {
		t.Errorf("Median(single) = %v", got)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 3}
	Percentile(xs, 50)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestPercentilePanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Percentile(empty) did not panic")
			}
		}()
		Percentile(nil, 50)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Percentile(out of range) did not panic")
			}
		}()
		Percentile([]float64{1}, 101)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Percentile(NaN) did not panic")
			}
		}()
		Percentile([]float64{1, 2}, math.NaN())
	}()
}

// percentileBySort is Percentile's definition: sort a copy, then
// interpolate between the two closest ranks.
func percentileBySort(xs []float64, p float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// fuzzFloats decodes raw into at most 100 samples. An even first byte reads
// raw as little-endian float64s, any bit pattern; an odd one maps each byte
// onto a small palette, so duplicates, NaN, ±Inf and signed zeros are
// common. The cap keeps the fuzzer's minimization of a long input cheap.
func fuzzFloats(raw []byte) []float64 {
	if len(raw) == 0 {
		return nil
	}
	const maxSamples = 100
	var xs []float64
	if raw[0]%2 == 0 {
		for b := raw[1:]; len(b) >= 8 && len(xs) < maxSamples; b = b[8:] {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(b)))
		}
		return xs
	}
	palette := []float64{math.NaN(), math.Inf(-1), math.Inf(1), 0, math.Copysign(0, -1), 1, 2, 2.5, -1, 1e308, -1e-308, 3}
	for _, c := range raw[1:min(len(raw), 1+maxSamples)] {
		xs = append(xs, palette[int(c)%len(palette)])
	}
	return xs
}

// FuzzPercentile: selection returns exactly what sorting would — the same
// value under ==, NaN where sorting gives NaN — for any sample and any p in
// range, and panics on a p out of range. Percentile leaves its input as it
// was; PercentileInPlace leaves a permutation of it. Summarize's
// percentiles are Percentile's.
func FuzzPercentile(f *testing.F) {
	f.Add([]byte{1, 0, 0, 3, 5, 5, 5, 1, 2, 7, 11}, 95.0)
	f.Add([]byte{1, 6, 6, 6, 6, 6, 7, 7, 7}, 50.0)
	f.Add([]byte{1, 3, 4, 5, 6, 4, 3}, 12.5)
	f.Add([]byte{1, 1, 2, 1, 2, 8, 9, 10, 11, 0}, 99.0)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 1, 0, 0, 0, 0, 0, 0xf0, 0x3f}, 100.0)
	f.Add([]byte{1, 5}, 0.0)
	f.Add([]byte{1, 5, 6}, math.NaN())
	f.Add([]byte{1, 5, 6}, -1.0)
	f.Fuzz(func(t *testing.T, raw []byte, p float64) {
		xs := fuzzFloats(raw)
		if len(xs) == 0 {
			return
		}
		same := func(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }
		check := func(p float64) {
			before := append([]float64(nil), xs...)
			got := Percentile(xs, p)
			for i := range xs {
				if math.Float64bits(xs[i]) != math.Float64bits(before[i]) {
					t.Fatalf("Percentile(%v) modified xs[%d]: %v → %v", p, i, before[i], xs[i])
				}
			}
			want := percentileBySort(xs, p)
			if !same(got, want) {
				t.Fatalf("Percentile(%v, %v) = %v, sorting gives %v", xs, p, got, want)
			}
			scratch := append([]float64(nil), xs...)
			PercentileInPlace(scratch, p)
			sort.Float64s(before)
			sort.Float64s(scratch)
			for i := range scratch {
				if !same(scratch[i], before[i]) {
					t.Fatalf("PercentileInPlace(%v, %v) left %v, not a permutation", xs, p, scratch)
				}
			}
		}
		if p >= 0 && p <= 100 {
			check(p)
		} else {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("Percentile(p=%v) did not panic", p)
					}
				}()
				Percentile(xs, p)
			}()
			if math.IsInf(p, 0) || math.IsNaN(p) {
				return
			}
			check(math.Mod(math.Abs(p), 100))
		}
		s := Summarize(xs)
		for _, c := range []struct{ p, got float64 }{{50, s.P50}, {95, s.P95}, {99, s.P99}} {
			if want := percentileBySort(xs, c.p); !same(c.got, want) {
				t.Fatalf("Summarize(%v).P%v = %v, sorting gives %v", xs, c.p, c.got, want)
			}
		}
	})
}

func TestCoefficientOfVariation(t *testing.T) {
	if got := CoefficientOfVariation([]float64{5, 5, 5}); got != 0 {
		t.Errorf("CV(constant) = %v", got)
	}
	if got := CoefficientOfVariation(nil); got != 0 {
		t.Errorf("CV(empty) = %v", got)
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := CoefficientOfVariation(xs); !almostEqual(got, 2.0/5.0, 1e-12) {
		t.Errorf("CV = %v", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Errorf("bad summary: %+v", s)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
	zero := Summarize(nil)
	if zero.N != 0 {
		t.Errorf("Summarize(nil).N = %d", zero.N)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 0, 1.9, 2, 5, 9.99, 10, 15} {
		h.Add(x)
	}
	if h.Under != 1 {
		t.Errorf("Under = %d", h.Under)
	}
	if h.Over != 2 {
		t.Errorf("Over = %d", h.Over)
	}
	if h.Buckets[0] != 2 { // 0 and 1.9
		t.Errorf("bucket0 = %d", h.Buckets[0])
	}
	if h.Buckets[1] != 1 { // 2
		t.Errorf("bucket1 = %d", h.Buckets[1])
	}
	if h.Total() != 8 {
		t.Errorf("Total = %d", h.Total())
	}
	if h.String() == "" {
		t.Error("empty histogram render")
	}
}

func TestHistogramUpperEdgeRounding(t *testing.T) {
	h := NewHistogram(0, 1, 3)
	h.Add(math.Nextafter(1, 0)) // just below upper bound
	if h.Buckets[2] != 1 || h.Over != 0 {
		t.Errorf("edge sample misplaced: %+v", h)
	}
}

func TestHistogramInvalidBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHistogram(bad bounds) did not panic")
		}
	}()
	NewHistogram(5, 5, 3)
}

// Property: population variance is never negative and matches E[x²]-E[x]².
func TestVarianceIdentityProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := sanitize(raw)
		if len(xs) == 0 {
			return true
		}
		v := Variance(xs)
		if v < -1e-9 {
			return false
		}
		var sq float64
		for _, x := range xs {
			sq += x * x
		}
		m := Mean(xs)
		ident := sq/float64(len(xs)) - m*m
		scale := math.Max(1, math.Abs(ident))
		return almostEqual(v, ident, 1e-6*scale)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: Min <= P50 <= Max and percentile is monotone in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		xs := sanitize(raw)
		if len(xs) == 0 {
			return true
		}
		pa := float64(a % 101)
		pb := float64(b % 101)
		if pa > pb {
			pa, pb = pb, pa
		}
		va, vb := Percentile(xs, pa), Percentile(xs, pb)
		return va <= vb+1e-9 && Min(xs) <= va+1e-9 && vb <= Max(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

// sanitize clamps quick-generated floats to finite moderate values.
func sanitize(raw []float64) []float64 {
	var out []float64
	for _, x := range raw {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		out = append(out, math.Mod(x, 1e6))
	}
	return out
}
