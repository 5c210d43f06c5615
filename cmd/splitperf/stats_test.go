package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		sample []float64
		p      float64
		want   float64
	}{
		{ten, 50, 5},   // ceil(0.5*10) = rank 5
		{ten, 90, 9},   // rank 9
		{ten, 91, 10},  // ceil(9.1) = rank 10: never interpolates between 9 and 10
		{ten, 99, 10},  // rank 10
		{ten, 100, 10}, // the maximum
		{ten, 1, 1},    // rank 1
		{[]float64{7}, 50, 7},
		{[]float64{1, 2, 3}, 50, 2},
		{[]float64{1, 2, 3, 4}, 50, 2}, // lower of the two middle values
	} {
		if got := percentile(c.sample, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.sample, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5000, 99},     // p99.9 would rest on 5 samples, p99 has 50
		{10_000, 99.9}, // exactly 10 beyond p99.9
		{9_999, 99},    // one sample short of p99.9
		{1000, 99},     // exactly 10 beyond p99
		{999, 95},      // one sample short of p99
		{1_000_000, 99.99},
		{50, 90}, // too small for any rung: the lowest one
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := beyond(5000, 99); got != 50 {
		t.Errorf("beyond(5000, 99) = %d, want 50", got)
	}
	if got := beyond(5000, 99.9); got != 5 {
		t.Errorf("beyond(5000, 99.9) = %d, want 5", got)
	}
}

func TestMedianOfRepeats(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5}, 5},
		{[]float64{1, 1, 9}, 1}, // one disturbed repeat does not move it
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its argument: %v", xs)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median of nothing = %v, want NaN", got)
	}
	q := medianQoS([]qos{{rrP50: 1, n: 10}, {rrP50: 3, n: 20}, {rrP50: 2, n: 30}})
	if q.rrP50 != 2 || q.n != 20 {
		t.Errorf("medianQoS = %+v, want rrP50 2 over a mean of 20 samples", q)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	l := newSpanLog()
	at := func(ms int) (tm timeT) { return l.epoch.Add(msDuration(ms)) }
	root := l.add(-1, -1, "root", at(0), at(100))
	l.add(root, -1, "child", at(10), at(40))
	l.add(root, -1, "child", at(30), at(60)) // overlaps the first: covered once
	l.add(root, -1, "late", at(90), at(120)) // runs past its parent: clipped
	self := l.selfTimes()
	if got, want := self["root"], msDuration(100-50-10); got != want {
		t.Errorf("root self time = %v, want %v", got, want)
	}
	if got, want := self["child"], msDuration(60); got != want {
		t.Errorf("child self time = %v, want %v", got, want)
	}
}
