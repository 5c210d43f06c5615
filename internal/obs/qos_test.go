package obs

import (
	"math"
	"sync"
	"testing"

	"split/internal/metrics"
	"split/internal/policy"
	"split/internal/stats"
)

// rec builds a completed record with the given response ratio (ExtMs 10).
func rec(id int, rr float64) policy.Record {
	return policy.Record{
		ID: id, Model: "m", ArriveMs: float64(id) * 5,
		StartMs: float64(id) * 5, DoneMs: float64(id)*5 + rr*10, ExtMs: 10,
	}
}

// TestRollingAgreesWithOffline is the acceptance check: the live rolling
// violation rate and jitter must equal the offline metrics computed over
// the same records.
func TestRollingAgreesWithOffline(t *testing.T) {
	q := NewRollingQoS(4, 64)
	var recs []policy.Record
	for i, rr := range []float64{1, 2, 3.5, 4.5, 6, 1.2, 8, 3.9} {
		r := rec(i, rr)
		recs = append(recs, r)
		q.Observe(r)
	}
	s := q.Snapshot()
	if want := metrics.ViolationRate(recs, 4); s.ViolationRate != want {
		t.Errorf("violation rate %v, offline %v", s.ViolationRate, want)
	}
	if want := metrics.MeanResponseRatio(recs); math.Abs(s.MeanRR-want) > 1e-12 {
		t.Errorf("mean RR %v, offline %v", s.MeanRR, want)
	}
	if want := metrics.MeanWait(recs); math.Abs(s.MeanWaitMs-want) > 1e-12 {
		t.Errorf("mean wait %v, offline %v", s.MeanWaitMs, want)
	}
	e2e := make([]float64, len(recs))
	for i, r := range recs {
		e2e[i] = r.E2EMs()
	}
	if want := stats.StdDev(e2e); math.Abs(s.JitterMs-want) > 1e-12 {
		t.Errorf("jitter %v, offline %v", s.JitterMs, want)
	}
	if s.Window != len(recs) || s.Total != len(recs) || s.Alpha != 4 {
		t.Errorf("snapshot meta: %+v", s)
	}
}

// TestRollingWindowEviction checks only the last N completions count.
func TestRollingWindowEviction(t *testing.T) {
	q := NewRollingQoS(4, 4)
	// 4 old violations that must be evicted...
	for i := 0; i < 4; i++ {
		q.Observe(rec(i, 10))
	}
	// ...by 4 fresh non-violations.
	for i := 4; i < 8; i++ {
		q.Observe(rec(i, 2))
	}
	s := q.Snapshot()
	if s.ViolationRate != 0 {
		t.Errorf("violation rate %v after eviction, want 0", s.ViolationRate)
	}
	if s.Window != 4 || s.Total != 8 {
		t.Errorf("window=%d total=%d", s.Window, s.Total)
	}
	got := q.Records()
	if len(got) != 4 || got[0].ID != 4 || got[3].ID != 7 {
		t.Errorf("records = %+v", got)
	}
}

// TestRollingShedsInWindow pins the shed-accounting fix: shed requests in
// the window raise the violation rate exactly as the offline harness counts
// them (every non-served record violates), while the latency statistics —
// jitter above all — are computed over served records only, so a burst of
// deadline sheds can no longer masquerade as latency spread.
func TestRollingShedsInWindow(t *testing.T) {
	q := NewRollingQoS(4, 64)
	var served []policy.Record
	for i, rr := range []float64{1, 2, 3} {
		r := rec(i, rr)
		served = append(served, r)
		q.Observe(r)
	}
	sheds := []policy.Record{
		{ID: 10, Model: "m", ArriveMs: 50, StartMs: -1, DoneMs: 500, ExtMs: 10, Outcome: "deadline"},
		{ID: 11, Model: "m", ArriveMs: 55, StartMs: 60, DoneMs: 800, ExtMs: 10, Outcome: "canceled"},
	}
	for _, r := range sheds {
		q.Observe(r)
	}
	s := q.Snapshot()
	all := append(append([]policy.Record(nil), served...), sheds...)
	if want := metrics.ViolationRate(all, 4); s.ViolationRate != want {
		t.Errorf("violation rate %v, offline over served+shed %v", s.ViolationRate, want)
	}
	if s.ViolationRate != 2.0/5.0 {
		t.Errorf("violation rate %v, want 0.4 (2 sheds of 5 records)", s.ViolationRate)
	}
	e2e := make([]float64, len(served))
	for i, r := range served {
		e2e[i] = r.E2EMs()
	}
	if want := stats.StdDev(e2e); math.Abs(s.JitterMs-want) > 1e-12 {
		t.Errorf("jitter %v, want served-only stddev %v", s.JitterMs, want)
	}
	if want := metrics.MeanResponseRatio(served); math.Abs(s.MeanRR-want) > 1e-12 {
		t.Errorf("mean RR %v polluted by sheds, want %v", s.MeanRR, want)
	}
	if s.Window != 5 || s.Total != 5 {
		t.Errorf("window=%d total=%d, want 5/5", s.Window, s.Total)
	}
}

func TestRollingDefaultsAndNil(t *testing.T) {
	q := NewRollingQoS(0, 0)
	if len(q.window) != DefaultQoSWindow || q.alpha != 4 {
		t.Errorf("defaults: window=%d alpha=%v", len(q.window), q.alpha)
	}
	if s := q.Snapshot(); s.Window != 0 || s.ViolationRate != 0 {
		t.Errorf("empty snapshot: %+v", s)
	}
	var nilQ *RollingQoS
	nilQ.Observe(rec(0, 1)) // must not panic
	if s := nilQ.Snapshot(); s != (QoSSnapshot{}) {
		t.Errorf("nil snapshot: %+v", s)
	}
	if nilQ.Records() != nil {
		t.Error("nil records")
	}
}

func TestRollingConcurrent(t *testing.T) {
	q := NewRollingQoS(4, 128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q.Observe(rec(g*200+i, float64(i%8)+0.5))
				_ = q.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	s := q.Snapshot()
	if s.Total != 1600 || s.Window != 128 {
		t.Fatalf("total=%d window=%d", s.Total, s.Window)
	}
}
