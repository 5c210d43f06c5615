package policy

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"split/internal/trace"
	"split/internal/workload"
)

// stressSystems builds fresh instances of every system for a stress round.
func stressSystems() []System {
	return []System{
		NewSplit(), NewClockWork(), NewPREMA(), NewPREMANPU(),
		NewRTA(), NewStreamParallel(), NewREEF(),
	}
}

// randomTrace generates an adversarial arrival pattern: Poisson background,
// same-type bursts, simultaneous arrivals and long idle gaps.
func randomTrace(seed int64, n int) []workload.Arrival {
	rng := rand.New(rand.NewSource(seed))
	models := []string{"long", "short", "huge"}
	var arrivals []workload.Arrival
	t := 0.0
	for len(arrivals) < n {
		switch rng.Intn(5) {
		case 0: // simultaneous batch
			m := models[rng.Intn(len(models))]
			for i := 0; i < 2+rng.Intn(3) && len(arrivals) < n; i++ {
				arrivals = append(arrivals, workload.Arrival{Model: m, AtMs: t})
			}
		case 1: // idle gap
			t += 100 + rng.Float64()*200
		default:
			t += rng.ExpFloat64() * 15
			arrivals = append(arrivals, workload.Arrival{
				Model: models[rng.Intn(len(models))],
				AtMs:  t,
			})
		}
	}
	for i := range arrivals {
		arrivals[i].ID = i
	}
	return arrivals
}

// TestStressInvariantsAllSystems drives every system over adversarial
// traces and checks the universal invariants: exactly one record per
// arrival, monotone per-request times, no request finishing faster than its
// isolated execution time, and determinism.
func TestStressInvariantsAllSystems(t *testing.T) {
	catalog := synthCatalog()
	for seed := int64(1); seed <= 10; seed++ {
		arrivals := randomTrace(seed, 120)
		for _, sys := range stressSystems() {
			recs := sys.Run(arrivals, catalog, nil)
			if len(recs) != len(arrivals) {
				t.Fatalf("seed %d %s: %d records for %d arrivals",
					seed, sys.Name(), len(recs), len(arrivals))
			}
			for i, r := range recs {
				if r.ID != i {
					t.Fatalf("seed %d %s: non-sequential IDs", seed, sys.Name())
				}
				if r.StartMs < r.ArriveMs-1e-9 {
					t.Fatalf("seed %d %s req %d: started before arrival", seed, sys.Name(), i)
				}
				if r.DoneMs < r.StartMs-1e-9 {
					t.Fatalf("seed %d %s req %d: done before start", seed, sys.Name(), i)
				}
				if r.E2EMs() < r.ExtMs-1e-6 {
					t.Fatalf("seed %d %s req %d: e2e %v < ext %v",
						seed, sys.Name(), i, r.E2EMs(), r.ExtMs)
				}
				if math.IsNaN(r.DoneMs) || math.IsInf(r.DoneMs, 0) {
					t.Fatalf("seed %d %s req %d: non-finite completion", seed, sys.Name(), i)
				}
			}
		}
	}
}

// reqInterval is one exec interval of a traced run, with its request.
type reqInterval struct {
	ReqID int
	trace.Interval
}

// execIntervals folds a traced run and returns every exec interval of its
// span tree, ordered by start time.
func execIntervals(tr *trace.Tracer) []reqInterval {
	var out []reqInterval
	for _, sp := range trace.BuildSpans(tr.Events()).Requests {
		for _, iv := range sp.Intervals {
			if iv.Phase == trace.PhaseExec {
				out = append(out, reqInterval{sp.ReqID, iv})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartMs < out[j].StartMs })
	return out
}

// TestStressSequentialNonOverlap verifies device exclusivity for the
// sequential systems over adversarial traces.
func TestStressSequentialNonOverlap(t *testing.T) {
	catalog := synthCatalog()
	for seed := int64(1); seed <= 5; seed++ {
		arrivals := randomTrace(seed, 100)
		for _, sys := range []System{NewSplit(), NewClockWork(), NewPREMA(), NewPREMANPU(), NewREEF()} {
			tr := trace.New()
			sys.Run(arrivals, catalog, tr)
			spans := execIntervals(tr)
			for i := 1; i < len(spans); i++ {
				if spans[i].StartMs < spans[i-1].EndMs-1e-6 {
					t.Fatalf("seed %d %s: overlapping spans [%f,%f] and [%f,%f]",
						seed, sys.Name(),
						spans[i-1].StartMs, spans[i-1].EndMs,
						spans[i].StartMs, spans[i].EndMs)
				}
			}
		}
	}
}

// TestStressWorkConservationSequential: for sequential systems, total busy
// time must equal the executed work (no time invented or lost). SPLIT's
// executed work is its block plans; others execute t_ext (REEF adds kernel
// re-execution on preemption, so it is checked as >=).
func TestStressWorkConservationSequential(t *testing.T) {
	catalog := synthCatalog()
	arrivals := randomTrace(3, 150)
	var extTotal float64
	for _, a := range arrivals {
		extTotal += catalog[a.Model].ExtMs
	}

	for _, sys := range []System{NewClockWork(), NewPREMA()} {
		tr := trace.New()
		sys.Run(arrivals, catalog, tr)
		busy := tr.Analyze().BusyMs
		if math.Abs(busy-extTotal) > 1e-3 {
			t.Errorf("%s: busy %.3f != work %.3f", sys.Name(), busy, extTotal)
		}
	}
	// REEF re-executes killed kernels: busy >= extTotal.
	tr := trace.New()
	NewREEF().Run(arrivals, catalog, tr)
	if busy := tr.Analyze().BusyMs; busy < extTotal-1e-3 {
		t.Errorf("REEF: busy %.3f < work %.3f", busy, extTotal)
	}
}

// TestStressSplitWorkMatchesPlans: SPLIT's busy time equals the sum of the
// block plans it actually executed (elastic may pick unsplit plans).
func TestStressSplitWorkMatchesPlans(t *testing.T) {
	catalog := synthCatalog()
	arrivals := randomTrace(4, 150)
	tr := trace.New()
	recs := NewSplit().Run(arrivals, catalog, tr)
	var want float64
	for _, r := range recs {
		if r.Split {
			want += 30 // the synthetic plan is 3x10 with zero overhead
		} else {
			want += catalog[r.Model].ExtMs
		}
	}
	busy := tr.Analyze().BusyMs
	if math.Abs(busy-want) > 1e-3 {
		t.Errorf("SPLIT busy %.3f != executed plan work %.3f", busy, want)
	}
}

// TestStressEmptyAndSingleTraces: degenerate inputs must not wedge any
// system.
func TestStressEmptyAndSingleTraces(t *testing.T) {
	catalog := synthCatalog()
	for _, sys := range stressSystems() {
		if recs := sys.Run(nil, catalog, nil); len(recs) != 0 {
			t.Errorf("%s: records from empty trace", sys.Name())
		}
		recs := sys.Run([]workload.Arrival{{ID: 0, Model: "short", AtMs: 42}}, catalog, nil)
		if len(recs) != 1 {
			t.Fatalf("%s: %d records for single arrival", sys.Name(), len(recs))
		}
		if recs[0].StartMs < 42 || recs[0].E2EMs() < 5-1e-9 {
			t.Errorf("%s: single-arrival record %+v", sys.Name(), recs[0])
		}
	}
}

// TestStressHeavySameTypeBurst: a 50-request same-type burst must stay FIFO
// under SPLIT (the same-task rule) regardless of elastic behaviour.
func TestStressHeavySameTypeBurst(t *testing.T) {
	catalog := synthCatalog()
	var arrivals []workload.Arrival
	for i := 0; i < 50; i++ {
		arrivals = append(arrivals, workload.Arrival{ID: i, Model: "long", AtMs: float64(i)})
	}
	recs := NewSplit().Run(arrivals, catalog, nil)
	for i := 1; i < len(recs); i++ {
		if recs[i].DoneMs < recs[i-1].DoneMs {
			t.Fatalf("same-type FIFO violated: req %d done %.2f before req %d done %.2f",
				i, recs[i].DoneMs, i-1, recs[i-1].DoneMs)
		}
	}
}

// TestStressStarveGuardBoundsLongTail: with the guard enabled, no request's
// final response ratio should wildly exceed the guard threshold plus its
// own execution (sanity bound, not an exact cap: the guard only stops
// *future* passing).
func TestStressStarveGuardBoundsLongTail(t *testing.T) {
	catalog := synthCatalog()
	rng := rand.New(rand.NewSource(9))
	var arrivals []workload.Arrival
	t0 := 0.0
	for i := 0; i < 400; i++ {
		m := "short"
		if i%10 == 0 {
			m = "huge"
		}
		t0 += rng.ExpFloat64() * 7
		arrivals = append(arrivals, workload.Arrival{ID: i, Model: m, AtMs: t0})
	}
	guarded := NewSplit()
	guarded.StarveGuardRR = 4
	grecs := guarded.Run(arrivals, catalog, nil)
	plain := NewSplit()
	precs := plain.Run(arrivals, catalog, nil)
	maxRR := func(recs []Record, model string) float64 {
		m := 0.0
		for _, r := range recs {
			if r.Model == model && r.ResponseRatio() > m {
				m = r.ResponseRatio()
			}
		}
		return m
	}
	if maxRR(grecs, "huge") > maxRR(precs, "huge") {
		t.Errorf("guard worsened the huge-request tail: %.2f vs %.2f",
			maxRR(grecs, "huge"), maxRR(precs, "huge"))
	}
}
