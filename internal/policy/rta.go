package policy

import (
	"split/internal/gpusim"
	"split/internal/trace"
	"split/internal/workload"
)

// RTA models the Runtime-Aware baseline (Yu et al., ICCAD'21; §5.3): all
// pending requests are merged into a single aligned super-graph and executed
// concurrently on multiple GPU streams. Merging improves throughput, but a
// newly arrived request must wait for the *next* merge round ("it has to be
// aligned with request B and wait for the completion of request B", Fig. 1),
// and co-resident requests contend: each runs Inflation(k)× slower than
// isolated when k requests share the round.
type RTA struct {
	// Contention is the per-stream slowdown model.
	Contention gpusim.Contention
}

// NewRTA returns the calibrated runtime-aware configuration.
func NewRTA() *RTA {
	return &RTA{Contention: gpusim.Contention{Gamma: 0.4, Cap: 3.0}}
}

// Name implements System.
func (r *RTA) Name() string { return "RT-A" }

// Run implements System.
func (r *RTA) Run(arrivals []workload.Arrival, catalog Catalog, tr *trace.Tracer) []Record {
	rp := newReplay(arrivals, catalog)
	sim := rp.sim
	type req struct {
		Record
		slot int
	}
	var reqs pool[req]
	// waiting gathers the next round while round runs; the two buffers swap
	// at every round start. One round runs at a time, so its completion
	// timer, endRound, is bound once.
	var waiting, round []*req
	busy := false

	var startRound func(now float64)
	endRound := func(now float64) {
		for _, q := range round {
			tr.Note(now, trace.EndBlock, q.ID, q.Model, trace.NoteNone)
			tr.Note(now, trace.Complete, q.ID, q.Model, trace.NoteRR, q.ResponseRatio())
			*rp.file(q.slot) = q.Record
			reqs.put(q)
		}
		startRound(now)
	}
	startRound = func(now float64) {
		if len(waiting) == 0 {
			busy = false
			return
		}
		busy = true
		round, waiting = waiting, round[:0]
		k := len(round)
		inflation := r.Contention.Inflation(k)
		// The merged super-graph's operators are aligned across branches, so
		// the round runs as long as its longest member (inflated by
		// contention) and *every* member completes when the round does —
		// "request A has to be aligned with request B and wait for the
		// completion of request B" (§2.2, Fig. 1).
		var maxExt float64
		for _, q := range round {
			if q.ExtMs > maxExt {
				maxExt = q.ExtMs
			}
		}
		roundEnd := now + maxExt*inflation
		for _, q := range round {
			q.StartMs = now
			q.DoneMs = roundEnd
			tr.Note(now, trace.StartBlock, q.ID, q.Model, trace.NoteRound, float64(k), roundEnd-now)
		}
		sim.At(roundEnd, endRound)
	}

	return rp.run(func(i int, info *ModelInfo, now float64) {
		a := &arrivals[i]
		q := reqs.get()
		*q = req{slot: i, Record: Record{
			ID:       a.ID,
			Model:    a.Model,
			Class:    info.Class,
			ArriveMs: now,
			ExtMs:    info.ExtMs,
		}}
		waiting = append(waiting, q)
		tr.Note(now, trace.Arrive, q.ID, q.Model, trace.NoteNone)
		if !busy {
			// Defer the round launch within the current instant so that
			// simultaneous arrivals merge into the same round, exactly
			// as the runtime merges whatever is pending when it builds
			// the next super-graph.
			busy = true
			sim.At(now, startRound)
		}
	}, nil)
}
