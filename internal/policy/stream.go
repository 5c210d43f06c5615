package policy

import (
	"math"

	"split/internal/gpusim"
	"split/internal/trace"
	"split/internal/workload"
)

// StreamParallel models the native multi-stream concurrency of Figure 1:
// every request launches immediately on its own GPU stream and all active
// requests share the device as a processor-sharing server with contention —
// with k active requests, each progresses at rate 1/(k·Inflation(k)). It
// maximizes utilization but lets long requests inflate the latency of every
// co-resident short request.
type StreamParallel struct {
	// Contention is the per-stream slowdown model.
	Contention gpusim.Contention
}

// NewStreamParallel returns the calibrated stream-parallel configuration.
// Native multi-stream co-location contends for SMs and memory bandwidth far
// harder than the aligned RT-A rounds do: co-running DNN pairs commonly see
// ~2x per-stream slowdown (§2.2: short requests "experience similar
// end-to-end latency as long requests"), hence the steeper gamma.
func NewStreamParallel() *StreamParallel {
	return &StreamParallel{Contention: gpusim.Contention{Gamma: 0.8, Cap: 4.0}}
}

// Name implements System.
func (s *StreamParallel) Name() string { return "Stream-Parallel" }

type streamReq struct {
	Record
	slot      int
	remaining float64 // service demand left, in isolated-ms
}

// Run implements System.
func (s *StreamParallel) Run(arrivals []workload.Arrival, catalog Catalog, tr *trace.Tracer) []Record {
	rp := newReplay(arrivals, catalog)
	sim := rp.sim
	var active []*streamReq
	lastUpdate := 0.0
	version := 0

	rate := func() float64 {
		k := len(active)
		if k == 0 {
			return 0
		}
		return 1 / (float64(k) * s.Contention.Inflation(k))
	}

	// advance drains the service received since lastUpdate into every
	// active request.
	advance := func(now float64) {
		elapsed := now - lastUpdate
		lastUpdate = now
		if elapsed <= 0 || len(active) == 0 {
			return
		}
		per := elapsed * rate()
		for _, r := range active {
			r.remaining -= per
		}
	}

	var scheduleNextCompletion func(now float64)
	scheduleNextCompletion = func(now float64) {
		if len(active) == 0 {
			return
		}
		// Earliest finisher at the current sharing rate.
		minRem := math.Inf(1)
		for _, r := range active {
			if r.remaining < minRem {
				minRem = r.remaining
			}
		}
		if minRem < 0 {
			minRem = 0
		}
		eta := minRem / rate()
		v := version
		sim.At(now+eta, func(now float64) {
			if v != version {
				return // superseded by a newer arrival/completion
			}
			advance(now)
			// Complete every request that has drained (ties complete together).
			kept := active[:0]
			for _, r := range active {
				if r.remaining <= 1e-9 {
					r.DoneMs = now
					tr.Note(now, trace.Complete, r.ID, r.Model, trace.NoteRR, r.ResponseRatio())
					*rp.file(r.slot) = r.Record
				} else {
					kept = append(kept, r)
				}
			}
			active = kept
			version++
			scheduleNextCompletion(now)
		})
	}

	return rp.run(func(i int, info *ModelInfo, now float64) {
		advance(now)
		a := &arrivals[i]
		r := &streamReq{
			Record: Record{
				ID:       a.ID,
				Model:    a.Model,
				Class:    info.Class,
				ArriveMs: now,
				StartMs:  now, // streams launch immediately
				ExtMs:    info.ExtMs,
			},
			slot:      i,
			remaining: info.ExtMs,
		}
		active = append(active, r)
		tr.Note(now, trace.Arrive, r.ID, r.Model, trace.NoteK, float64(len(active)))
		version++
		scheduleNextCompletion(now)
	}, nil)
}
