package policy

import (
	"split/internal/trace"
	"split/internal/workload"
)

// ClockWork models the ClockWork baseline (§5.3): requests execute
// sequentially on the GPU in FCFS order with static priority and no
// preemption — whole models are the scheduling unit. Optionally it can drop
// requests predicted to become stragglers on arrival, as the real system
// does; drops are recorded with DoneMs at the (hypothetical) completion so
// metrics count them as violations.
type ClockWork struct {
	// DropAlpha > 0 enables admission control: a request whose predicted
	// response ratio at arrival already exceeds DropAlpha is dropped.
	// 0 disables dropping (the default used in the evaluation).
	DropAlpha float64
}

// NewClockWork returns the default FCFS configuration.
func NewClockWork() *ClockWork { return &ClockWork{} }

// Name implements System.
func (c *ClockWork) Name() string { return "ClockWork" }

// Run implements System.
func (c *ClockWork) Run(arrivals []workload.Arrival, catalog Catalog, tr *trace.Tracer) []Record {
	rp := newReplay(arrivals, catalog)
	sim := rp.sim
	type req struct {
		Record
		slot int
	}
	var queue []*req
	busy := false
	// backlogMs tracks the total work queued or running, for drop decisions.
	var backlogMs float64

	var startNext func(now float64)
	startNext = func(now float64) {
		if len(queue) == 0 {
			busy = false
			return
		}
		r := queue[0]
		queue = queue[1:]
		busy = true
		r.StartMs = now
		tr.Recordf(now, trace.StartBlock, r.ID, r.Model, 0, "dur=%.3f", r.ExtMs)
		sim.After(r.ExtMs, func(now float64) {
			tr.Recordf(now, trace.EndBlock, r.ID, r.Model, 0, "")
			r.DoneMs = now
			backlogMs -= r.ExtMs
			tr.Recordf(now, trace.Complete, r.ID, r.Model, 0, "rr=%.2f", r.ResponseRatio())
			rp.file(r.slot, r.Record)
			startNext(now)
		})
	}

	return rp.run(func(i int, info *ModelInfo, now float64) {
		a := &arrivals[i]
		r := &req{slot: i, Record: Record{
			ID:       a.ID,
			Model:    a.Model,
			Class:    info.Class,
			ArriveMs: now,
			ExtMs:    info.ExtMs,
		}}
		if c.DropAlpha > 0 {
			predicted := (backlogMs + info.ExtMs) / info.ExtMs
			if predicted > c.DropAlpha {
				// Dropped: record the predicted completion so the QoS
				// metrics see the violation the user experienced.
				r.StartMs = now
				r.DoneMs = now + backlogMs + info.ExtMs
				tr.Recordf(now, trace.Drop, r.ID, r.Model, 0, "predicted rr=%.2f", predicted)
				rp.file(i, r.Record)
				return
			}
		}
		backlogMs += info.ExtMs
		queue = append(queue, r)
		tr.Recordf(now, trace.Arrive, r.ID, r.Model, 0, "pos=%d", len(queue)-1)
		if !busy {
			startNext(now)
		}
	}, nil)
}
