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
	var reqs pool[req]
	// queue[head:] waits in arrival order.
	var queue []*req
	head := 0
	// running is the request on the device. One runs at a time, so its
	// completion timer, done, is bound once.
	var running *req
	// backlogMs tracks the total work queued or running, for drop decisions.
	var backlogMs float64

	var startNext func(now float64)
	done := func(now float64) {
		r := running
		tr.Note(now, trace.EndBlock, r.ID, r.Model, trace.NoteNone)
		r.DoneMs = now
		backlogMs -= r.ExtMs
		tr.Note(now, trace.Complete, r.ID, r.Model, trace.NoteRR, r.ResponseRatio())
		*rp.file(r.slot) = r.Record
		reqs.put(r)
		startNext(now)
	}
	startNext = func(now float64) {
		if head == len(queue) {
			queue, head, running = queue[:0], 0, nil
			return
		}
		r := queue[head]
		head++
		running = r
		r.StartMs = now
		tr.Note(now, trace.StartBlock, r.ID, r.Model, trace.NoteDur, r.ExtMs)
		sim.After(r.ExtMs, done)
	}

	return rp.run(func(i int, info *ModelInfo, now float64) {
		a := &arrivals[i]
		rec := Record{
			ID:       a.ID,
			Model:    a.Model,
			Class:    info.Class,
			ArriveMs: now,
			ExtMs:    info.ExtMs,
		}
		if c.DropAlpha > 0 {
			predicted := (backlogMs + info.ExtMs) / info.ExtMs
			if predicted > c.DropAlpha {
				// Dropped: record the predicted completion so the QoS
				// metrics see the violation the user experienced.
				rec.StartMs = now
				rec.DoneMs = now + backlogMs + info.ExtMs
				tr.Note(now, trace.Drop, rec.ID, rec.Model, trace.NotePredictedRR, predicted)
				*rp.file(i) = rec
				return
			}
		}
		backlogMs += info.ExtMs
		r := reqs.get()
		*r = req{Record: rec, slot: i}
		// Out of room, slide the waiters back over the started ones first,
		// when that frees at least half the array.
		if len(queue) == cap(queue) && head > 0 && 2*head >= len(queue) {
			queue, head = queue[:copy(queue, queue[head:])], 0
		}
		queue = append(queue, r)
		tr.Note(now, trace.Arrive, r.ID, r.Model, trace.NotePos, float64(len(queue)-head-1))
		if running == nil {
			startNext(now)
		}
	}, nil)
}
