package policy

import (
	"split/internal/model"
	"split/internal/trace"
	"split/internal/workload"
)

// REEF models the kernel-level preemption alternative the paper discusses
// (§6, Han et al. OSDI'22): real-time (short) requests preempt best-effort
// (long) requests at microsecond scale by killing the in-flight kernel,
// losing only that kernel's progress. It trades SPLIT's hardware
// independence for near-instant preemption, and serves as the QoS upper
// bound SPLIT is compared against: SPLIT should approach REEF's short-
// request QoS without requiring kernel reset support.
type REEF struct {
	// PreemptLatencyMs is the reset-and-launch latency of a preemption.
	PreemptLatencyMs float64
	// KernelLossMs is the average progress discarded when the running
	// kernel is killed.
	KernelLossMs float64
}

// NewREEF returns the calibrated configuration: 50 µs preemption, 100 µs
// mean kernel loss.
func NewREEF() *REEF {
	return &REEF{PreemptLatencyMs: 0.05, KernelLossMs: 0.1}
}

// Name implements System.
func (r *REEF) Name() string { return "REEF" }

type reefReq struct {
	Record
	slot        int
	remainingMs float64
	realtime    bool
}

// Run implements System.
func (r *REEF) Run(arrivals []workload.Arrival, catalog Catalog, tr *trace.Tracer) []Record {
	rp := newReplay(arrivals, catalog)
	sim := rp.sim
	var rtQueue, beQueue []*reefReq // realtime FIFO, best-effort FIFO
	var running *reefReq
	var runStart float64
	version := 0

	var dispatch func(now float64)

	complete := func(q *reefReq, now float64) {
		q.DoneMs = now
		tr.Note(now, trace.Complete, q.ID, q.Model, trace.NoteRR, q.ResponseRatio())
		rp.file(q.slot, q.Record)
	}

	dispatch = func(now float64) {
		if running != nil {
			return
		}
		var q *reefReq
		if len(rtQueue) > 0 {
			q, rtQueue = rtQueue[0], rtQueue[1:]
		} else if len(beQueue) > 0 {
			q, beQueue = beQueue[0], beQueue[1:]
		} else {
			return
		}
		running = q
		runStart = now
		if q.StartMs < 0 {
			q.StartMs = now
		}
		v := version
		tr.Note(now, trace.StartBlock, q.ID, q.Model, trace.NoteDur, q.remainingMs)
		sim.After(q.remainingMs, func(now float64) {
			if v != version {
				return // preempted; superseded
			}
			tr.Note(now, trace.EndBlock, q.ID, q.Model, trace.NoteNone)
			q.remainingMs = 0
			complete(q, now)
			running = nil
			version++
			dispatch(now)
		})
	}

	return rp.run(func(i int, info *ModelInfo, now float64) {
		a := &arrivals[i]
		q := &reefReq{
			Record: Record{
				ID:       a.ID,
				Model:    a.Model,
				Class:    info.Class,
				ArriveMs: now,
				StartMs:  -1,
				ExtMs:    info.ExtMs,
			},
			slot:        i,
			remainingMs: info.ExtMs,
			realtime:    info.Class == model.Short,
		}
		rt := 0.0
		if q.realtime {
			rt = 1
		}
		tr.Note(now, trace.Arrive, q.ID, q.Model, trace.NoteRT, rt)
		if q.realtime {
			rtQueue = append(rtQueue, q)
			// Kernel-level preemption: kill the running best-effort
			// request's current kernel immediately.
			if running != nil && !running.realtime {
				victim := running
				elapsed := now - runStart
				victim.remainingMs -= elapsed
				victim.remainingMs += r.KernelLossMs // killed kernel redone
				if victim.remainingMs < 0 {
					victim.remainingMs = 0
				}
				victim.Preemptions++
				// Close the victim's occupancy span at the kill instant.
				tr.Note(now, trace.EndBlock, victim.ID, victim.Model, trace.NoteKilled)
				tr.Note(now, trace.Preempt, victim.ID, victim.Model, trace.NoteKernelReset)
				// Preempted best-effort work resumes at queue head.
				beQueue = append([]*reefReq{victim}, beQueue...)
				running = nil
				version++
				// Reset-and-relaunch latency before the short starts.
				sim.After(r.PreemptLatencyMs, dispatch)
				return
			}
		} else {
			beQueue = append(beQueue, q)
		}
		dispatch(now)
	}, nil)
}
