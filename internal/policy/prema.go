package policy

import (
	"split/internal/model"
	"split/internal/trace"
	"split/internal/workload"
)

// PREMA models the PREMA baseline (Choi & Rhu, HPCA'20; §5.3): predictive
// multi-task scheduling with token-based priority. Each task carries a
// static priority level (short requests high, long requests low); a waiting
// request accumulates tokens proportional to its priority and its
// normalized waiting time, and the scheduler always dispatches the
// highest-token request.
//
// On the paper's GPU testbed PREMA's priority is "passive": a running model
// is not interrupted, so tokens only reorder the queue at model boundaries
// (whole-request granularity — the §2.2 "sequential preemption without
// model splitting" regime). Setting CheckpointMs > 0 additionally enables
// PREMA's native NPU-style preemption at fixed checkpoints with a per-switch
// state save/restore cost, which the block-count ablation uses to show what
// hardware checkpointing would buy.
type PREMA struct {
	// ShortPriority and LongPriority are the static priority levels.
	ShortPriority, LongPriority float64
	// CheckpointMs, when > 0, allows preemption every CheckpointMs of
	// execution (NPU mode). 0 (default) disables intra-request preemption.
	CheckpointMs float64
	// SwitchOverheadMs is paid on every preemptive context switch in NPU
	// mode.
	SwitchOverheadMs float64
	// Threshold is the token advantage a waiting request needs over the
	// running one before a checkpoint switch happens (hysteresis).
	Threshold float64
}

// NewPREMA returns the GPU-testbed configuration: 3:1 short:long priority,
// token-ordered dispatch, no intra-request preemption.
func NewPREMA() *PREMA {
	return &PREMA{
		ShortPriority:    3,
		LongPriority:     1,
		SwitchOverheadMs: 0.75,
		Threshold:        1.2,
	}
}

// NewPREMANPU returns the NPU-style configuration with 2 ms checkpoints,
// used by ablations.
func NewPREMANPU() *PREMA {
	p := NewPREMA()
	p.CheckpointMs = 2.0
	return p
}

// Name implements System.
func (p *PREMA) Name() string {
	if p.CheckpointMs > 0 {
		return "PREMA-NPU"
	}
	return "PREMA"
}

type premaReq struct {
	Record
	slot        int
	remainingMs float64
	priority    float64
}

// token is PREMA's dynamic priority: static priority × normalized waiting
// time (time since arrival over isolated execution time), so short requests
// both start ahead and age faster.
func (r *premaReq) token(now float64) float64 {
	return r.priority * (now - r.ArriveMs) / r.ExtMs
}

// Run implements System.
func (p *PREMA) Run(arrivals []workload.Arrival, catalog Catalog, tr *trace.Tracer) []Record {
	rp := newReplay(arrivals, catalog)
	sim := rp.sim
	var reqs pool[premaReq]
	var waiting []*premaReq
	// running is the request on the device and chunkMs the chunk it is
	// running. One chunk runs at a time, so its completion timer, onChunk,
	// is bound once.
	var running *premaReq
	var chunkMs float64

	popBest := func(now float64) *premaReq {
		if len(waiting) == 0 {
			return nil
		}
		best := 0
		for i := 1; i < len(waiting); i++ {
			// Tie-break by arrival order for determinism.
			ti, tb := waiting[i].token(now), waiting[best].token(now)
			if ti > tb || (ti == tb && waiting[i].ArriveMs < waiting[best].ArriveMs) {
				best = i
			}
		}
		r := waiting[best]
		waiting = append(waiting[:best], waiting[best+1:]...)
		return r
	}

	complete := func(r *premaReq, now float64) {
		r.DoneMs = now
		tr.Note(now, trace.Complete, r.ID, r.Model, trace.NoteRR, r.ResponseRatio())
		rp.file(r.slot, r.Record)
		reqs.put(r)
	}

	var dispatch, onChunk func(now float64)
	var runChunk func(now float64, switched bool)

	dispatch = func(now float64) {
		if running != nil {
			return
		}
		r := popBest(now)
		if r == nil {
			return
		}
		running = r
		if r.StartMs < 0 {
			r.StartMs = now
		}
		runChunk(now, false)
	}

	runChunk = func(now float64, switched bool) {
		r := running
		chunkMs = r.remainingMs
		if p.CheckpointMs > 0 && p.CheckpointMs < chunkMs {
			chunkMs = p.CheckpointMs
		}
		start := now
		if switched {
			start += p.SwitchOverheadMs
		}
		tr.Note(start, trace.StartBlock, r.ID, r.Model, trace.NoteChunk, chunkMs)
		sim.At(start+chunkMs, onChunk)
	}

	onChunk = func(now float64) {
		r := running
		r.remainingMs -= chunkMs
		tr.Note(now, trace.EndBlock, r.ID, r.Model, trace.NoteLeft, r.remainingMs)
		if r.remainingMs <= 1e-9 {
			complete(r, now)
			running = nil
			dispatch(now)
			return
		}
		// NPU checkpoint decision: switch to a sufficiently better token.
		bestIdx, bestTok := -1, 0.0
		for i, w := range waiting {
			if t := w.token(now); bestIdx < 0 || t > bestTok {
				bestIdx, bestTok = i, t
			}
		}
		if bestIdx >= 0 && bestTok > r.token(now)*p.Threshold {
			w := waiting[bestIdx]
			waiting = append(waiting[:bestIdx], waiting[bestIdx+1:]...)
			waiting = append(waiting, r)
			r.Preemptions++
			tr.Note(now, trace.Preempt, r.ID, r.Model, trace.NoteBy, float64(w.ID))
			running = w
			if w.StartMs < 0 {
				w.StartMs = now + p.SwitchOverheadMs
			}
			runChunk(now, true)
			return
		}
		runChunk(now, false)
	}

	return rp.run(func(i int, info *ModelInfo, now float64) {
		a := &arrivals[i]
		prio := p.LongPriority
		if info.Class == model.Short {
			prio = p.ShortPriority
		}
		r := reqs.get()
		*r = premaReq{
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
			priority:    prio,
		}
		waiting = append(waiting, r)
		tr.Note(now, trace.Arrive, r.ID, r.Model, trace.NotePrio, prio)
		dispatch(now)
	}, nil)
}
