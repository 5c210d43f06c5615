package policy

import (
	"fmt"

	"split/internal/engine"
	"split/internal/sched"
	"split/internal/trace"
	"split/internal/workload"
)

// Split is the paper's system: evenly-sized offline split plans, block-level
// full preemption via the greedy response-ratio queue (Algorithm 1), and the
// elastic splitting mechanism. It is the virtual-clock driver of
// internal/engine: every scheduling decision is the engine's, and this type
// turns each one into a gpusim timer, a Record and a trace event.
type Split struct {
	// Knobs are the scheduling knobs shared field for field with the
	// serving path (serve.Config embeds the same struct); s.Devices = 4
	// reads and writes through the embedding.
	engine.Knobs
	// PartialPreemption, when true, degrades full preemption to the
	// straggler-prone partial scheme of Figure 3(a): a preempted request's
	// remaining blocks re-enter the queue at the *back* instead of at their
	// greedy position, so later blocks straggle behind newly arrived work.
	// It exists only for the Figure 3 ablation; the serving path only ships
	// full preemption.
	PartialPreemption bool
}

// NewSplit returns the default SPLIT configuration (α=4 for decision
// making, elastic enabled).
func NewSplit() *Split {
	return &Split{Knobs: engine.Knobs{Alpha: 4, Elastic: sched.DefaultElastic()}}
}

// Name implements System.
func (s *Split) Name() string {
	if s.PartialPreemption {
		return "SPLIT-partial"
	}
	return "SPLIT"
}

// FleetStats summarizes the control plane's activity over one Run.
type FleetStats = engine.Stats

// splitRun is the per-Run driver state. The engine holds every queue,
// ledger and controller; what is left here is the replay (clock, trace,
// records), the tracer, and one reusable hold per lane.
type splitRun struct {
	*replay
	eng *engine.Engine
	tr  *trace.Tracer
	// tracing gates every narration on the grant path: an untraced run
	// builds no event at all.
	tracing bool
	// evs is the zero-length scratch the engine's narrators append into on
	// their way to the tracer.
	evs   []trace.Event
	holds []hold
}

// hold is one lane's in-flight grant. A lane holds at most one grant at a
// time, so its state — including the timer callback bound once at setup —
// is reused for every hold instead of allocating closures per block.
type hold struct {
	rn    *splitRun
	g     engine.Grant
	timer func(now float64)
}

// Run implements System. With Devices > 1 it runs the full fleet pipeline —
// placement, N independent device timelines under one virtual clock,
// per-device preemption/deadline/cancellation/fault handling — and with
// Devices <= 1 it reduces exactly to the paper's single shared GPU: same
// events, same records.
func (s *Split) Run(arrivals []workload.Arrival, catalog Catalog, tr *trace.Tracer) []Record {
	recs, _ := s.RunWithStats(arrivals, catalog, tr)
	return recs
}

// RunWithStats is Run plus the control plane's end-of-run summary:
// device-hours, scale events, and admission decisions. With autoscaling
// and admission disabled the records are identical to Run's and the stats
// report the fixed fleet's cost.
func (s *Split) RunWithStats(arrivals []workload.Arrival, catalog Catalog, tr *trace.Tracer) ([]Record, FleetStats) {
	rn := s.newRun(arrivals, catalog, tr)
	recs := rn.run(rn.arrive, rn.cancel)
	return recs, rn.eng.Stats(rn.sim.Now())
}

// newRun validates the trace and the knobs and builds an idle driver.
func (s *Split) newRun(arrivals []workload.Arrival, catalog Catalog, tr *trace.Tracer) *splitRun {
	rp := newReplay(arrivals, catalog)
	eng, err := engine.New(s.Knobs)
	if err != nil {
		panic(fmt.Sprintf("policy: %v", err))
	}
	eng.PartialPreemption = s.PartialPreemption
	rn := &splitRun{
		replay:  rp,
		eng:     eng,
		tr:      tr,
		tracing: tr != nil,
		holds:   make([]hold, eng.Lanes()),
	}
	for i := range rn.holds {
		h := &rn.holds[i]
		h.rn = rn
		h.timer = h.onTimer
	}
	return rn
}

// narrate moves narrated events into the tracer and recycles the scratch;
// call it as rn.narrate(engine.AppendX(rn.evs, ...)).
func (rn *splitRun) narrate(evs []trace.Event) {
	rn.tr.Record(evs...)
	rn.evs = evs[:0]
}

// record files one request's outcome in its arrival's slot, which arrive
// left in the request's Tag, and hands the request back to the engine: a
// recorded request has met its fate and nothing reads it again.
func (rn *splitRun) record(r *sched.Request, now float64, outcome string) {
	rn.file(r.Tag, RecordOf(r, now, outcome))
	rn.eng.Release(r)
}

// arrive hands arrival i to the engine's front door.
//
//lint:hotpath every simulated request enters here
func (rn *splitRun) arrive(i int, info *ModelInfo, now float64) {
	a := &rn.arrivals[i]
	job := info.job(a.ID, a.Model, a.DeadlineMs)
	d := rn.eng.Arrive(now, job)
	if rn.tracing {
		rn.narrate(engine.AppendArrival(rn.evs, now, job, d))
	}
	if d.Rejected {
		// The record keeps per-arrival accounting complete; QoS rates are
		// computed over admitted records (metrics.Admitted).
		rn.file(i, Record{
			ID: a.ID, Model: a.Model, Class: job.Class, ArriveMs: now,
			StartMs: -1, DoneMs: now, ExtMs: job.ExtMs, Outcome: OutcomeAdmission,
		})
		return
	}
	d.Req.Tag = i
	if d.Idle {
		rn.grant(d.Lane, now)
	}
}

// cancel handles arrival i's cancellation firing at its scheduled time.
// Queued work is shed now; a grant holder (scalar or batch member) at its
// boundary.
func (rn *splitRun) cancel(i int, now float64) {
	c := rn.eng.Cancel(now, rn.arrivals[i].ID)
	if rn.tracing {
		rn.narrate(engine.AppendCancel(rn.evs, now, c, ""))
	}
	if c.State == engine.CancelQueued {
		rn.record(c.Req, now, OutcomeCanceled)
	}
}

// grant asks the engine for the lane's next hold and turns it into a
// boundary timer for the (possibly spiked) block duration.
//
//lint:hotpath the grant runs at every block boundary
func (rn *splitRun) grant(lane int, now float64) {
	g := rn.eng.Grant(lane, now)
	if rn.tracing {
		rn.narrate(engine.AppendGrant(rn.evs, now, g))
	}
	for _, ex := range g.Shed {
		rn.record(ex, now, OutcomeDeadline)
	}
	if !g.OK {
		return
	}
	h := &rn.holds[lane]
	h.g = g
	rn.sim.After(g.HoldMs, h.timer)
}

// onTimer is the boundary callback for every device hold: the engine
// settles it, and this driver re-arms a retry, or records each member's
// fate and restarts the lanes the release woke.
//
//lint:hotpath block-boundary settlement for every device hold
func (h *hold) onTimer(now float64) {
	rn, g := h.rn, &h.g
	st := rn.eng.Settle(g.Lane, now, "")
	if rn.tracing {
		rn.narrate(engine.AppendSettle(rn.evs, now, *g, st))
	}
	if st.Retry {
		rn.sim.After(st.HoldMs, h.timer)
		return
	}
	for _, f := range st.Fates {
		switch f.Kind {
		case engine.Served:
			rn.record(f.Req, now, OutcomeServed)
		case engine.Shed:
			rn.record(f.Req, now, f.Reason)
		}
	}
	// Siblings start first — they were waiting — which is what makes the
	// adaptive width shrink under contention: the settled lane's next
	// grant clamps at the slots the siblings just took.
	for _, sib := range st.Wake {
		rn.grant(sib, now)
	}
	rn.grant(g.Lane, now)
}
