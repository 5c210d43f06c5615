package policy

import (
	"fmt"

	"split/internal/engine"
	"split/internal/fleet"
	"split/internal/gpusim"
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
// ledger and controller; what is left here is the clock, the tracer, the
// records, and one reusable hold per lane.
type splitRun struct {
	sim *gpusim.Sim
	eng *engine.Engine
	tr  *trace.Tracer
	// tracing gates every event-formatting call on the grant path; the
	// Tracer is nil-safe, but the format arguments would box and allocate
	// even for a nil tracer if built unconditionally.
	tracing bool
	holds   []hold
	records []Record
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
	validateArrivals(arrivals, catalog)
	eng, err := engine.New(s.Knobs)
	if err != nil {
		panic(fmt.Sprintf("policy: %v", err))
	}
	eng.PartialPreemption = s.PartialPreemption
	sim := gpusim.New()
	rn := &splitRun{
		sim:     sim,
		eng:     eng,
		tr:      tr,
		tracing: tr != nil,
		holds:   make([]hold, eng.Lanes()),
		// One record per arrival; preallocating keeps million-request
		// sweeps out of the append-regrowth copy path.
		records: make([]Record, 0, len(arrivals)),
	}
	for i := range rn.holds {
		h := &rn.holds[i]
		h.rn = rn
		h.timer = h.onTimer
	}
	for _, a := range arrivals {
		a := a
		sim.At(a.AtMs, func(now float64) { rn.arrive(a, catalog, now) })
		if a.CancelAtMs > 0 {
			id := a.ID
			sim.At(a.CancelAtMs, func(now float64) { rn.cancel(id, now) })
		}
	}
	sim.Run()
	return sortRecords(rn.records), eng.Stats(sim.Now())
}

// record finalizes a request's outcome.
func (rn *splitRun) record(r *sched.Request, doneMs float64, outcome string) {
	rn.records = append(rn.records, Record{
		ID:          r.ID,
		Model:       r.Model,
		Class:       r.Class,
		ArriveMs:    r.ArriveMs,
		StartMs:     r.StartMs,
		DoneMs:      doneMs,
		ExtMs:       r.ExtMs,
		Preemptions: r.Preemptions,
		Split:       len(r.BlockTimes) > 1,
		Outcome:     outcome,
		Device:      r.Device,
	})
}

// shed records a non-served outcome.
//
//lint:hotpath deadline sweeps shed on the grant path at every boundary
func (rn *splitRun) shed(now float64, r *sched.Request, outcome string) {
	if rn.tracing {
		rn.tr.DeviceRecordf(now, trace.Shed, r.Device, r.ID, r.Model, r.Next, "%s", outcome)
	}
	rn.record(r, now, outcome)
}

// arrive hands one arrival to the engine's front door and reports what it
// decided.
func (rn *splitRun) arrive(a workload.Arrival, catalog Catalog, now float64) {
	info := catalog[a.Model]
	d := rn.eng.Arrive(now, engine.Job{
		ID: a.ID, Model: a.Model, Class: info.Class, ExtMs: info.ExtMs,
		Plan: catalog.BlocksFor(a.Model), DeadlineMs: a.DeadlineMs,
	})
	if d.Rejected {
		if rn.tracing {
			rn.tr.Record(trace.Event{AtMs: now, Kind: trace.Drop, ReqID: a.ID,
				Model: a.Model, Detail: trace.ReasonAdmission + ": " + d.Detail})
		}
		// The record keeps per-arrival accounting complete; QoS rates are
		// computed over admitted records (metrics.Admitted).
		rn.records = append(rn.records, Record{
			ID: a.ID, Model: a.Model, Class: info.Class, ArriveMs: now,
			StartMs: -1, DoneMs: now, ExtMs: info.ExtMs, Outcome: OutcomeAdmission,
		})
	}
	if rn.tracing {
		switch d.Scale.Dir {
		case fleet.ScaleOut:
			rn.tr.Record(trace.Event{AtMs: now, Kind: trace.ScaleOut, ReqID: -1, Device: d.Scale.Device,
				Detail: fmt.Sprintf("active=%d depth=%d", d.Scale.Active, d.Scale.Depth)})
		case fleet.ScaleIn:
			rn.tr.Record(trace.Event{AtMs: now, Kind: trace.ScaleIn, ReqID: -1, Device: d.Scale.Device,
				Detail: fmt.Sprintf("active=%d drain=%d", d.Scale.Active, d.Scale.Depth)})
		}
	}
	if d.Rejected {
		return
	}
	if r := d.Req; rn.tracing {
		if rn.eng.Lanes() > 1 {
			rn.tr.Record(trace.Event{AtMs: now, Kind: trace.Place, ReqID: r.ID, Model: r.Model,
				Device: r.Device, Part: r.Partition,
				Detail: fmt.Sprintf("policy=%s depth=%d", rn.eng.PlacerName(), d.QueueLen)})
		}
		rn.tr.PartRecordf(now, trace.Arrive, r.Device, r.Partition, r.ID, r.Model, 0,
			"pos=%d blocks=%d scanned=%d qlen=%d", d.Pos, len(r.BlockTimes), d.Scanned, d.QueueLen)
	}
	if d.Idle {
		rn.grant(d.Lane, now)
	}
}

// cancel handles a cancellation hook firing at its scheduled time.
func (rn *splitRun) cancel(id int, now float64) {
	c := rn.eng.Cancel(now, id)
	r := c.Req
	switch c.State {
	case engine.CancelQueued:
		rn.tr.PartRecordf(now, trace.Cancel, r.Device, r.Partition, id, r.Model, r.Next, "queued")
		rn.shed(now, r, OutcomeCanceled)
	case engine.CancelInflight:
		// Scalar or batch member: shed at the next block boundary.
		if c.Marked {
			rn.tr.PartRecordf(now, trace.Cancel, r.Device, r.Partition, id, r.Model, r.Next, "inflight")
		}
	}
}

// grant asks the engine for the lane's next hold and turns it into a
// boundary timer. A scalar grant is a batch of one; the two differ only in
// how their events read.
//
//lint:hotpath the grant runs at every block boundary
func (rn *splitRun) grant(lane int, now float64) {
	g := rn.eng.Grant(lane, now)
	for _, ex := range g.Shed {
		rn.shed(now, ex, OutcomeDeadline)
	}
	if !g.OK {
		return
	}
	h := &rn.holds[lane]
	h.g = g
	if rn.tracing {
		var detail string
		switch {
		case g.BatchID != 0:
			detail = fmt.Sprintf("dur=%.3f n=%d", g.RunMs, len(g.Batch))
		case rn.eng.Parts() > 1:
			detail = fmt.Sprintf("dur=%.3f frac=%.2f", g.RunMs, g.Frac)
		default:
			detail = fmt.Sprintf("dur=%.3f", g.BaseMs)
		}
		for _, m := range g.Batch {
			rn.tr.Record(trace.Event{AtMs: now, Kind: trace.StartBlock, ReqID: m.ID, Model: m.Model,
				Block: g.Block, Device: m.Device, Part: m.Partition, Batch: g.BatchID, Detail: detail})
		}
	}
	h.begin(now)
}

// begin starts one execution attempt of the granted block: it schedules the
// boundary timer for the (possibly spiked) block duration.
//
//lint:hotpath every device hold schedules its boundary timer here
func (h *hold) begin(now float64) {
	rn, g := h.rn, &h.g
	if g.Spike > 1 && rn.tracing {
		lead := g.Batch[0]
		rn.tr.DeviceRecordf(now, trace.Fault, lead.Device, lead.ID, lead.Model, g.Block,
			"spike x%.2f attempt=%d", g.Spike, g.Attempt)
	}
	rn.sim.After(g.HoldMs, h.timer)
}

// onTimer is the boundary callback for every device hold: the engine
// settles it, and this driver reports each member's fate and restarts the
// lanes the release woke.
//
//lint:hotpath block-boundary settlement for every device hold
func (h *hold) onTimer(now float64) {
	rn, g := h.rn, &h.g
	lead := g.Batch[0]
	st := rn.eng.Settle(g.Lane, now, false)
	if st.Retry {
		if rn.tracing {
			rn.tr.DeviceRecordf(now, trace.Fault, lead.Device, lead.ID, lead.Model, g.Block,
				"transient attempt=%d, retrying", g.Attempt)
		}
		g.Attempt, g.HoldMs, g.Spike = st.Attempt, st.HoldMs, st.Spike
		h.begin(now)
		return
	}
	if rn.tracing {
		if st.Terminal {
			rn.tr.DeviceRecordf(now, trace.Fault, lead.Device, lead.ID, lead.Model, g.Block,
				"terminal after %d attempts", st.Attempt+1)
		}
		for _, m := range g.Batch {
			rn.tr.Record(trace.Event{AtMs: now, Kind: trace.EndBlock, ReqID: m.ID, Model: m.Model,
				Block: g.Block, Device: m.Device, Part: m.Partition, Batch: g.BatchID})
		}
	}
	for _, f := range st.Fates {
		r := f.Req
		switch f.Kind {
		case engine.Served:
			if rn.tracing {
				rn.tr.DeviceRecordf(now, trace.Complete, r.Device, r.ID, r.Model, g.Block, "rr=%.2f", r.ResponseRatio())
			}
			rn.record(r, now, OutcomeServed)
		case engine.Shed:
			rn.shed(now, r, f.Reason)
		case engine.Requeued:
			if f.Pos > 0 && rn.tracing {
				rn.tr.DeviceRecordf(now, trace.Preempt, r.Device, r.ID, r.Model, r.Next, "requeued at %d", f.Pos)
			}
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
