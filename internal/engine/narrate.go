package engine

import (
	"split/internal/fleet"
	"split/internal/sched"
	"split/internal/trace"
)

// This file is the engine's one voice: each decision value is narrated
// here, once, as the trace events that describe it. The functions append to
// the caller's slice — the simulator's scratch buffer on its way into a
// Tracer, the server's pending buffer on its way to a Sink — so a /tracez
// stream and a simulated run of the same schedule read the same, kind for
// kind and detail for detail. A driver formats nothing about a decision
// itself; it narrates the decision as returned, before acting on it.
//
// A narrated event carries the decision's numbers, not a sentence: each
// sets a trace.Note and the note's arguments, and the sentence is rendered
// only when an export asks for it. Narrating allocates nothing.

// word is a vocabulary entry as a note argument.
func word(s string) float64 { return float64(trace.WordOf(s)) }

// AppendArrival narrates the front door: the admission Drop of a rejected
// job, the autoscaler actuation the arrival triggered, and for an admitted
// job its placement (on engines with more than one lane) and its Algorithm 1
// insertion — position, plan length, scan length and the queue length the
// placer saw.
func AppendArrival(evs []trace.Event, now float64, job *Job, a *Arrival) []trace.Event {
	if a.Rejected {
		evs = append(evs, trace.Event{AtMs: now, Kind: trace.Drop, ReqID: job.ID, Model: job.Model,
			Note: trace.NoteAdmission, Args: [4]float64{word(a.Detail)}})
	}
	switch sc := a.Scale; sc.Dir {
	case fleet.ScaleOut:
		evs = append(evs, trace.Event{AtMs: now, Kind: trace.ScaleOut, ReqID: -1, Device: sc.Device,
			Note: trace.NoteScaleOut, Args: [4]float64{float64(sc.Active), float64(sc.Depth)}})
	case fleet.ScaleIn:
		evs = append(evs, trace.Event{AtMs: now, Kind: trace.ScaleIn, ReqID: -1, Device: sc.Device,
			Note: trace.NoteScaleIn, Args: [4]float64{float64(sc.Active), float64(sc.Depth)}})
	}
	if a.Rejected {
		return evs
	}
	r := a.Req
	if a.placer != 0 {
		evs = append(evs, trace.Event{AtMs: now, Kind: trace.Place, ReqID: r.ID, Model: r.Model,
			Device: r.Device, Part: int32(r.Partition),
			Note: trace.NotePlaced, Args: [4]float64{float64(a.placer), float64(a.QueueLen)}})
	}
	return append(evs, trace.Event{AtMs: now, Kind: trace.Arrive, ReqID: r.ID, Model: r.Model,
		Device: r.Device, Part: int32(r.Partition), Note: trace.NoteQueued,
		Args: [4]float64{float64(a.Pos), float64(len(r.BlockTimes)), float64(a.Scanned), float64(a.QueueLen)}})
}

// AppendCancel narrates a cancellation taking effect: where it found the
// request, and for queued work the shed that follows at once. why, when
// non-empty, is the driver's cause ("client cancel", "connection lost")
// and follows the state. Unknown IDs and repeated cancellations of an
// in-flight request narrate nothing.
func AppendCancel(evs []trace.Event, now float64, c Cancellation, why string) []trace.Event {
	if !c.Marked {
		return evs
	}
	r := c.Req
	e := trace.Event{AtMs: now, Kind: trace.Cancel, ReqID: r.ID, Model: r.Model,
		Block: r.Next, Device: r.Device, Part: int32(r.Partition),
		Note: trace.NoteWord, Args: [4]float64{word(c.State.String())}}
	if why != "" {
		e.Note, e.Args[1] = trace.NoteCancelWhy, word(why)
	}
	evs = append(evs, e)
	if c.State == CancelQueued {
		evs = AppendShed(evs, now, r, trace.ReasonCanceled)
	}
	return evs
}

// AppendShed narrates one request leaving the system unserved. The other
// narrators call it for every shed the engine decides; a driver calls it
// directly only for the backlog it sheds at shutdown.
func AppendShed(evs []trace.Event, now float64, r *sched.Request, reason string) []trace.Event {
	return append(evs, trace.Event{AtMs: now, Kind: trace.Shed, ReqID: r.ID, Model: r.Model,
		Block: r.Next, Device: r.Device, Note: trace.NoteWord, Args: [4]float64{word(reason)}})
}

// AppendGrant narrates a grant: the deadline sheds of the boundary sweep,
// one StartBlock per member carrying the hold's priced duration (and the
// batch size or granted fraction that priced it), and the first attempt's
// latency spike.
func AppendGrant(evs []trace.Event, now float64, g *Grant) []trace.Event {
	for _, r := range g.Shed {
		evs = AppendShed(evs, now, r, trace.ReasonDeadline)
	}
	if !g.OK {
		return evs
	}
	note, args := trace.NoteDur, [4]float64{g.BaseMs}
	switch {
	case g.BatchID != 0:
		note, args = trace.NoteDurBatch, [4]float64{g.RunMs, float64(len(g.Batch))}
	case g.spatial:
		note, args = trace.NoteDurFrac, [4]float64{g.RunMs, g.Frac}
	}
	for _, m := range g.Batch {
		evs = append(evs, trace.Event{AtMs: now, Kind: trace.StartBlock, ReqID: m.ID, Model: m.Model,
			Block: g.Block, Device: m.Device, Part: int32(m.Partition), Batch: g.BatchID,
			Note: note, Args: args})
	}
	return appendSpike(evs, now, g, g.Spike, g.Attempt)
}

// AppendSettle narrates the boundary of grant g. A retry reads as the
// transient fault and the next attempt's spike; a release as the terminal
// fault if the retry budget ran out, one EndBlock per member, and then each
// member's fate — Complete, Shed, or the Preempt of a requeue that was
// passed.
func AppendSettle(evs []trace.Event, now float64, g *Grant, st *Settlement) []trace.Event {
	if st.Retry {
		evs = appendFault(evs, now, g, trace.NoteTransient, float64(st.Attempt-1), 0)
		return appendSpike(evs, now, g, st.Spike, st.Attempt)
	}
	if st.Terminal {
		evs = appendFault(evs, now, g, trace.NoteTerminal, float64(st.Attempt+1), 0)
	}
	for _, m := range g.Batch {
		evs = append(evs, trace.Event{AtMs: now, Kind: trace.EndBlock, ReqID: m.ID, Model: m.Model,
			Block: g.Block, Device: m.Device, Part: int32(m.Partition), Batch: g.BatchID})
	}
	for _, f := range st.Fates {
		r := f.Req
		switch f.Kind {
		case Served:
			evs = append(evs, trace.Event{AtMs: now, Kind: trace.Complete, ReqID: r.ID, Model: r.Model,
				Block: g.Block, Device: r.Device, Note: trace.NoteRR, Args: [4]float64{r.ResponseRatio()}})
		case Shed:
			evs = AppendShed(evs, now, r, f.Reason)
		case Requeued:
			if f.Pos > 0 {
				evs = append(evs, trace.Event{AtMs: now, Kind: trace.Preempt, ReqID: r.ID, Model: r.Model,
					Block: r.Next, Device: r.Device, Note: trace.NoteRequeued, Args: [4]float64{float64(f.Pos)}})
			}
		}
	}
	return evs
}

// appendFault narrates one injected fault on g's block; faults key on the
// leader.
func appendFault(evs []trace.Event, now float64, g *Grant, note trace.Note, a0, a1 float64) []trace.Event {
	lead := g.Batch[0]
	return append(evs, trace.Event{AtMs: now, Kind: trace.Fault, ReqID: lead.ID, Model: lead.Model,
		Block: g.Block, Device: lead.Device, Note: note, Args: [4]float64{a0, a1}})
}

// appendSpike narrates an attempt's latency spike, if it drew one.
func appendSpike(evs []trace.Event, now float64, g *Grant, spike float64, attempt int) []trace.Event {
	if spike <= 1 {
		return evs
	}
	return appendFault(evs, now, g, trace.NoteSpike, spike, float64(attempt))
}
