package engine

import (
	"strconv"

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

// line builds one Detail string in a caller's stack buffer, so a detail
// costs the single allocation of its string.
type line []byte

func (l line) str(s string) line { return append(l, s...) }
func (l line) int(v int) line    { return strconv.AppendInt(l, int64(v), 10) }
func (l line) fix(v float64, prec int) line {
	return strconv.AppendFloat(l, v, 'f', prec, 64)
}

// AppendArrival narrates the front door: the admission Drop of a rejected
// job, the autoscaler actuation the arrival triggered, and for an admitted
// job its placement (on engines with more than one lane) and its Algorithm 1
// insertion — position, plan length, scan length and the queue length the
// placer saw.
func AppendArrival(evs []trace.Event, now float64, job Job, a Arrival) []trace.Event {
	var buf [64]byte
	if a.Rejected {
		evs = append(evs, trace.Event{AtMs: now, Kind: trace.Drop, ReqID: job.ID, Model: job.Model,
			Detail: trace.ReasonAdmission + ": " + a.Detail})
	}
	switch sc := a.Scale; sc.Dir {
	case fleet.ScaleOut:
		evs = append(evs, trace.Event{AtMs: now, Kind: trace.ScaleOut, ReqID: -1, Device: sc.Device,
			Detail: string(line(buf[:0]).str("active=").int(sc.Active).str(" depth=").int(sc.Depth))})
	case fleet.ScaleIn:
		evs = append(evs, trace.Event{AtMs: now, Kind: trace.ScaleIn, ReqID: -1, Device: sc.Device,
			Detail: string(line(buf[:0]).str("active=").int(sc.Active).str(" drain=").int(sc.Depth))})
	}
	if a.Rejected {
		return evs
	}
	r := a.Req
	if a.placer != "" {
		evs = append(evs, trace.Event{AtMs: now, Kind: trace.Place, ReqID: r.ID, Model: r.Model,
			Device: r.Device, Part: r.Partition,
			Detail: string(line(buf[:0]).str("policy=").str(a.placer).str(" depth=").int(a.QueueLen))})
	}
	return append(evs, trace.Event{AtMs: now, Kind: trace.Arrive, ReqID: r.ID, Model: r.Model,
		Device: r.Device, Part: r.Partition,
		Detail: string(line(buf[:0]).str("pos=").int(a.Pos).str(" blocks=").int(len(r.BlockTimes)).
			str(" scanned=").int(a.Scanned).str(" qlen=").int(a.QueueLen))})
}

// AppendCancel narrates a cancellation taking effect: where it found the
// request, and for queued work the shed that follows at once. why, when
// non-empty, is the driver's cause ("client cancel", "connection lost")
// and is appended to the state. Unknown IDs and repeated cancellations of
// an in-flight request narrate nothing.
func AppendCancel(evs []trace.Event, now float64, c Cancellation, why string) []trace.Event {
	if !c.Marked {
		return evs
	}
	state := c.State.String()
	if why != "" {
		state = state + ": " + why
	}
	r := c.Req
	evs = append(evs, trace.Event{AtMs: now, Kind: trace.Cancel, ReqID: r.ID, Model: r.Model,
		Block: r.Next, Device: r.Device, Part: r.Partition, Detail: state})
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
		Block: r.Next, Device: r.Device, Detail: reason})
}

// AppendGrant narrates a grant: the deadline sheds of the boundary sweep,
// one StartBlock per member carrying the hold's priced duration (and the
// batch size or granted fraction that priced it), and the first attempt's
// latency spike.
func AppendGrant(evs []trace.Event, now float64, g Grant) []trace.Event {
	for _, r := range g.Shed {
		evs = AppendShed(evs, now, r, trace.ReasonDeadline)
	}
	if !g.OK {
		return evs
	}
	var buf [64]byte
	d := line(buf[:0]).str("dur=")
	switch {
	case g.BatchID != 0:
		d = d.fix(g.RunMs, 3).str(" n=").int(len(g.Batch))
	case g.spatial:
		d = d.fix(g.RunMs, 3).str(" frac=").fix(g.Frac, 2)
	default:
		d = d.fix(g.BaseMs, 3)
	}
	dur := string(d)
	for _, m := range g.Batch {
		evs = append(evs, trace.Event{AtMs: now, Kind: trace.StartBlock, ReqID: m.ID, Model: m.Model,
			Block: g.Block, Device: m.Device, Part: m.Partition, Batch: g.BatchID, Detail: dur})
	}
	return appendSpike(evs, now, g, g.Spike, g.Attempt)
}

// AppendSettle narrates the boundary of grant g. A retry reads as the
// transient fault and the next attempt's spike; a release as the terminal
// fault if the retry budget ran out, one EndBlock per member, and then each
// member's fate — Complete, Shed, or the Preempt of a requeue that was
// passed.
func AppendSettle(evs []trace.Event, now float64, g Grant, st Settlement) []trace.Event {
	var buf [64]byte
	if st.Retry {
		evs = appendFault(evs, now, g,
			string(line(buf[:0]).str("transient attempt=").int(st.Attempt-1).str(", retrying")))
		return appendSpike(evs, now, g, st.Spike, st.Attempt)
	}
	if st.Terminal {
		evs = appendFault(evs, now, g,
			string(line(buf[:0]).str("terminal after ").int(st.Attempt+1).str(" attempts")))
	}
	for _, m := range g.Batch {
		evs = append(evs, trace.Event{AtMs: now, Kind: trace.EndBlock, ReqID: m.ID, Model: m.Model,
			Block: g.Block, Device: m.Device, Part: m.Partition, Batch: g.BatchID})
	}
	for _, f := range st.Fates {
		r := f.Req
		switch f.Kind {
		case Served:
			evs = append(evs, trace.Event{AtMs: now, Kind: trace.Complete, ReqID: r.ID, Model: r.Model,
				Block: g.Block, Device: r.Device,
				Detail: string(line(buf[:0]).str("rr=").fix(r.ResponseRatio(), 2))})
		case Shed:
			evs = AppendShed(evs, now, r, f.Reason)
		case Requeued:
			if f.Pos > 0 {
				evs = append(evs, trace.Event{AtMs: now, Kind: trace.Preempt, ReqID: r.ID, Model: r.Model,
					Block: r.Next, Device: r.Device,
					Detail: string(line(buf[:0]).str("requeued at ").int(f.Pos))})
			}
		}
	}
	return evs
}

// appendFault narrates one injected fault on g's block; faults key on the
// leader.
func appendFault(evs []trace.Event, now float64, g Grant, detail string) []trace.Event {
	lead := g.Batch[0]
	return append(evs, trace.Event{AtMs: now, Kind: trace.Fault, ReqID: lead.ID, Model: lead.Model,
		Block: g.Block, Device: lead.Device, Detail: detail})
}

// appendSpike narrates an attempt's latency spike, if it drew one.
func appendSpike(evs []trace.Event, now float64, g Grant, spike float64, attempt int) []trace.Event {
	if spike <= 1 {
		return evs
	}
	var buf [64]byte
	return appendFault(evs, now, g,
		string(line(buf[:0]).str("spike x").fix(spike, 2).str(" attempt=").int(attempt)))
}
