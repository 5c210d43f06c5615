package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Span is one contiguous device occupancy interval by a request.
type Span struct {
	ReqID int
	Model string
	Block int
	// Device is the fleet device the block ran on (0 single-device).
	Device int
	// Part is the device partition the block ran on (0 unpartitioned).
	Part int
	// Batch is the micro-batch id of the grant (0 unbatched); the members
	// of one batch share one device hold.
	Batch   int
	StartMs float64
	EndMs   float64
}

// DurationMs returns the span length.
func (s Span) DurationMs() float64 { return s.EndMs - s.StartMs }

// Spans pairs StartBlock/EndBlock events into device occupancy intervals,
// ordered by start time. Unpaired starts (still in flight at trace end) are
// dropped.
func (t *Tracer) Spans() []Span {
	type open struct {
		at     float64
		block  int
		device int
		part   int
		batch  int
		model  string
	}
	pending := map[int]open{}
	var spans []Span
	t.walk(func(e *Event) error {
		switch e.Kind {
		case StartBlock:
			pending[e.ReqID] = open{at: e.AtMs, block: e.Block, device: e.Device, part: int(e.Part), batch: e.Batch, model: e.Model}
		case EndBlock:
			if o, ok := pending[e.ReqID]; ok {
				spans = append(spans, Span{
					ReqID:   e.ReqID,
					Model:   o.model,
					Block:   o.block,
					Device:  o.device,
					Part:    o.part,
					Batch:   o.batch,
					StartMs: o.at,
					EndMs:   e.AtMs,
				})
				delete(pending, e.ReqID)
			}
		}
		return nil
	})
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartMs < spans[j].StartMs })
	return spans
}

// Analysis summarizes device behaviour over a trace.
type Analysis struct {
	// HorizonMs is the analysed interval [first event, last event].
	HorizonMs float64
	// BusyMs is total device occupancy (may exceed HorizonMs for
	// concurrent policies).
	BusyMs float64
	// Utilization is BusyMs/HorizonMs clamped to [0, ...].
	Utilization float64
	// BusyPeriods is the number of maximal busy intervals (sequential
	// policies only; overlapping spans are merged first).
	BusyPeriods int
	// MeanBusyPeriodMs is the average merged busy-interval length.
	MeanBusyPeriodMs float64
	// PerModelBusyMs attributes occupancy to models.
	PerModelBusyMs map[string]float64
	// PerDeviceBusyMs attributes occupancy to fleet devices; a
	// single-device trace has all its occupancy under key 0.
	PerDeviceBusyMs map[int]float64
	// Preemptions counts preempt events.
	Preemptions int
	// Completions counts complete events.
	Completions int
}

// Analyze computes the occupancy analysis of the trace.
func (t *Tracer) Analyze() Analysis {
	a := Analysis{PerModelBusyMs: map[string]float64{}, PerDeviceBusyMs: map[int]float64{}}
	if t.Len() == 0 {
		return a
	}
	first, last := math.Inf(1), math.Inf(-1)
	t.walk(func(e *Event) error {
		if e.AtMs < first {
			first = e.AtMs
		}
		if e.AtMs > last {
			last = e.AtMs
		}
		switch e.Kind {
		case Preempt:
			a.Preemptions++
		case Complete:
			a.Completions++
		}
		return nil
	})
	a.HorizonMs = last - first

	spans := t.Spans()
	// A micro-batch's members share one device hold: count it once per
	// batch id, not once per member.
	counted := map[int]bool{}
	for _, s := range spans {
		if s.Batch != 0 {
			if counted[s.Batch] {
				continue
			}
			counted[s.Batch] = true
		}
		a.BusyMs += s.DurationMs()
		a.PerModelBusyMs[s.Model] += s.DurationMs()
		a.PerDeviceBusyMs[s.Device] += s.DurationMs()
	}
	if a.HorizonMs > 0 {
		a.Utilization = a.BusyMs / a.HorizonMs
	}

	// Merge overlapping/contiguous spans into busy periods.
	const eps = 1e-9
	var curStart, curEnd float64
	started := false
	var periods []float64
	for _, s := range spans {
		switch {
		case !started:
			curStart, curEnd = s.StartMs, s.EndMs
			started = true
		case s.StartMs <= curEnd+eps:
			if s.EndMs > curEnd {
				curEnd = s.EndMs
			}
		default:
			periods = append(periods, curEnd-curStart)
			curStart, curEnd = s.StartMs, s.EndMs
		}
	}
	if started {
		periods = append(periods, curEnd-curStart)
	}
	a.BusyPeriods = len(periods)
	if len(periods) > 0 {
		var sum float64
		for _, p := range periods {
			sum += p
		}
		a.MeanBusyPeriodMs = sum / float64(len(periods))
	}
	return a
}

// String renders the analysis.
func (a Analysis) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "horizon=%.1fms busy=%.1fms util=%.1f%% busyPeriods=%d meanBusyPeriod=%.1fms preempts=%d completions=%d\n",
		a.HorizonMs, a.BusyMs, a.Utilization*100, a.BusyPeriods, a.MeanBusyPeriodMs, a.Preemptions, a.Completions)
	models := make([]string, 0, len(a.PerModelBusyMs))
	for m := range a.PerModelBusyMs {
		models = append(models, m)
	}
	sort.Strings(models)
	for _, m := range models {
		fmt.Fprintf(&b, "  %-12s %.1fms\n", m, a.PerModelBusyMs[m])
	}
	return b.String()
}
