package trace

import (
	"fmt"
	"sort"
	"strings"
)

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
	// Completions counts served requests.
	Completions int
}

// Analyze is shorthand for the occupancy analysis of the trace's span
// tree.
func (t *Tracer) Analyze() Analysis {
	return SpanBuilder{}.BuildTracer(t).Analyze()
}

// Analyze computes the device occupancy of the tree's exec intervals, each
// hold at the share of its device it occupies (Interval.Occupancy), summed
// in start-time order. A grant still open at the stream's end counts up to
// the stream's last event (see SpanTree).
func (t *SpanTree) Analyze() Analysis {
	a := Analysis{HorizonMs: t.LastMs - t.FirstMs,
		PerModelBusyMs: map[string]float64{}, PerDeviceBusyMs: map[int]float64{}}
	type hold struct {
		iv    *Interval
		model string
	}
	var holds []hold
	for i := range t.Requests {
		sp := &t.Requests[i]
		a.Preemptions += sp.Preemptions
		if sp.Outcome == SpanOutcomeServed {
			a.Completions++
		}
		for j := range sp.Intervals {
			if iv := &sp.Intervals[j]; iv.Phase == PhaseExec {
				holds = append(holds, hold{iv, sp.Model})
			}
		}
	}
	sort.SliceStable(holds, func(i, j int) bool { return holds[i].iv.StartMs < holds[j].iv.StartMs })

	counted := map[int]bool{}
	for _, h := range holds {
		if occ := h.iv.Occupancy(counted); occ > 0 {
			busy := h.iv.DurationMs() * occ
			a.BusyMs += busy
			a.PerModelBusyMs[h.model] += busy
			a.PerDeviceBusyMs[int(h.iv.Device)] += busy
		}
	}
	if a.HorizonMs > 0 {
		a.Utilization = a.BusyMs / a.HorizonMs
	}

	// Merge overlapping/contiguous holds into busy periods.
	const eps = 1e-9
	var curStart, curEnd float64
	var periods []float64
	for i, h := range holds {
		switch s := h.iv; {
		case i == 0:
			curStart, curEnd = s.StartMs, s.EndMs
		case s.StartMs <= curEnd+eps:
			if s.EndMs > curEnd {
				curEnd = s.EndMs
			}
		default:
			periods = append(periods, curEnd-curStart)
			curStart, curEnd = s.StartMs, s.EndMs
		}
	}
	if len(holds) > 0 {
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
