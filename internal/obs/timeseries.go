package obs

import (
	"sync"

	"split/internal/policy"
	"split/internal/trace"
)

// TimeSeries is the rolling windowed counterpart of RollingQoS: instead of
// one digest over the last N completions, it buckets the run into
// fixed-width virtual-time windows and keeps the most recent ones, so
// diurnal and bursty workloads show up as a *trajectory* — throughput,
// viol@α, queue depth and per-device busy fraction per window — rather
// than a single point. It is fed live by serve.Server and offline from a
// (records, events) pair, so /timeseriesz and splitexp trace dumps agree on
// the same formulas.
//
// All methods are concurrency-safe and nil-safe (no-ops / zero snapshots),
// matching the package's sink conventions.
type TimeSeries struct {
	mu       sync.Mutex
	alpha    float64
	windowMs float64
	devices  int
	// windows is a dense ring of consecutive windows; base is the window
	// index (atMs / windowMs) of slot 0's window, head the highest index
	// observed so far.
	windows []windowAgg
	base    int
	started bool
	head    int
	// dropped counts observations older than the retained range.
	dropped int
	// spare holds the busy arrays of evicted windows for later windows to
	// reuse: under an accelerated clock a window can pass every few holds.
	// An array is made only when spare is empty, so there are never more
	// than len(windows) of them, and spare's capacity is that.
	spare [][]float64
}

// windowAgg accumulates one window.
type windowAgg struct {
	arrivals    int
	completions int
	sheds       int
	violations  int // completions with RR > α, plus all sheds
	busyMs      []float64
	// activeMs tracks how long each device was attached within the window;
	// nil when the feed carries no membership information, in which case
	// the whole window is the busy-fraction denominator (the fixed-fleet
	// case). Allocated on the first ObserveActive, exactly like busyMs.
	activeMs []float64
	depthSum float64
	depthN   int
}

// WindowStat is one window of the /timeseriesz payload.
type WindowStat struct {
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
	// Arrivals, Completions and Sheds count lifecycle edges inside the
	// window (a request arriving in one window may complete in another).
	Arrivals    int `json:"arrivals"`
	Completions int `json:"completions"`
	Sheds       int `json:"sheds"`
	// ViolationRate is (completions with RR > α + sheds) over decided
	// requests in the window — the windowed Figure 6 formula.
	ViolationRate float64 `json:"violation_rate"`
	// ThroughputRPS is completions per second of virtual time.
	ThroughputRPS float64 `json:"throughput_rps"`
	// MeanQueueDepth averages the depth samples taken in the window; -1
	// when the window saw no samples.
	MeanQueueDepth float64 `json:"mean_queue_depth"`
	// DeviceBusyFrac is each device's busy fraction of the time it was
	// attached within the window (the whole window when the feed carries no
	// membership spans). A device attached for the last 100 ms of a 1000 ms
	// window and busy throughout reads 1.0, not 0.1 — dividing by the full
	// window diluted exactly the devices the autoscaler just added.
	DeviceBusyFrac []float64 `json:"device_busy_frac"`
}

// TimeSeriesSnapshot is the full /timeseriesz payload.
type TimeSeriesSnapshot struct {
	Alpha    float64      `json:"alpha"`
	WindowMs float64      `json:"window_ms"`
	Devices  int          `json:"devices"`
	Dropped  int          `json:"dropped,omitempty"`
	Windows  []WindowStat `json:"windows"`
}

// DefaultTimeSeriesWindowMs is the window width used when callers pass <= 0.
const DefaultTimeSeriesWindowMs = 1000

// DefaultTimeSeriesCapacity is the number of retained windows when callers
// pass <= 0.
const DefaultTimeSeriesCapacity = 120

// NewTimeSeries returns a snapshotter over `capacity` windows of
// `windowMs` virtual milliseconds for a fleet of `devices` (minimum 1).
func NewTimeSeries(alpha, windowMs float64, capacity, devices int) *TimeSeries {
	if alpha <= 0 {
		alpha = 4
	}
	if windowMs <= 0 {
		windowMs = DefaultTimeSeriesWindowMs
	}
	if capacity <= 0 {
		capacity = DefaultTimeSeriesCapacity
	}
	if devices < 1 {
		devices = 1
	}
	return &TimeSeries{alpha: alpha, windowMs: windowMs, devices: devices,
		windows: make([]windowAgg, capacity), spare: make([][]float64, 0, capacity)}
}

// slot returns the aggregation bucket for atMs, advancing/evicting the ring
// as needed, or nil when atMs predates the retained range. Caller holds mu.
func (ts *TimeSeries) slot(atMs float64) *windowAgg {
	if atMs < 0 {
		atMs = 0
	}
	idx := int(atMs / ts.windowMs)
	if !ts.started {
		ts.started = true
		ts.base = 0
		if idx >= len(ts.windows) {
			ts.base = idx - len(ts.windows) + 1
		}
		ts.head = idx
	}
	if idx > ts.head {
		ts.head = idx
	}
	if idx < ts.base {
		ts.dropped++
		return nil
	}
	if idx >= ts.base+len(ts.windows) {
		// Evict the oldest windows to fit idx: shift the dense ring.
		shift := idx - (ts.base + len(ts.windows)) + 1
		for i := range min(shift, len(ts.windows)) {
			if b := ts.windows[i].busyMs; b != nil {
				ts.spare = ts.spare[:len(ts.spare)+1]
				ts.spare[len(ts.spare)-1] = b
			}
		}
		if shift >= len(ts.windows) {
			for i := range ts.windows {
				ts.windows[i] = windowAgg{}
			}
			ts.base = idx - len(ts.windows) + 1
		} else {
			copy(ts.windows, ts.windows[shift:])
			for i := len(ts.windows) - shift; i < len(ts.windows); i++ {
				ts.windows[i] = windowAgg{}
			}
			ts.base += shift
		}
	}
	return &ts.windows[idx-ts.base]
}

// ObserveArrival records a request entering the system at atMs.
func (ts *TimeSeries) ObserveArrival(atMs float64) {
	if ts == nil {
		return
	}
	ts.mu.Lock()
	if w := ts.slot(atMs); w != nil {
		w.arrivals++
	}
	ts.mu.Unlock()
}

// ObserveOutcome records a decided request — served or shed — bucketed by
// its decision time (DoneMs), using the same served/violation semantics as
// the offline harness: sheds always violate, completions violate when
// RR > α.
func (ts *TimeSeries) ObserveOutcome(rec policy.Record) {
	if ts == nil {
		return
	}
	ts.mu.Lock()
	if w := ts.slot(rec.DoneMs); w != nil {
		if rec.Served() {
			w.completions++
			if rec.ResponseRatio() > ts.alpha {
				w.violations++
			}
		} else {
			w.sheds++
			w.violations++
		}
	}
	ts.mu.Unlock()
}

// ObserveBusyFrac attributes one device hold occupying frac of the device
// — 1 for a whole-device hold, less for a partition grant — to the windows
// it crosses. A hold of frac f for t ms contributes f·t busy-ms, so
// concurrent partition lanes can never push a device's windowed busy
// fraction past 1.
func (ts *TimeSeries) ObserveBusyFrac(device int, startMs, endMs, frac float64) {
	if ts == nil || endMs <= startMs || device < 0 || device >= ts.devices || frac <= 0 {
		return
	}
	if frac > 1 {
		frac = 1
	}
	ts.mu.Lock()
	for cur := startMs; cur < endMs; {
		winEnd := (float64(int(cur/ts.windowMs)) + 1) * ts.windowMs
		if winEnd > endMs {
			winEnd = endMs
		}
		if w := ts.slot(cur); w != nil {
			if w.busyMs == nil {
				w.busyMs = ts.busyArray()
			}
			w.busyMs[device] += frac * (winEnd - cur)
		}
		cur = winEnd
	}
	ts.mu.Unlock()
}

// busyArray returns a zeroed per-device busy array, an evicted window's
// if one is spare. Caller holds mu.
func (ts *TimeSeries) busyArray() []float64 {
	n := len(ts.spare)
	if n == 0 {
		return make([]float64, ts.devices)
	}
	b := ts.spare[n-1]
	ts.spare = ts.spare[:n-1]
	clear(b)
	return b
}

// ObserveActive attributes one attach span [startMs, endMs] of a device to
// the windows it crosses, pro-rated. Feeding attach spans switches the
// busy-fraction denominator from the full window to the device's attached
// time within it, which is what makes the fraction honest across the
// attach boundary: without it, a device attached mid-window divides its
// busy time by the whole window and reads mostly idle the moment it joins.
func (ts *TimeSeries) ObserveActive(device int, startMs, endMs float64) {
	if ts == nil || endMs <= startMs || device < 0 || device >= ts.devices {
		return
	}
	ts.mu.Lock()
	for cur := startMs; cur < endMs; {
		winEnd := (float64(int(cur/ts.windowMs)) + 1) * ts.windowMs
		if winEnd > endMs {
			winEnd = endMs
		}
		if w := ts.slot(cur); w != nil {
			if w.activeMs == nil {
				w.activeMs = make([]float64, ts.devices)
			}
			w.activeMs[device] += winEnd - cur
		}
		cur = winEnd
	}
	ts.mu.Unlock()
}

// ObserveDepth records a queue-depth sample at atMs.
func (ts *TimeSeries) ObserveDepth(atMs float64, depth int) {
	if ts == nil {
		return
	}
	ts.mu.Lock()
	if w := ts.slot(atMs); w != nil {
		w.depthSum += float64(depth)
		w.depthN++
	}
	ts.mu.Unlock()
}

// Snapshot renders the retained windows oldest-first, ending at the latest
// window observed. Leading never-observed windows are trimmed; interior
// empty windows are kept (an idle second is data). Nil-safe.
func (ts *TimeSeries) Snapshot() TimeSeriesSnapshot {
	if ts == nil {
		return TimeSeriesSnapshot{}
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	snap := TimeSeriesSnapshot{Alpha: ts.alpha, WindowMs: ts.windowMs,
		Devices: ts.devices, Dropped: ts.dropped}
	if !ts.started {
		return snap
	}
	last := ts.head
	if last >= ts.base+len(ts.windows) {
		last = ts.base + len(ts.windows) - 1
	}
	for idx := ts.base; idx <= last; idx++ {
		w := ts.windows[idx-ts.base]
		ws := WindowStat{
			StartMs:        float64(idx) * ts.windowMs,
			EndMs:          float64(idx+1) * ts.windowMs,
			Arrivals:       w.arrivals,
			Completions:    w.completions,
			Sheds:          w.sheds,
			ThroughputRPS:  float64(w.completions) / (ts.windowMs / 1000),
			MeanQueueDepth: -1,
			DeviceBusyFrac: make([]float64, ts.devices),
		}
		if decided := w.completions + w.sheds; decided > 0 {
			ws.ViolationRate = float64(w.violations) / float64(decided)
		}
		if w.depthN > 0 {
			ws.MeanQueueDepth = w.depthSum / float64(w.depthN)
		}
		for d := range ws.DeviceBusyFrac {
			if w.busyMs == nil {
				continue
			}
			denom := ts.windowMs
			if w.activeMs != nil {
				// Membership-aware denominator: busy over attached time. A
				// device with no attached time in the window reads 0 — it
				// cannot have been busy (Attach refuses busy devices).
				denom = w.activeMs[d]
				if denom <= 0 {
					continue
				}
			}
			frac := w.busyMs[d] / denom
			if frac > 1 {
				frac = 1
			}
			ws.DeviceBusyFrac[d] = frac
		}
		snap.Windows = append(snap.Windows, ws)
	}
	// Trim leading windows before the first observation.
	for len(snap.Windows) > 0 && emptyWindow(snap.Windows[0]) {
		snap.Windows = snap.Windows[1:]
	}
	return snap
}

// emptyWindow reports whether a window saw no observations at all.
func emptyWindow(w WindowStat) bool {
	if w.Arrivals != 0 || w.Completions != 0 || w.Sheds != 0 || w.MeanQueueDepth >= 0 {
		return false
	}
	for _, f := range w.DeviceBusyFrac {
		if f != 0 {
			return false
		}
	}
	return true
}

// TimeSeriesFromRun folds an offline run — the per-request records plus
// the event trace — into the same windowed series the live server
// produces, so `policy.Split` runs are inspectable with the exact
// /timeseriesz semantics. Busy time comes from the exec intervals of the
// run's span tree, each at its Interval.Occupancy; depth is sampled at
// every arrival from the arrive/settle balance.
func TimeSeriesFromRun(recs []policy.Record, events []trace.Event, alpha, windowMs float64, devices int) TimeSeriesSnapshot {
	if devices < 1 {
		devices = 1
	}
	horizon := 0.0
	for _, r := range recs {
		if r.DoneMs > horizon {
			horizon = r.DoneMs
		}
	}
	for _, e := range events {
		if e.AtMs > horizon {
			horizon = e.AtMs
		}
	}
	if windowMs <= 0 {
		windowMs = DefaultTimeSeriesWindowMs
	}
	capacity := int(horizon/windowMs) + 1
	ts := NewTimeSeries(alpha, windowMs, capacity, devices)
	for _, r := range recs {
		ts.ObserveArrival(r.ArriveMs)
		ts.ObserveOutcome(r)
	}
	// Membership spans: fold ScaleOut/ScaleIn control events into per-device
	// attach spans so busy fractions across the attach boundary divide by
	// attached time, matching the live server's feed. Traces without scale
	// events carry no membership information and keep the full-window
	// denominator. (ScaleIn marks the start of drain-then-release; using it
	// as the span end slightly undercounts the drain tail, which only makes
	// the reported fraction conservative.)
	sawScale := false
	for _, e := range events {
		if e.Kind == trace.ScaleOut || e.Kind == trace.ScaleIn {
			sawScale = true
			break
		}
	}
	if sawScale {
		attachedFrom := map[int]float64{}
		touched := map[int]bool{}
		for _, e := range events {
			dev := int(e.Device)
			switch e.Kind {
			case trace.ScaleOut:
				touched[dev] = true
				attachedFrom[dev] = e.AtMs
			case trace.ScaleIn:
				start, wasOpen := attachedFrom[dev]
				if !wasOpen {
					if touched[dev] {
						break // duplicate scale-in; no open span to close
					}
					// First sight is a scale-in: attached since time 0.
					start = 0
				}
				touched[dev] = true
				ts.ObserveActive(dev, start, e.AtMs)
				delete(attachedFrom, dev)
			}
		}
		for d, start := range attachedFrom {
			ts.ObserveActive(d, start, horizon)
		}
		for d := 0; d < devices; d++ {
			if !touched[d] {
				ts.ObserveActive(d, 0, horizon)
			}
		}
	}

	depth := 0
	for _, e := range events {
		switch e.Kind {
		case trace.Arrive:
			depth++
			ts.ObserveDepth(e.AtMs, depth)
		case trace.Complete, trace.Shed:
			if depth > 0 {
				depth--
			}
		}
	}
	tree := trace.BuildSpans(events)
	counted := map[int]bool{}
	for _, sp := range tree.Requests {
		for _, iv := range sp.Intervals {
			if iv.Phase == trace.PhaseExec {
				ts.ObserveBusyFrac(int(iv.Device), iv.StartMs, iv.EndMs, iv.Occupancy(counted))
			}
		}
	}
	return ts.Snapshot()
}
