package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace-event JSON ("trace event format"), the interchange format
// Perfetto and chrome://tracing open directly. The export maps the span
// tree onto per-device lanes: pid = fleet device, tid = request, complete
// ("X") events for exec intervals and wait/preempted gaps, instant ("i")
// events for arrivals, preemptions and settles. Timestamps are
// microseconds, as the format requires; displayTimeUnit keeps Perfetto's
// ruler in milliseconds.

// perfettoEvent is one trace-event record. Fields follow the published
// format: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
type perfettoEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TsUs  float64        `json:"ts"`
	DurUs float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// perfettoFile is the JSON object format of a trace-event recording.
type perfettoFile struct {
	TraceEvents     []perfettoEvent `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
	OtherData       map[string]any  `json:"otherData,omitempty"`
}

const usPerMs = 1000.0

// WritePerfetto renders the span tree as Chrome trace-event JSON. The
// queueing phases (wait, preempted) live on the request's own lane under a
// synthetic "queue" process (pid = -1 shifted to the max device + 1, since
// the format wants non-negative pids); exec intervals live under their
// device's pid so each device reads as one occupancy lane.
//
// On spatially shared fleets (any exec interval carrying a non-zero
// partition) each device's process is subdivided into per-partition
// threads — tid = partition slot, the request in args — so concurrent
// partition holds render as parallel tracks inside the device lane.
// Unpartitioned trees keep tid = request, byte-identical to before.
func (t *SpanTree) WritePerfetto(w io.Writer) error {
	maxDev := 0
	partitioned := false
	for i := range t.Requests {
		for _, d := range t.Requests[i].Devices {
			if d > maxDev {
				maxDev = d
			}
		}
		for _, iv := range t.Requests[i].Intervals {
			if iv.Part != 0 {
				partitioned = true
			}
		}
	}
	queuePID := maxDev + 1

	f := perfettoFile{DisplayTimeUnit: "ms", OtherData: map[string]any{
		"source":   "splittrace",
		"requests": len(t.Requests),
	}}
	devSeen := map[int]bool{}
	laneSeen := map[laneKey]bool{}
	add := func(e perfettoEvent) { f.TraceEvents = append(f.TraceEvents, e) }

	for i := range t.Requests {
		sp := &t.Requests[i]
		add(perfettoEvent{Name: "arrive", Cat: "lifecycle", Phase: "i", Scope: "t",
			TsUs: sp.ArriveMs * usPerMs, PID: queuePID, TID: sp.ReqID,
			Args: map[string]any{"model": sp.Model}})
		for _, iv := range sp.Intervals {
			switch iv.Phase {
			case PhaseExec:
				dev, part := int(iv.Device), int(iv.Part)
				devSeen[dev] = true
				args := map[string]any{"req": sp.ReqID, "model": sp.Model, "block": int(iv.Block)}
				if iv.Batch != 0 {
					args["batch"] = int(iv.Batch)
				}
				if d := iv.Detail(); d != "" {
					args["detail"] = d
				}
				tid := sp.ReqID
				if partitioned {
					tid = part
					args["part"] = part
					laneSeen[laneKey{dev, part}] = true
				}
				add(perfettoEvent{
					Name: fmt.Sprintf("%s/b%d", sp.Model, iv.Block), Cat: "exec", Phase: "X",
					TsUs: iv.StartMs * usPerMs, DurUs: iv.DurationMs() * usPerMs,
					PID: dev, TID: tid, Args: args,
				})
			default: // wait, preempted
				add(perfettoEvent{
					Name: iv.Phase.String(), Cat: "queue", Phase: "X",
					TsUs: iv.StartMs * usPerMs, DurUs: iv.DurationMs() * usPerMs,
					PID: queuePID, TID: sp.ReqID,
					Args: map[string]any{"model": sp.Model},
				})
			}
		}
		if sp.Decided() {
			add(perfettoEvent{Name: sp.Outcome, Cat: "lifecycle", Phase: "i", Scope: "t",
				TsUs: sp.DoneMs * usPerMs, PID: queuePID, TID: sp.ReqID,
				Args: map[string]any{
					"model": sp.Model, "wait_ms": sp.WaitMs, "exec_ms": sp.ExecMs,
					"preempted_ms": sp.PreemptedMs, "preemptions": sp.Preemptions,
				}})
		}
	}

	// Process/thread naming metadata so Perfetto labels the lanes.
	devs := make([]int, 0, len(devSeen))
	for d := range devSeen {
		devs = append(devs, d)
	}
	sort.Ints(devs)
	for _, d := range devs {
		add(perfettoEvent{Name: "process_name", Phase: "M", PID: d, TID: 0,
			Args: map[string]any{"name": fmt.Sprintf("device %d", d)}})
	}
	if partitioned {
		// Label each partition sub-lane so Perfetto renders "partition p"
		// tracks inside the device process.
		lanes := make([]laneKey, 0, len(laneSeen))
		for l := range laneSeen {
			lanes = append(lanes, l)
		}
		sort.Slice(lanes, func(i, j int) bool {
			if lanes[i].dev != lanes[j].dev {
				return lanes[i].dev < lanes[j].dev
			}
			return lanes[i].part < lanes[j].part
		})
		for _, l := range lanes {
			add(perfettoEvent{Name: "thread_name", Phase: "M", PID: l.dev, TID: l.part,
				Args: map[string]any{"name": fmt.Sprintf("partition %d", l.part)}})
		}
	}
	add(perfettoEvent{Name: "process_name", Phase: "M", PID: queuePID, TID: 0,
		Args: map[string]any{"name": "queue"}})

	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

// ValidatePerfetto parses data as Chrome trace-event JSON and checks the
// schema constraints this package relies on: an object with a traceEvents
// array whose entries all carry a phase, a name, non-negative timestamps
// and (for complete events) non-negative durations. It returns the number
// of trace events, so round-trip tests can compare against the source
// span tree.
func ValidatePerfetto(data []byte) (int, error) {
	var f perfettoFile
	if err := json.Unmarshal(data, &f); err != nil {
		return 0, fmt.Errorf("trace: perfetto export is not valid JSON: %w", err)
	}
	if f.DisplayTimeUnit != "ms" && f.DisplayTimeUnit != "ns" && f.DisplayTimeUnit != "" {
		return 0, fmt.Errorf("trace: bad displayTimeUnit %q", f.DisplayTimeUnit)
	}
	for i, e := range f.TraceEvents {
		if e.Phase == "" {
			return 0, fmt.Errorf("trace: event %d has no ph", i)
		}
		if e.Name == "" {
			return 0, fmt.Errorf("trace: event %d has no name", i)
		}
		if e.TsUs < 0 {
			return 0, fmt.Errorf("trace: event %d has negative ts %v", i, e.TsUs)
		}
		if e.Phase == "X" && e.DurUs < 0 {
			return 0, fmt.Errorf("trace: complete event %d has negative dur %v", i, e.DurUs)
		}
		if e.Phase == "i" && e.Scope != "t" && e.Scope != "p" && e.Scope != "g" && e.Scope != "" {
			return 0, fmt.Errorf("trace: instant event %d has bad scope %q", i, e.Scope)
		}
	}
	return len(f.TraceEvents), nil
}
