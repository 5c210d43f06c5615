package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the harness around a call into a
// layer. Spans of one request share Req; harness-level spans carry Req -1.
type span struct {
	ID     int
	Parent int // span id, -1 for a root
	Req    int
	Name   string
	Start  time.Duration // since the log's epoch
	End    time.Duration
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, which is how the untraced run stays free of tracing cost.
type spanLog struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	// open is the stack of spans opened by in on the harness goroutine.
	open []int
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// in runs fn inside a span named name, nested under the innermost span
// opened by an enclosing in. It must only be called from the harness's own
// goroutine; request spans from other goroutines use add.
func (l *spanLog) in(name string, fn func()) {
	if l == nil {
		fn()
		return
	}
	l.mu.Lock()
	parent := -1
	if len(l.open) > 0 {
		parent = l.open[len(l.open)-1]
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: -1, Name: name, Start: time.Since(l.epoch)})
	l.open = append(l.open, id)
	l.mu.Unlock()

	fn()

	l.mu.Lock()
	l.spans[id].End = time.Since(l.epoch)
	l.open = l.open[:len(l.open)-1]
	l.mu.Unlock()
}

// current returns the innermost open span, -1 when none is.
func (l *spanLog) current() int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.open) == 0 {
		return -1
	}
	return l.open[len(l.open)-1]
}

// add records a finished span and returns its id. Safe for concurrent use.
func (l *spanLog) add(parent, req int, name string, start, end time.Time) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(l.epoch), End: end.Sub(l.epoch)})
	return id
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its child spans cover.
func (l *spanLog) selfTimes() map[string]time.Duration {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make(map[int][]int)
	for _, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range l.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return l.spans[kids[i]].Start < l.spans[kids[j]].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			c := l.spans[k]
			from, to := c.Start, c.End
			if from < edge {
				from = edge
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				covered += to - from
				edge = to
			}
		}
		out[s.Name] += (s.End - s.Start) - covered
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format
// that chrome://tracing and ui.perfetto.dev load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// requestLanes bounds how many timeline rows request spans spread over;
// requests in flight together would otherwise draw on top of each other.
const requestLanes = 128

// write renders the log as Chrome trace-event JSON under dir and returns
// the file's path. Harness spans go to thread 0; each request's spans share
// one of requestLanes rows.
func (l *spanLog) write(dir, name string) (string, error) {
	l.mu.Lock()
	events := make([]chromeEvent, 0, len(l.spans))
	for _, s := range l.spans {
		tid := 0
		if s.Req >= 0 {
			tid = 1 + s.Req%requestLanes
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: tid,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
	}
	l.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, name+".trace.json")
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
