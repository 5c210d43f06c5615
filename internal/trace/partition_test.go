package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"split/internal/modelid"
)

// partitionStream is two requests executing concurrently on distinct
// partitions of device 0, plus one on device 1 without partitions.
func partitionStream() []Event {
	return []Event{
		{AtMs: 0, Kind: Arrive, ReqID: 1, Model: modelid.Intern("a")},
		{AtMs: 0, Kind: Arrive, ReqID: 2, Model: modelid.Intern("b")},
		{AtMs: 0, Kind: Arrive, ReqID: 3, Model: modelid.Intern("c")},
		{AtMs: 1, Kind: StartBlock, ReqID: 1, Model: modelid.Intern("a"), Block: 0, Device: 0, Part: 0},
		{AtMs: 2, Kind: StartBlock, ReqID: 2, Model: modelid.Intern("b"), Block: 0, Device: 0, Part: 1},
		{AtMs: 3, Kind: StartBlock, ReqID: 3, Model: modelid.Intern("c"), Block: 0, Device: 1},
		{AtMs: 10, Kind: EndBlock, ReqID: 1, Model: modelid.Intern("a"), Block: 0, Device: 0, Part: 0},
		{AtMs: 12, Kind: EndBlock, ReqID: 2, Model: modelid.Intern("b"), Block: 0, Device: 0, Part: 1},
		{AtMs: 13, Kind: EndBlock, ReqID: 3, Model: modelid.Intern("c"), Block: 0, Device: 1},
		{AtMs: 10, Kind: Complete, ReqID: 1, Model: modelid.Intern("a")},
		{AtMs: 12, Kind: Complete, ReqID: 2, Model: modelid.Intern("b")},
		{AtMs: 13, Kind: Complete, ReqID: 3, Model: modelid.Intern("c")},
	}
}

// TestSpanPartitionOverlapLegal: concurrent grants on distinct partitions
// of one device fold clean — exclusivity is per lane, not per device.
func TestSpanPartitionOverlapLegal(t *testing.T) {
	tree := BuildSpans(partitionStream())
	if len(tree.Problems) != 0 {
		t.Fatalf("partition-overlapping stream reported problems: %v", tree.Problems)
	}
	sp := tree.Span(2)
	if sp == nil || len(sp.Intervals) == 0 {
		t.Fatal("req 2 span missing")
	}
	var exec *Interval
	for i := range sp.Intervals {
		if sp.Intervals[i].Phase == PhaseExec {
			exec = &sp.Intervals[i]
		}
	}
	if exec == nil || exec.Part != 1 {
		t.Fatalf("req 2 exec interval did not carry part 1: %+v", exec)
	}
}

// TestSpanSamePartitionOverlapReported: two grants on the SAME partition
// overlapping is still the invariant violation it always was.
func TestSpanSamePartitionOverlapReported(t *testing.T) {
	events := []Event{
		{AtMs: 0, Kind: Arrive, ReqID: 1, Model: modelid.Intern("a")},
		{AtMs: 0, Kind: Arrive, ReqID: 2, Model: modelid.Intern("b")},
		{AtMs: 1, Kind: StartBlock, ReqID: 1, Model: modelid.Intern("a"), Device: 0, Part: 1},
		{AtMs: 2, Kind: StartBlock, ReqID: 2, Model: modelid.Intern("b"), Device: 0, Part: 1},
		{AtMs: 10, Kind: EndBlock, ReqID: 1, Model: modelid.Intern("a"), Device: 0, Part: 1},
		{AtMs: 12, Kind: EndBlock, ReqID: 2, Model: modelid.Intern("b"), Device: 0, Part: 1},
	}
	tree := BuildSpans(events)
	if len(tree.Problems) != 1 {
		t.Fatalf("problems = %v, want exactly the same-lane overlap", tree.Problems)
	}
	if !strings.Contains(tree.Problems[0], "device 0 part 1") {
		t.Errorf("problem does not name the lane: %q", tree.Problems[0])
	}
}

// TestPerfettoPartitionLanes: a partitioned tree subdivides each device
// process into per-partition threads with name metadata; an unpartitioned
// tree keeps request-keyed tids with no thread metadata.
func TestPerfettoPartitionLanes(t *testing.T) {
	tree := BuildSpans(partitionStream())
	var buf bytes.Buffer
	if err := tree.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidatePerfetto(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Cat   string         `json:"cat"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	threadNames := 0
	for _, e := range f.TraceEvents {
		if e.Name == "thread_name" && e.Phase == "M" {
			threadNames++
		}
		if e.Cat == "exec" && e.PID == 0 {
			// Device 0 exec events live on partition-keyed tids.
			if e.TID != 0 && e.TID != 1 {
				t.Errorf("device 0 exec tid = %d, want a partition slot", e.TID)
			}
			if _, ok := e.Args["part"]; !ok {
				t.Errorf("device 0 exec event missing part arg: %+v", e)
			}
		}
	}
	// Lanes seen: (0,0), (0,1), (1,0) => three thread_name records.
	if threadNames != 3 {
		t.Errorf("thread_name records = %d, want 3", threadNames)
	}

	// Unpartitioned: no thread metadata, tids stay request IDs.
	events := partitionStream()
	for i := range events {
		events[i].Part = 0
	}
	buf.Reset()
	if err := BuildSpans(events).WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "thread_name") {
		t.Error("unpartitioned export grew thread metadata")
	}
	if strings.Contains(buf.String(), `"part"`) {
		t.Error("unpartitioned export grew part args")
	}
}
