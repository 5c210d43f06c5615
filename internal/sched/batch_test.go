package sched

import (
	"testing"

	"split/internal/model"
	"split/internal/modelid"
)

// mkReq builds a queued-style request with n equal blocks.
func mkReq(id int, modelName string, arriveMs float64, nblocks int, blockMs float64) *Request {
	bt := make([]float64, nblocks)
	for i := range bt {
		bt[i] = blockMs
	}
	return NewRequest(id, modelName, model.Short, arriveMs, blockMs*float64(nblocks), bt)
}

func TestBatchPlannerDisabled(t *testing.T) {
	for _, max := range []int{-1, 0, 1} {
		q := NewQueue(4)
		q.PushBack(mkReq(1, "m", 0, 2, 10))
		q.PushBack(mkReq(2, "m", 1, 2, 10))
		head := mkReq(0, "m", 0, 2, 10)
		batch := BatchPlanner{Max: max}.FormInto(nil, q, head, 5)
		if len(batch) != 1 || batch[0] != head {
			t.Fatalf("Max=%d: batch = %d members, want just the head", max, len(batch))
		}
		if q.Len() != 2 {
			t.Fatalf("Max=%d: disabled planner mutated the queue (len %d)", max, q.Len())
		}
		if (BatchPlanner{Max: max}).Enabled() {
			t.Fatalf("Max=%d reports Enabled", max)
		}
	}
}

func TestBatchPlannerFormsSameTypeRun(t *testing.T) {
	q := NewQueue(4)
	q.PushBack(mkReq(1, "m", 1, 2, 10))
	q.PushBack(mkReq(2, "m", 2, 2, 10))
	q.PushBack(mkReq(3, "m", 3, 2, 10))
	q.PushBack(mkReq(4, "other", 4, 2, 10))
	q.PushBack(mkReq(5, "m", 5, 2, 10)) // behind "other": must not batch past it
	head := mkReq(0, "m", 0, 2, 10)

	batch := BatchPlanner{Max: 3}.FormInto(nil, q, head, 6)
	ids := make([]int, len(batch))
	for i, m := range batch {
		ids[i] = m.ID
	}
	if len(batch) != 3 || ids[0] != 0 || ids[1] != 1 || ids[2] != 2 {
		t.Fatalf("batch ids = %v, want [0 1 2] (Max-capped FIFO prefix)", ids)
	}
	if q.Len() != 3 || q.At(0).ID != 3 {
		t.Fatalf("queue after formation: len=%d front=%d, want 3 requests led by id 3", q.Len(), q.At(0).ID)
	}
}

func TestBatchPlannerStopsAtBoundaryMismatch(t *testing.T) {
	q := NewQueue(4)
	ahead := mkReq(1, "m", 1, 2, 10)
	ahead.Next = 1 // re-inserted at a different block boundary
	q.PushBack(ahead)
	q.PushBack(mkReq(2, "m", 2, 2, 10))
	head := mkReq(0, "m", 0, 2, 10)
	if batch := (BatchPlanner{Max: 4}).FormInto(nil, q, head, 3); len(batch) != 1 {
		t.Fatalf("batched across a block-index mismatch: %d members", len(batch))
	}

	// An elastic-suppressed unsplit neighbor (1 block) must not join a
	// split head (2 blocks) even at the same index.
	q2 := NewQueue(4)
	q2.PushBack(mkReq(3, "m", 1, 1, 20))
	if batch := (BatchPlanner{Max: 4}).FormInto(nil, q2, head, 3); len(batch) != 1 {
		t.Fatalf("batched a split head with an unsplit member: %d members", len(batch))
	}
}

func TestBatchPlannerNeverSpansDoomedOrCanceled(t *testing.T) {
	now := 100.0
	q := NewQueue(4)
	doomed := mkReq(1, "m", 1, 2, 10)
	doomed.DeadlineMs = now + 5 // needs 20ms, 5 left: doomed but not expired
	q.PushBack(doomed)
	q.PushBack(mkReq(2, "m", 2, 2, 10))
	head := mkReq(0, "m", 0, 2, 10)
	if batch := (BatchPlanner{Max: 4}).FormInto(nil, q, head, now); len(batch) != 1 {
		t.Fatalf("batch spans a doomed request: %d members", len(batch))
	}

	q2 := NewQueue(4)
	canceled := mkReq(3, "m", 1, 2, 10)
	canceled.Canceled = true
	q2.PushBack(canceled)
	q2.PushBack(mkReq(4, "m", 2, 2, 10))
	if batch := (BatchPlanner{Max: 4}).FormInto(nil, q2, head, now); len(batch) != 1 {
		t.Fatalf("batch spans a canceled request: %d members", len(batch))
	}

	// A doomed head never drags healthy work into its grant.
	q3 := NewQueue(4)
	q3.PushBack(mkReq(5, "m", 1, 2, 10))
	badHead := mkReq(6, "m", 0, 2, 10)
	badHead.DeadlineMs = now + 5
	if batch := (BatchPlanner{Max: 4}).FormInto(nil, q3, badHead, now); len(batch) != 1 {
		t.Fatalf("doomed head formed a batch: %d members", len(batch))
	}
}

// TestElasticInflightBoundary pins the fixed §3.3 same-type threshold
// semantics: the run the arrival joins includes the request occupying the
// device, so suppression starts when queued + in-flight same-type requests
// reach SameTypeLimit — exactly at the limit, not one past it.
func TestElasticInflightBoundary(t *testing.T) {
	e := Elastic{Enabled: true, SameTypeLimit: 3}

	q := NewQueue(4)
	q.PushBack(mkReq(1, "m", 1, 2, 10))
	q.PushBack(mkReq(2, "m", 2, 2, 10))
	inflight := mkReq(0, "m", 0, 2, 10)

	// 2 queued + 1 in flight = run of 3 = limit: suppress.
	if e.ShouldSplitWith(q, modelid.Intern("m"), inflight) {
		t.Error("run of SameTypeLimit (with in-flight head) not suppressed")
	}
	// The queue-only view sees 2 < 3: this is the off-by-one the fix
	// closes, and ShouldSplit (no in-flight knowledge) still reports it.
	if !e.ShouldSplit(q, "m") {
		t.Error("queue-only view should not suppress at 2 of 3")
	}
	// A different-model in-flight request is not part of the run.
	if !e.ShouldSplitWith(q, modelid.Intern("m"), mkReq(9, "other", 0, 2, 10)) {
		t.Error("different-model in-flight request counted into the run")
	}
	// One under the limit stays unsuppressed even with the in-flight count.
	q2 := NewQueue(4)
	q2.PushBack(mkReq(1, "m", 1, 2, 10))
	if !e.ShouldSplitWith(q2, modelid.Intern("m"), inflight) {
		t.Error("run of SameTypeLimit-1 suppressed")
	}
	// An idle device (nil in-flight) degrades to the queue-only count:
	// 2 queued < 3, so splitting stays on.
	if !e.ShouldSplitWith(q, modelid.Intern("m"), nil) {
		t.Error("nil in-flight should match the queue-only ShouldSplit decision")
	}
}

func TestElasticInflightHighLoadUnchanged(t *testing.T) {
	// The high-load trigger measures queue density only: an in-flight
	// request must not tip it.
	e := Elastic{Enabled: true, HighLoadQueueLen: 2}
	q := NewQueue(4)
	q.PushBack(mkReq(1, "a", 1, 2, 10))
	if !e.ShouldSplitWith(q, modelid.Intern("b"), mkReq(0, "c", 0, 2, 10)) {
		t.Error("in-flight request counted into the high-load queue length")
	}
	q.PushBack(mkReq(2, "b", 2, 2, 10))
	if e.ShouldSplitWith(q, modelid.Intern("b"), nil) {
		t.Error("high-load trigger lost")
	}
}
