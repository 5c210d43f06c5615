package sched

import (
	"testing"
)

func TestDeadlinePredicates(t *testing.T) {
	r := newReq(1, "m", 100, 30, 10, 10, 10)
	if r.Expired(1e9) || r.Doomed(1e9) {
		t.Error("request without a deadline expired")
	}
	r.SetDeadline(4) // deadline = 100 + 4*30 = 220
	if r.DeadlineMs != 220 {
		t.Fatalf("deadline = %v, want 220", r.DeadlineMs)
	}
	if r.Expired(220) {
		t.Error("expired exactly at the deadline")
	}
	if !r.Expired(220.001) {
		t.Error("not expired past the deadline")
	}
	// Doomed once now + remaining (30) > 220, i.e. now > 190.
	if r.Doomed(190) {
		t.Error("doomed while still feasible")
	}
	if !r.Doomed(190.001) {
		t.Error("not doomed when infeasible")
	}
	// Committed blocks shrink the remaining work and the doom horizon.
	r.Next = 2
	if r.Doomed(205) {
		t.Error("doomed with only one block left and 15 ms of slack")
	}
}

func TestQueueRemove(t *testing.T) {
	q := NewQueue(4)
	a := newReq(1, "a", 0, 10)
	b := newReq(2, "b", 1, 20)
	c := newReq(3, "c", 2, 30)
	for _, r := range []*Request{a, b, c} {
		q.PushBack(r)
	}
	if got := q.Remove(99); got != nil {
		t.Errorf("removed unknown id: %+v", got)
	}
	if got := q.Remove(2); got != b {
		t.Fatalf("removed %+v, want request 2", got)
	}
	if q.Len() != 2 || q.At(0) != a || q.At(1) != c {
		t.Errorf("order after remove: %d requests", q.Len())
	}
	// The vacated tail slot must not retain the shifted pointer.
	if q.reqs[:3][2] != nil {
		t.Error("tail slot retains a request after Remove")
	}
}

func TestSweepExpired(t *testing.T) {
	q := NewQueue(4)
	mk := func(id int, deadlineMs float64, blocks ...float64) *Request {
		r := newReq(id, "m", 0, 10, blocks...)
		r.DeadlineMs = deadlineMs
		return r
	}
	fresh := mk(1, 0, 10)       // no deadline: never shed
	alive := mk(2, 100, 10)     // feasible
	expired := mk(3, 40, 10)    // already past at now=50
	doomed := mk(4, 55, 10, 10) // 50 + 20 remaining > 55
	for _, r := range []*Request{fresh, alive, expired, doomed} {
		q.PushBack(r)
	}

	shed := q.SweepExpired(50, false)
	if len(shed) != 1 || shed[0] != expired {
		t.Fatalf("non-predictive sweep shed %d requests", len(shed))
	}
	if q.Len() != 3 || q.At(0) != fresh || q.At(1) != alive || q.At(2) != doomed {
		t.Errorf("survivor order broken: len=%d", q.Len())
	}

	shed = q.SweepExpired(50, true)
	if len(shed) != 1 || shed[0] != doomed {
		t.Fatalf("predictive sweep shed %d requests", len(shed))
	}
	if q.Len() != 2 {
		t.Errorf("queue len after sweeps = %d, want 2", q.Len())
	}
	// Vacated tail slots must be nilled so shed requests are not retained.
	backing := q.reqs[:4]
	if backing[2] != nil || backing[3] != nil {
		t.Error("sweep left shed requests in the backing array")
	}
}

// TestPopFrontReleasesSlot pins the retention bugfix: the popped head slot
// must be nilled so the backing array no longer references the request.
func TestPopFrontReleasesSlot(t *testing.T) {
	q := NewQueue(4)
	q.PushBack(newReq(1, "a", 0, 10))
	q.PushBack(newReq(2, "b", 1, 10))
	backing := q.reqs // alias the backing array before popping
	if r := q.PopFront(); r == nil || r.ID != 1 {
		t.Fatalf("popped %+v", r)
	}
	if backing[0] != nil {
		t.Error("popped slot still references the request")
	}
	if backing[1] == nil {
		t.Error("live slot was cleared")
	}
}

// TestPushReclaimsDeadHead pins head-capacity reclamation: once pops have
// stranded a dead region ahead of the live requests, a push that runs out
// of capacity slides them back over it instead of reallocating, and leaves
// no stale pointer behind.
func TestPushReclaimsDeadHead(t *testing.T) {
	q := NewQueue(4)
	for i := 0; i < 8; i++ {
		q.PushBack(newReq(i, "m", float64(i), 10))
	}
	array := &q.base[:1][0]
	size := cap(q.base)
	for i := 0; i < 6; i++ {
		if r := q.PopFront(); r == nil || r.ID != i {
			t.Fatalf("pop %d returned %+v", i, r)
		}
	}
	for i := 8; i < size+4; i++ {
		q.PushBack(newReq(i, "m", float64(i), 10))
		assertNoLeakedSlots(t, q)
	}
	if &q.base[:1][0] != array || cap(q.base) != size {
		t.Errorf("queue of %d reallocated a %d-slot array with 6 dead slots to reuse", q.Len(), size)
	}
	for i := 0; i < q.Len(); i++ {
		if r := q.At(i); r == nil || r.ID != 6+i {
			t.Fatalf("slot %d holds %+v after the slide, want request %d", i, r, 6+i)
		}
	}
}

// TestQueueSteadyStateAllocs pins that a sustained push/pop cycle allocates
// nothing — neither at depth 8 nor on the shallow queue of an unsaturated
// device, where every pop used to eat the capacity the next insert needed.
func TestQueueSteadyStateAllocs(t *testing.T) {
	for _, depth := range []int{1, 8} {
		q := NewQueue(4)
		for i := 0; i < depth; i++ {
			q.PushBack(newReq(i, "m", float64(i), 10))
		}
		id := 100
		avg := testing.AllocsPerRun(2000, func() {
			r := q.PopFront()
			r.ID = id
			r.ArriveMs = float64(id)
			id++
			q.InsertGreedy(r.ArriveMs, r)
		})
		if avg != 0 {
			t.Errorf("depth %d: steady-state allocs/op = %v, want 0", depth, avg)
		}
	}
}
