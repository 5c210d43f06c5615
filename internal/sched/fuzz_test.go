package sched

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"
	"testing"

	"split/internal/model"
)

// assertNoLeakedSlots fails if any backing-array slot beyond the queue's
// live window still references a request. Every shrink path — PopFront,
// Remove, SweepExpired, compact — must nil the slots it vacates, or the
// array retains departed *Requests until it is reallocated (the
// slot-retention leak class).
func assertNoLeakedSlots(t *testing.T, q *Queue) {
	t.Helper()
	tail := q.reqs[len(q.reqs):cap(q.reqs)]
	for i, r := range tail {
		if r != nil {
			t.Fatalf("freed slot %d (past live length %d) retains request %d",
				q.Len()+i, q.Len(), r.ID)
		}
	}
}

// key is Algorithm 1's sort key E·T: swapBeneficial(a, b) is exactly
// key(b) < key(a), so the scan is Smith's rule (WSPT with weight 1/T) under
// same-task FIFO chains.
func key(r *Request, alpha float64) float64 {
	return r.RemainingMs() * r.TargetMs(alpha)
}

// rrCost is Σ PredictedRR of order run front to back, each ratio taken at
// its request's own arrival. That drops the waited term, which is the same
// in every order, and leaves Σ (W+E)/T with W the work queued ahead.
func rrCost(order []*Request, alpha float64) float64 {
	var sum, wait float64
	for _, r := range order {
		sum += r.PredictedRR(r.ArriveMs, wait, alpha)
		wait += r.RemainingMs()
	}
	return sum
}

// fifoOptimum is the least rrCost over every order of reqs that keeps each
// task's requests in arrival order: a DP over the sets that can run first,
// exact because a set's total work, and so the wait of whatever runs next,
// does not depend on the set's own order. Exponential in len(reqs).
func fifoOptimum(reqs []*Request, alpha float64) float64 {
	n := len(reqs)
	after := make([]int, n) // the same-task earlier arrivals each must follow
	for i, r := range reqs {
		for j, s := range reqs {
			if s.Model == r.Model && s.ArriveMs < r.ArriveMs {
				after[i] |= 1 << j
			}
		}
	}
	work := make([]float64, 1<<n)
	best := make([]float64, 1<<n)
	for set := 1; set < len(best); set++ {
		work[set] = work[set&(set-1)] + reqs[bits.TrailingZeros(uint(set))].RemainingMs()
		best[set] = math.Inf(1)
	}
	for set, cost := range best {
		for i, r := range reqs {
			if set&(1<<i) != 0 || after[i]&^set != 0 {
				continue
			}
			next := set | 1<<i
			best[next] = min(best[next], cost+r.PredictedRR(r.ArriveMs, work[set], alpha))
		}
	}
	return best[len(best)-1]
}

// oracleMaxLen bounds the queues fifoOptimum checks: 2^12 sets.
const oracleMaxLen = 12

// chainsMonotone reports whether every task's queued requests, in queue
// (arrival) order, have non-decreasing keys — the condition under which the
// FIFO chains never bind and Smith's rule is optimal.
func chainsMonotone(reqs []*Request, alpha float64) bool {
	last := map[string]float64{}
	for _, r := range reqs {
		k := key(r, alpha)
		if prev, ok := last[r.Model]; ok && k < prev {
			return false
		}
		last[r.Model] = k
	}
	return true
}

// insertChecked runs InsertGreedy(nowMs, r) and holds the result to
// Algorithm 1's theory. fresh marks a new arrival rather than a
// block-boundary re-insert. *monotone says whether every queue state so far
// had key-monotone FIFO chains, and is updated for the state after this
// insert.
//
// Always: the requests the scan passed — from the FIFO ceiling down to
// pos — are each from another task, keyed strictly above r and, with the
// starve guard on, no barrier at nowMs; the request left ahead of r is a
// same-task earlier arrival, a barrier, or keyed at most r's key.
//
// With the guard off and *monotone still true: the queue is sorted by key,
// a fresh arrival sits at the upper bound of its key, and Σ PredictedRR is
// the FIFO-respecting optimum.
func insertChecked(t *testing.T, q *Queue, nowMs float64, r *Request, fresh bool, monotone *bool) {
	t.Helper()
	before := slices.Clone(q.Requests())
	pos := q.InsertGreedy(nowMs, r)
	if want := slices.Insert(slices.Clone(before), pos, r); !slices.Equal(q.Requests(), want) {
		t.Fatalf("request %d: queue is not the old one with it inserted at %d", r.ID, pos)
	}
	ceiling := len(before)
	for i, s := range before {
		if s.Model == r.Model && s.ArriveMs > r.ArriveMs {
			ceiling = i
			break
		}
	}
	if pos > ceiling {
		t.Fatalf("request %d at %d, behind its FIFO ceiling %d", r.ID, pos, ceiling)
	}
	alpha, kr := q.Alpha, key(r, q.Alpha)
	barrier := func(s *Request) bool {
		return q.StarveGuardRR > 0 && s.PredictedPlainRR(nowMs, 0) >= q.StarveGuardRR
	}
	for _, s := range before[pos:ceiling] {
		if s.Model == r.Model || key(s, alpha) <= kr || barrier(s) {
			t.Fatalf("request %d (key %v) passed request %d (%s, key %v, barrier %v)",
				r.ID, kr, s.ID, s.Model, key(s, alpha), barrier(s))
		}
	}
	if pos > 0 {
		s := before[pos-1]
		if !(s.Model == r.Model && s.ArriveMs <= r.ArriveMs) && !barrier(s) && key(s, alpha) > kr {
			t.Fatalf("request %d (key %v) stopped behind request %d (%s, key %v) it should pass",
				r.ID, kr, s.ID, s.Model, key(s, alpha))
		}
	}
	reqs := q.Requests()
	*monotone = *monotone && chainsMonotone(reqs, alpha)
	if q.StarveGuardRR > 0 || !*monotone {
		return
	}
	if !slices.IsSortedFunc(reqs, func(a, b *Request) int { return cmp.Compare(key(a, alpha), key(b, alpha)) }) {
		t.Fatalf("monotone chains, yet the queue is not sorted by key after request %d", r.ID)
	}
	if fresh {
		if upper := sort.Search(len(before), func(i int) bool { return key(before[i], alpha) > kr }); pos != upper {
			t.Fatalf("fresh request %d at %d, want its key's upper bound %d", r.ID, pos, upper)
		}
	}
	if len(reqs) <= oracleMaxLen {
		got, opt := rrCost(reqs, alpha), fifoOptimum(reqs, alpha)
		if math.Abs(got-opt) > 1e-9*opt {
			t.Fatalf("after request %d: Σ predicted RR %v, FIFO-respecting optimum %v", r.ID, got, opt)
		}
	}
}

// FuzzInsertGreedy drives Algorithm 1 with fuzz-chosen request sequences
// and holds every insertion to insertChecked's theory: no request lost,
// FIFO among same-task arrivals, the scan's pass and stop rules and, while
// every task's chain stays key-monotone with the starve guard off, the
// key-sorted queue at the FIFO-respecting optimum. Each arrival runs its
// model's split plan, or one unsplit block when the pick's top bit is set
// (as elastic suppression leaves it), so both kinds of chain occur.
func FuzzInsertGreedy(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 0, 1}, uint8(4), false)
	f.Add([]byte{4, 4, 4, 4}, uint8(1), true)
	f.Add([]byte{0, 3, 0, 3, 0, 3}, uint8(8), false)
	// Mixed plans: model a split, then unsplit behind itself, which lowers
	// its key, with other models arriving between.
	f.Add([]byte{0, 130, 1, 7, 135, 2, 128, 3, 5, 140}, uint8(3), false)
	// Starve guard on: b waits behind ten d arrivals until its plain RR
	// reaches 6, so the short a that arrives last passes the d's and stops
	// at b, a barrier it would otherwise pass.
	f.Add([]byte{6, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 0}, uint8(3), true)
	f.Fuzz(func(t *testing.T, picks []byte, alphaRaw uint8, guard bool) {
		if len(picks) > 64 {
			picks = picks[:64]
		}
		alpha := 1 + float64(alphaRaw%10)
		q := NewQueue(alpha)
		if guard {
			q.StarveGuardRR = 6
		}
		models := []string{"a", "b", "c", "d", "e"}
		exts := []float64{10.8, 13.2, 28.35, 67.5, 20.4}
		splits := []int{2, 3, 1, 4, 2}
		now := 0.0
		monotone := true
		for i, p := range picks {
			k := int(p) % len(models)
			now += float64(p%7) + 0.5
			m := splits[k]
			if p&0x80 != 0 {
				m = 1
			}
			bt := make([]float64, m)
			for j := range bt {
				bt[j] = exts[k] / float64(m)
				if m > 1 {
					bt[j] += 0.9
				}
			}
			insertChecked(t, q, now, NewRequest(i, models[k], model.Short, now, exts[k], bt), true, &monotone)
			if q.Len() != i+1 {
				t.Fatalf("queue lost requests: %d vs %d", q.Len(), i+1)
			}
		}
		// FIFO among same-task requests.
		lastArrive := map[string]float64{}
		for i := 0; i < q.Len(); i++ {
			r := q.At(i)
			if prev, ok := lastArrive[r.Model]; ok && r.ArriveMs < prev {
				t.Fatalf("same-task FIFO violated for %s at position %d", r.Model, i)
			}
			lastArrive[r.Model] = r.ArriveMs
		}
	})
}

// FuzzQueueLifecycle drives the full serving loop — arrivals (some with
// deadlines) interleaved with block executions, block-boundary re-inserts
// (preemption points), expiry sweeps, and cancellations — and checks the
// lifecycle invariants after every operation: no request is lost or
// duplicated (queued + completed + shed + canceled = inserted), committed
// blocks only accumulate (Next is monotone, never past the plan length),
// finished requests never re-enter the queue, a shed or canceled request
// never runs another block, and same-task requests stay FIFO through
// arbitrary preemption. Every insert and re-insert is also held to
// insertChecked's theory; with one plan per model the chains stay
// key-monotone, so the optimum check runs whenever the guard is off.
func FuzzQueueLifecycle(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, uint8(4), false)
	f.Add([]byte{2, 9, 2, 9, 2, 9, 2, 9, 2}, uint8(1), true)
	f.Add([]byte{255, 0, 255, 0, 128, 64, 32}, uint8(8), false)
	// Shutdown-race schedule: a burst of deadline-carrying arrivals, one
	// block executed, then a storm of sweeps and cancellations against the
	// half-drained queue — the drain-under-load interleaving.
	f.Add([]byte{6, 0, 12, 3, 7, 11, 31, 15, 3, 23, 7, 31}, uint8(2), false)
	f.Fuzz(func(t *testing.T, ops []byte, alphaRaw uint8, guard bool) {
		if len(ops) > 96 {
			ops = ops[:96]
		}
		alpha := 1 + float64(alphaRaw%10)
		q := NewQueue(alpha)
		if guard {
			q.StarveGuardRR = 6
		}
		models := []string{"a", "b", "c"}
		exts := []float64{12.6, 28.35, 67.5}
		splits := []int{1, 2, 3}
		now := 0.0
		nextID := 0
		completed := 0
		// One plan per model keeps every chain key-monotone.
		monotone := true
		terminated := map[int]bool{} // shed or canceled: must never run again
		committed := map[int]int{}   // request ID -> highest Next observed
		check := func(op byte) {
			if q.Len()+completed+len(terminated) != nextID {
				t.Fatalf("op %d: conservation broken: %d queued + %d completed + %d terminated != %d inserted",
					op, q.Len(), completed, len(terminated), nextID)
			}
			lastArrive := map[string]float64{}
			for i := 0; i < q.Len(); i++ {
				r := q.At(i)
				if r.Next < 0 || r.Next >= len(r.BlockTimes) {
					t.Fatalf("queued request %d has Next=%d of %d blocks", r.ID, r.Next, len(r.BlockTimes))
				}
				if r.Next < committed[r.ID] {
					t.Fatalf("request %d lost committed blocks: Next=%d, was %d", r.ID, r.Next, committed[r.ID])
				}
				if r.DoneMs >= 0 {
					t.Fatalf("finished request %d is queued", r.ID)
				}
				if terminated[r.ID] {
					t.Fatalf("shed/canceled request %d is queued", r.ID)
				}
				if prev, ok := lastArrive[r.Model]; ok && r.ArriveMs < prev {
					t.Fatalf("same-task FIFO violated for %s at position %d", r.Model, i)
				}
				lastArrive[r.Model] = r.ArriveMs
			}
			assertNoLeakedSlots(t, q)
		}
		for _, op := range ops {
			now += float64(op%5) + 0.25
			switch {
			case op%4 <= 1 || q.Len() == 0:
				// Arrival: wrap a request with the model's split plan;
				// every third one carries a deadline derived from op.
				k := int(op>>2) % len(models)
				m := splits[k]
				bt := make([]float64, m)
				for j := range bt {
					bt[j] = exts[k]/float64(m) + 0.9
				}
				r := NewRequest(nextID, models[k], model.Short, now, exts[k], bt)
				if op%3 == 0 {
					r.DeadlineMs = now + float64(op%32) + 0.5
				}
				nextID++
				insertChecked(t, q, now, r, true, &monotone)
			case op%4 == 2:
				// Block boundary: sweep doomed work (the engine's
				// pre-grant shed), then run the head's next block and
				// re-insert or complete.
				for _, ex := range q.SweepExpired(now, op%8 >= 4) {
					if ex.DeadlineMs <= 0 {
						t.Fatalf("swept request %d has no deadline", ex.ID)
					}
					if terminated[ex.ID] {
						t.Fatalf("request %d shed twice", ex.ID)
					}
					terminated[ex.ID] = true
				}
				r := q.PopFront()
				if r == nil {
					break
				}
				if terminated[r.ID] {
					t.Fatalf("shed/canceled request %d granted the device", r.ID)
				}
				if r.StartMs < 0 {
					r.StartMs = now
				}
				now += r.BlockTimes[r.Next]
				r.Next++
				if r.Next < committed[r.ID] || r.Next > len(r.BlockTimes) {
					t.Fatalf("request %d committed-block corruption: Next=%d, was %d of %d",
						r.ID, r.Next, committed[r.ID], len(r.BlockTimes))
				}
				committed[r.ID] = r.Next
				switch {
				case r.Canceled || (r.DeadlineMs > 0 && r.Expired(now)):
					// Boundary shed: the request must not re-enter the queue.
					terminated[r.ID] = true
				case r.Finished():
					r.DoneMs = now
					completed++
				default:
					insertChecked(t, q, now, r, false, &monotone)
				}
			default:
				// Cancellation of an arbitrary known ID: queued work is
				// removed immediately, anything else is a no-op here (the
				// lane's settle handles in-flight marks at boundaries).
				if nextID == 0 {
					break
				}
				id := int(op>>2) % nextID
				if r := q.Remove(id); r != nil {
					if terminated[id] {
						t.Fatalf("request %d was already terminated yet queued", id)
					}
					r.Canceled = true
					terminated[id] = true
				}
			}
			check(op)
		}
	})
}

// FuzzDeadlineSweep hammers SweepExpired directly with fuzz-chosen queues
// and sweep times: everything shed must actually be expired (or doomed,
// under predictive sweeps), everything kept must not be, and the survivors
// keep their relative order with no slot corruption.
func FuzzDeadlineSweep(f *testing.F) {
	f.Add([]byte{10, 200, 30, 0, 45}, uint8(50), false)
	f.Add([]byte{0, 0, 0, 0}, uint8(0), true)
	f.Add([]byte{255, 1, 254, 2, 253, 3}, uint8(128), true)
	f.Fuzz(func(t *testing.T, spec []byte, nowRaw uint8, predictive bool) {
		if len(spec) > 64 {
			spec = spec[:64]
		}
		q := NewQueue(4)
		var want []*Request
		for i, b := range spec {
			blocks := 1 + int(b)%3
			bt := make([]float64, blocks)
			for j := range bt {
				bt[j] = float64(b%40) + 1
			}
			r := NewRequest(i, "m", model.Short, 0, bt[0]*float64(blocks), bt)
			if b%2 == 1 { // odd bytes carry deadlines
				r.DeadlineMs = float64(b)
			}
			q.PushBack(r)
			want = append(want, r)
		}
		now := float64(nowRaw)
		shed := q.SweepExpired(now, predictive)
		expired := func(r *Request) bool {
			return r.Expired(now) || (predictive && r.Doomed(now))
		}
		for _, r := range shed {
			if !expired(r) {
				t.Fatalf("request %d shed while viable (deadline %v, now %v)", r.ID, r.DeadlineMs, now)
			}
		}
		if q.Len()+len(shed) != len(want) {
			t.Fatalf("sweep lost requests: %d kept + %d shed != %d", q.Len(), len(shed), len(want))
		}
		keep := 0
		for _, r := range want {
			if expired(r) {
				continue
			}
			if q.At(keep) != r {
				t.Fatalf("survivor order broken at %d", keep)
			}
			keep++
		}
		if keep != q.Len() {
			t.Fatalf("queue holds %d requests, want %d survivors", q.Len(), keep)
		}
		assertNoLeakedSlots(t, q)
	})
}

// FuzzBatchPlanner drives batch formation against fuzz-chosen queues and
// checks every formation invariant: the head leads, the batch never exceeds
// Max, all members share the head's model and next-block index with equally
// shaped plans (one block per member — a batch never crosses a block
// boundary mid-request), no member is canceled or deadline-doomed, members
// are exactly the contiguous queue-front prefix in queue order (FIFO), the
// survivors keep their order, and no backing slot leaks.
func FuzzBatchPlanner(f *testing.F) {
	f.Add([]byte{1, 1, 1, 1, 2, 3}, uint8(4), uint8(40))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, uint8(8), uint8(0))
	f.Add([]byte{5, 5, 10, 5, 35, 5, 7}, uint8(2), uint8(200))
	f.Add([]byte{9, 9, 9}, uint8(0), uint8(17))
	f.Fuzz(func(t *testing.T, spec []byte, maxRaw, nowRaw uint8) {
		if len(spec) > 64 {
			spec = spec[:64]
		}
		q := NewQueue(4)
		now := float64(nowRaw)
		for i, b := range spec {
			k := int(b) % 3
			nblocks := 1 + int(b>>3)%3
			bt := make([]float64, nblocks)
			for j := range bt {
				bt[j] = 10 + float64(k)
			}
			r := NewRequest(i, string(rune('a'+k)), model.Short, 0, 30, bt)
			r.Next = int(b>>5) % nblocks // partially executed re-inserts
			if b%5 == 0 {
				r.DeadlineMs = float64(b) + 0.5 // some doomed/expired at now
			}
			if b%7 == 0 {
				r.Canceled = true
			}
			q.PushBack(r)
		}
		head := q.PopFront()
		if head == nil {
			return
		}
		before := append([]*Request(nil), q.Requests()...)
		p := BatchPlanner{Max: int(maxRaw % 9)}
		batch := p.FormInto(nil, q, head, now)

		if len(batch) == 0 || batch[0] != head {
			t.Fatal("head does not lead the batch")
		}
		limit := p.Max
		if limit < 1 {
			limit = 1
		}
		if len(batch) > limit {
			t.Fatalf("batch size %d exceeds Max %d", len(batch), p.Max)
		}
		if (head.Canceled || head.Doomed(now)) && len(batch) > 1 {
			t.Fatal("batch formed behind a canceled/doomed head")
		}
		for i, m := range batch[1:] {
			if m.Model != head.Model {
				t.Fatalf("member %d model %q != head %q", i, m.Model, head.Model)
			}
			if m.Next != head.Next || len(m.BlockTimes) != len(head.BlockTimes) {
				t.Fatalf("member %d at block %d/%d, head at %d/%d — batch crosses a block boundary",
					i, m.Next, len(m.BlockTimes), head.Next, len(head.BlockTimes))
			}
			if m.Canceled {
				t.Fatalf("member %d is canceled", i)
			}
			if m.Doomed(now) {
				t.Fatalf("member %d is doomed at %v (deadline %v)", i, now, m.DeadlineMs)
			}
			if before[i] != m {
				t.Fatalf("member %d is not the queue-front prefix (FIFO broken)", i)
			}
		}
		took := len(batch) - 1
		if q.Len() != len(before)-took {
			t.Fatalf("conservation broken: %d left + %d taken != %d", q.Len(), took, len(before))
		}
		for i := 0; i < q.Len(); i++ {
			if q.At(i) != before[took+i] {
				t.Fatalf("survivor order changed at %d", i)
			}
		}
		assertNoLeakedSlots(t, q)
	})
}
