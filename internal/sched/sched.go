// Package sched implements the online half of SPLIT: the request abstraction,
// the response-ratio QoS model (Eq. 3), the greedy block-level preemption
// algorithm (Algorithm 1), and the elastic splitting mechanism (§3.3).
//
// The scheduler is a pure data structure — it owns no clock and runs no
// goroutines — so the same code drives both the discrete-event simulator
// (internal/policy) and the real-time serving path (internal/serve).
package sched

import (
	"fmt"

	"split/internal/model"
	"split/internal/modelid"
)

// Request is one in-flight inference request. Times are in milliseconds on
// whatever clock the caller supplies (virtual or real).
type Request struct {
	// ID is unique per workload.
	ID int
	// Model is the task type; requests with equal Model are "from the same
	// task" for the FIFO rule.
	Model string
	// ModelID is Model's number in the process-wide name table, what the
	// request's trace events carry and what the FIFO rule, the same-type
	// count and batch joining compare. ModelID, Class and Canceled share
	// one word just before ArriveMs, which the FIFO checks read with it.
	ModelID modelid.ID
	// Class is the short/long taxonomy from Table 1.
	Class model.RequestClass
	// Canceled marks the request cancel-at-next-boundary: the scheduler
	// must not grant it another block. The serving path sets it for client
	// cancellations and connection losses; the queue itself never does.
	Canceled bool
	// ArriveMs is the arrival (enqueue) time.
	ArriveMs float64
	// ExtMs is t_ext: the isolated, unsplit execution time that the request's
	// latency target is based on (§2.1). It is independent of the plan the
	// scheduler actually executes.
	ExtMs float64
	// BlockTimes is the execution plan: the per-block times the request will
	// occupy the device for, including splitting overheads. len == 1 means
	// the request runs unsplit. Read-only: it aliases the catalog's plan,
	// which every request of the model shares.
	BlockTimes []float64
	// Next indexes the next block to execute. Blocks < Next are committed
	// (executed or in flight).
	Next int
	// StartMs is the time the first block started, or -1 before that.
	StartMs float64
	// DoneMs is the completion time, or -1 while pending.
	DoneMs float64
	// Preemptions counts how many times the request was passed by a later
	// arrival between its blocks.
	Preemptions int
	// DeadlineMs is the absolute deadline on the caller's clock: once it
	// passes, the request must never be granted the device for another
	// block — it is shed at the next block boundary instead (the
	// EdgeServing-style extension of the α·t_ext target). <= 0 (the
	// default) means no deadline.
	DeadlineMs float64
	// Device is the fleet device the placement layer assigned the request
	// to. The queue itself never reads it — each device has its own queue —
	// but grants and cancellation paths route by it. 0 on a
	// single-device deployment.
	Device int
	// Partition is the device partition slot the placement layer assigned
	// the request to under spatial sharing; cancellation routes by
	// (Device, Partition) since each lane has its own queue. 0 on
	// unpartitioned deployments.
	Partition int
	// Tag is the driver's own handle for the request; the scheduler never
	// reads it. The simulator stores the arrival's position in its trace, so
	// an outcome is filed straight into that arrival's record slot.
	Tag int
}

// NewRequest builds a request with sentinel times set, interning the
// model's name.
func NewRequest(id int, modelName string, class model.RequestClass, arriveMs, extMs float64, blocks []float64) *Request {
	r := new(Request)
	r.Init(id, modelName, modelid.Intern(modelName), class, arriveMs, extMs, blocks)
	return r
}

// Init makes r a fresh request with sentinel times set, overwriting every
// field, for a caller that owns the storage (the engine's request slab) and
// has resolved the model's ID once per model. It writes field by field, so
// no Request-sized temporary is built and copied.
func (r *Request) Init(id int, modelName string, modelID modelid.ID, class model.RequestClass, arriveMs, extMs float64, blocks []float64) {
	r.ID, r.Model, r.ModelID, r.Class = id, modelName, modelID, class
	r.ArriveMs, r.ExtMs, r.BlockTimes = arriveMs, extMs, blocks
	r.Next, r.StartMs, r.DoneMs, r.Preemptions = 0, -1, -1, 0
	r.DeadlineMs, r.Canceled = 0, false
	r.Device, r.Partition, r.Tag = 0, 0, 0
}

// RemainingMs returns Ext_left: the summed time of uncommitted blocks.
func (r *Request) RemainingMs() float64 {
	var t float64
	for _, b := range r.BlockTimes[r.Next:] {
		t += b
	}
	return t
}

// PlannedMs returns the total planned execution time (all blocks).
func (r *Request) PlannedMs() float64 {
	var t float64
	for _, b := range r.BlockTimes {
		t += b
	}
	return t
}

// Finished reports whether every block has been committed.
func (r *Request) Finished() bool { return r.Next >= len(r.BlockTimes) }

// TargetMs returns the latency target α·t_ext (§3.4 footnote 3).
func (r *Request) TargetMs(alpha float64) float64 {
	return alpha * r.ExtMs
}

// SetDeadline derives the absolute deadline from the latency target:
// ArriveMs + α·t_ext. A request that completes at
// its deadline has RR exactly α, so "expired" and "target blown" coincide.
func (r *Request) SetDeadline(alpha float64) {
	r.DeadlineMs = r.ArriveMs + r.TargetMs(alpha)
}

// Expired reports whether the deadline has passed at nowMs.
func (r *Request) Expired(nowMs float64) bool {
	return r.DeadlineMs > 0 && nowMs > r.DeadlineMs
}

// Doomed reports whether the request can no longer finish by its deadline
// even if granted the device immediately and uninterrupted: the predictive
// shedding predicate (expired requests are trivially doomed).
func (r *Request) Doomed(nowMs float64) bool {
	return r.DeadlineMs > 0 && nowMs+r.RemainingMs() > r.DeadlineMs
}

// E2EMs returns the end-to-end latency; it panics if the request is not
// complete, which indicates a harness bug.
func (r *Request) E2EMs() float64 {
	if r.DoneMs < 0 {
		panic(fmt.Sprintf("sched: request %d not complete", r.ID))
	}
	return r.DoneMs - r.ArriveMs
}

// ResponseRatio returns RR = t_ete / t_ext (Eq. 3) for a completed request.
func (r *Request) ResponseRatio() float64 {
	return r.E2EMs() / r.ExtMs
}

// PredictedRR returns the response ratio the request would reach if it had
// to wait `waitingMs` more before running its remaining blocks to
// completion, normalized by the latency target α·Ext — the quantity
// Algorithm 1's ResponseRatio function computes:
//
//	(l_waited + l_waiting + Ext_left) / (α · Ext)
//
// where l_waited is the time already spent since arrival.
func (r *Request) PredictedRR(nowMs, waitingMs, alpha float64) float64 {
	waited := nowMs - r.ArriveMs
	return (waited + waitingMs + r.RemainingMs()) / r.TargetMs(alpha)
}

// PredictedPlainRR is PredictedRR normalized by t_ext instead of the target:
// the same units as ResponseRatio and the Figure 6 α axis.
func (r *Request) PredictedPlainRR(nowMs, waitingMs float64) float64 {
	waited := nowMs - r.ArriveMs
	return (waited + waitingMs + r.RemainingMs()) / r.ExtMs
}

// Queue is the waiting-request queue ordered by execution priority:
// element 0 runs next. The currently executing block's request is *not* in
// the queue; it is re-inserted at each block boundary, which is exactly how
// SPLIT realizes block-granularity preemption.
type Queue struct {
	// Alpha is the latency-target multiplier used in response ratios.
	Alpha float64
	// StarveGuardRR is an extension beyond the paper: Algorithm 1's
	// shortest-first tendency can starve long requests under sustained
	// short-request pressure. When > 0, a waiting request whose predicted
	// plain response ratio (t_ete/t_ext if it ran immediately; the Figure 6
	// α axis units) already reaches this value becomes an insertion barrier
	// that later arrivals cannot bubble past. 0 (the paper's behaviour)
	// disables the guard.
	StarveGuardRR float64
	reqs          []*Request
	// base is the zero-length head of reqs' backing array, and popped counts
	// the dead (nil) slots PopFront's reslices have stranded between it and
	// reqs. push slides the live requests back over them before it lets
	// append reallocate, so a queue in steady state — above all the shallow
	// queue of an unsaturated device, whose every pop would otherwise eat
	// the capacity its next insert needs — allocates nothing.
	base   []*Request
	popped int
}

// NewQueue creates an empty queue with the given α.
func NewQueue(alpha float64) *Queue {
	return &Queue{Alpha: alpha}
}

// Len returns the number of waiting requests.
func (q *Queue) Len() int { return len(q.reqs) }

// At returns the i-th waiting request (0 = next to run).
func (q *Queue) At(i int) *Request { return q.reqs[i] }

// Requests returns the internal order; callers must not mutate it.
func (q *Queue) Requests() []*Request { return q.reqs }

// PopFront removes and returns the next request to run, or nil when empty.
// The popped slot is nilled, so the backing array never retains the
// request; the slot itself is dead until push reclaims it.
//
//lint:hotpath every device grant starts by popping the queue front
func (q *Queue) PopFront() *Request {
	if len(q.reqs) == 0 {
		return nil
	}
	r := q.reqs[0]
	q.reqs[0] = nil
	q.reqs = q.reqs[1:]
	q.popped++
	return r
}

// push appends r. Out of capacity, it first reclaims the dead head slots by
// sliding the live requests back to base — when there are enough of them to
// pay for the copy (half the live length keeps it amortized O(1)) — and only
// otherwise lets append reallocate.
//
//lint:hotpath every insertion extends the queue here
func (q *Queue) push(r *Request) {
	if len(q.reqs) == cap(q.reqs) && q.popped > 0 && q.popped >= len(q.reqs)/2 {
		live := q.base[:len(q.reqs)]
		copy(live, q.reqs)
		// Old slot j sat at base index popped+j; those past the new live
		// region still hold their request.
		clear(q.reqs[max(len(live)-q.popped, 0):])
		q.reqs, q.popped = live, 0
	}
	fresh := len(q.reqs) == cap(q.reqs)
	//lint:ignore hotalloc amortized growth: the backing array reaches the queue's peak depth and is reused
	q.reqs = append(q.reqs, r)
	if fresh {
		q.base, q.popped = q.reqs[:0], 0
	}
}

// clearTail nils the backing-array slots from index `from` up to the
// current length. Every path that shrinks the queue by shifting survivors
// forward (Remove, SweepExpired) must run it before reslicing: a vacated
// tail slot still referencing a departed request is the same pointer-leak
// class as PopFront slot retention, and FuzzQueueLifecycle asserts the whole
// [len, cap) region stays nil after every operation.
func (q *Queue) clearTail(from int) {
	for i := from; i < len(q.reqs); i++ {
		q.reqs[i] = nil
	}
}

// Remove extracts the waiting request with the given ID, preserving the
// order of the survivors, and returns it — or nil if no such request is
// waiting. This is the queued-work half of cancellation; the in-flight
// request is not in the queue and is handled at its block boundary.
func (q *Queue) Remove(id int) *Request {
	for i, r := range q.reqs {
		if r.ID == id {
			copy(q.reqs[i:], q.reqs[i+1:])
			q.clearTail(len(q.reqs) - 1)
			q.reqs = q.reqs[:len(q.reqs)-1]
			return r
		}
	}
	return nil
}

// SweepExpired removes and returns every waiting request whose deadline
// has passed at nowMs — and, when predictive is true, every request that
// can no longer finish by its deadline even if granted the device
// immediately (Doomed) — preserving the queue order of both the shed
// requests and the survivors. Callers run it at block boundaries, before
// the token is granted, so a doomed request never occupies the device.
func (q *Queue) SweepExpired(nowMs float64, predictive bool) []*Request {
	var shed []*Request
	keep := q.reqs[:0]
	for _, r := range q.reqs {
		expired := r.Expired(nowMs) || (predictive && r.Doomed(nowMs))
		if expired {
			shed = append(shed, r)
		} else {
			keep = append(keep, r)
		}
	}
	q.clearTail(len(keep))
	q.reqs = keep
	return shed
}

// PushBack appends r without any preemption logic (FIFO insertion).
func (q *Queue) PushBack(r *Request) {
	q.push(r)
}

// SameTypeCount returns how many waiting requests are of model id.
func (q *Queue) SameTypeCount(id modelid.ID) int {
	n := 0
	for _, r := range q.reqs {
		if r.ModelID == id {
			n++
		}
	}
	return n
}

// TotalRemainingMs returns the summed remaining work of all waiting
// requests (the l_waiting a new back-of-queue request would see).
func (q *Queue) TotalRemainingMs() float64 {
	var t float64
	for _, r := range q.reqs {
		t += r.RemainingMs()
	}
	return t
}

// InsertGreedy places r using Algorithm 1: starting from the back of the
// queue, r bubbles forward past its neighbor while doing so strictly lowers
// the summed predicted response ratio of the pair, and stops when
//
//   - no requests are ahead (r reached the front),
//   - the neighbor is an earlier arrival from the same task (FIFO rule), or
//   - exchanging would not reduce the pair's combined response ratio.
//
// For the pair (ahead=a, behind=b) with remaining times E and targets T, the
// swap condition reduces to E_b·T_b < E_a·T_a independent of the waiting
// time ahead of the pair and of the time each has already waited (both
// cancel in the difference of summed ratios), so the scan needs no clock —
// matching the paper's O(n) worst case with an O(k) average when the queue
// is already mostly ordered.
//
// The FIFO rule is keyed on arrival order, not bare type equality: a
// partially-executed request that re-enters the queue at a block boundary
// must still precede same-task requests that arrived after it. That
// constraint is hard — the scan starts at the FIFO ceiling rather than the
// back of the queue, so a rejected greedy swap or a starve-guard barrier
// between them can never strand r behind a later same-task arrival.
//
// The scan is Smith's rule (WSPT with weight 1/T) on the key E·T under
// same-task FIFO chains: an insertion sort that passes only queued keys
// greater than r's (all of them on a key-sorted queue), so "O(k)" counts
// those. While every task's queued chain is key-monotone — one plan per
// model guarantees it — the queue stays sorted by key and its summed
// predicted response ratio is the least any FIFO-respecting order reaches;
// with mixed plans, or for the violation count, it need not be
// (FuzzInsertGreedy, TestInsertGreedyMixedPlansGap).
//
// nowMs is read only by the starve guard. It returns the chosen position
// (0 = front).
//
//lint:hotpath Algorithm 1 runs on every arrival and every block-boundary re-insertion
func (q *Queue) InsertGreedy(nowMs float64, r *Request) int {
	pos := q.fifoCeiling(r)
	for pos > 0 {
		ahead := q.reqs[pos-1]
		if ahead.ModelID == r.ModelID {
			if ahead.ArriveMs <= r.ArriveMs {
				break // FIFO among same-task requests
			}
			pos-- // we arrived earlier: FIFO moves us ahead unconditionally
			continue
		}
		if q.StarveGuardRR > 0 && ahead.PredictedPlainRR(nowMs, 0) >= q.StarveGuardRR {
			break // starving request: nothing may pass it (extension)
		}
		if !swapBeneficial(ahead, r, q.Alpha) {
			break
		}
		pos--
	}
	q.insertAt(pos, r)
	return pos
}

// fifoCeiling returns the highest insertion index that keeps r ahead of
// every same-task request that arrived after it. For fresh arrivals this is
// the queue length (no constraint); for block-boundary re-inserts it caps
// the start of the bubbling scan, because the FIFO rule is a hard
// constraint while the greedy comparison and the starve guard are only
// ordering preferences. Same-task requests already in the queue are in
// arrival order, so everything skipped over by the cap is either from
// another task or a same-task later arrival — never a same-task earlier
// arrival that FIFO would forbid passing.
func (q *Queue) fifoCeiling(r *Request) int {
	for i, ahead := range q.reqs {
		if ahead.ModelID == r.ModelID && ahead.ArriveMs > r.ArriveMs {
			return i
		}
	}
	return len(q.reqs)
}

// swapBeneficial reports whether moving `behind` ahead of `ahead` strictly
// lowers RR(ahead)+RR(behind). Derivation: with W the waiting time before
// the pair and D_x = now - arrive_x,
//
//	order (a,b): RR_a = (D_a+W+E_a)/T_a, RR_b = (D_b+W+E_a+E_b)/T_b
//	order (b,a): RR'_b = (D_b+W+E_b)/T_b, RR'_a = (D_a+W+E_b+E_a)/T_a
//	(RR'_a+RR'_b) - (RR_a+RR_b) = E_b/T_a - E_a/T_b
//
// so the swap helps iff E_b·T_b < E_a·T_a (multiply through by T_a·T_b>0).
func swapBeneficial(ahead, behind *Request, alpha float64) bool {
	ea, eb := ahead.RemainingMs(), behind.RemainingMs()
	ta, tb := ahead.TargetMs(alpha), behind.TargetMs(alpha)
	return eb*tb < ea*ta
}

// insertAt inserts r at index pos.
func (q *Queue) insertAt(pos int, r *Request) {
	q.push(nil)
	copy(q.reqs[pos+1:], q.reqs[pos:])
	q.reqs[pos] = r
}

// Elastic implements §3.3's elastic model splitting: under particularly
// high request density, or when many requests of the same type are queued,
// splitting is temporarily disabled to avoid the splitting overhead. The
// zero value turns the mechanism off: with both triggers disabled, a split
// plan is always used.
type Elastic struct {
	// HighLoadQueueLen disables splitting when at least this many requests
	// are waiting (request density too high). <=0 disables this trigger.
	HighLoadQueueLen int
	// SameTypeLimit disables splitting for a request when at least this
	// many waiting requests share its model (same-type FIFO makes splitting
	// useless among them). <=0 disables this trigger.
	SameTypeLimit int
}

// DefaultElastic returns the thresholds used in the evaluation harness.
func DefaultElastic() Elastic {
	return Elastic{HighLoadQueueLen: 10, SameTypeLimit: 3}
}

// ShouldSplit decides whether an arriving request of the named model should
// use its split plan, based on the waiting queue alone. Callers that know
// which request currently occupies the device, or hold the model's ID,
// should call ShouldSplitWith instead, which counts the in-flight request
// into the same-type run.
func (e Elastic) ShouldSplit(q *Queue, modelName string) bool {
	id, ok := modelid.Lookup(modelName)
	if !ok {
		// No queued request carries a name no one interned, so only the
		// density trigger can suppress the split.
		return e.HighLoadQueueLen <= 0 || q.Len() < e.HighLoadQueueLen
	}
	return e.ShouldSplitWith(q, id, nil)
}

// ShouldSplitWith is ShouldSplit with the device's in-flight request made
// visible. The §3.3 same-type trigger reasons about the same-type run the
// arrival would join, and on a busy device that run usually starts with the
// request holding the device — it left the queue when it was granted, so
// counting only waiting requests under-counts the run by exactly one. The
// observable off-by-one: a same-type burst needed SameTypeLimit+1 pending
// requests (not SameTypeLimit) before splitting was suppressed, and the
// simulator and the serving path could disagree at the boundary depending
// on whether the run's head sat in the queue or in flight when the arrival
// was processed. Passing the in-flight request restores "at least
// SameTypeLimit same-type requests pending on this device" on both sides.
//
// The high-load trigger deliberately stays queue-only: it measures request
// density — how many are waiting — not the run structure, and widening it
// would change the §3.3 threshold semantics the tests pin.
func (e Elastic) ShouldSplitWith(q *Queue, id modelid.ID, inflight *Request) bool {
	if e.HighLoadQueueLen > 0 && q.Len() >= e.HighLoadQueueLen {
		return false
	}
	if e.SameTypeLimit > 0 {
		run := q.SameTypeCount(id)
		if inflight != nil && inflight.ModelID == id {
			run++
		}
		if run >= e.SameTypeLimit {
			return false
		}
	}
	return true
}
