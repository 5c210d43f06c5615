package sched

// This file implements same-type micro-batch formation. The elastic
// mechanism (§3.3) already recognizes same-type runs at the queue front —
// FIFO makes preemption useless among them, so splitting is suppressed.
// Batching exploits the same structure for throughput: when the request
// granted the device leads a run of same-type neighbors at the same block
// boundary, up to Max of them execute that block as one batched device
// grant instead of serially.
//
// Formation happens ONLY at block boundaries, for the same reason blocks
// exist at all: the preemption-latency bound (a newly arrived request waits
// at most one device hold) must survive batching. A batched hold is longer
// than a scalar one — t(b,n) per gpusim.BatchCost — but it is still one
// boundary-delimited hold, and Max caps how far it stretches.

// BatchPlanner forms same-type micro-batches at block boundaries. The
// planner is pure state-free configuration, like the rest of this package:
// the identical planner drives both the discrete-event simulator
// (internal/policy) and the real-time serving path (internal/serve), which
// is what makes sim-vs-serve batching parity testable.
type BatchPlanner struct {
	// Max is the maximum batch size, counting the granted head request.
	// <= 1 disables batching entirely: FormInto never touches the queue.
	Max int
}

// Enabled reports whether the planner can form batches at all.
func (p BatchPlanner) Enabled() bool { return p.Max > 1 }

// joinable reports whether the queue-front request next can join a batch
// led by head at nowMs. The rules keep a batch indistinguishable from the
// serial schedule it replaces, just faster:
//
//   - same model AND same next-block index with an equally shaped plan —
//     members execute the *same* block for the same serial duration (plans
//     are per-model, so same model + same plan length implies identical
//     block times; a split member never pairs with an elastic-suppressed
//     unsplit one);
//   - not canceled and not deadline-doomed: a batch never spans a request
//     the boundary sweep is about to shed, so batching cannot resurrect
//     dead work or burn device time on it.
func joinable(head, next *Request, nowMs float64) bool {
	return next.ModelID == head.ModelID &&
		next.Next == head.Next &&
		len(next.BlockTimes) == len(head.BlockTimes) &&
		!next.Canceled &&
		!next.Doomed(nowMs)
}

// FormInto extends the already-popped head request into a batch for its
// next block: it pops contiguous queue-front requests that satisfy joinable,
// up to Max members total, and returns the batch in grant order (head
// first), appended to dst — normally a per-lane scratch buffer resliced to
// zero length, so steady-state grants reuse one backing array instead of
// allocating per block.
// FIFO within the batch holds by construction — members come off the queue
// front in queue order, and the greedy queue keeps same-task requests in
// arrival order. Stopping at the first non-joinable request (rather than
// skipping it) is what preserves FIFO against the rest of the queue: a
// request never batches past work scheduled ahead of it.
//
// The same-type signal is the elastic mechanism's: a run exists exactly
// when SameTypeCount sees a same-model waiting neighbor. With Max <= 1, or
// no run, FormInto returns just the head and the queue is untouched — the
// disabled path costs one length check.
//
//lint:hotpath batch formation runs at every device grant
func (p BatchPlanner) FormInto(dst []*Request, q *Queue, head *Request, nowMs float64) []*Request {
	batch := append(dst, head)
	if p.Max <= 1 || q.Len() == 0 {
		return batch
	}
	if head.Canceled || head.Doomed(nowMs) {
		// The head is about to be shed at this boundary; don't pull
		// healthy work into its grant.
		return batch
	}
	if q.SameTypeCount(head.ModelID) == 0 {
		return batch // no same-type run at the front (§3.3 signal)
	}
	for len(batch) < p.Max && q.Len() > 0 && joinable(head, q.At(0), nowMs) {
		//lint:ignore hotalloc bounded by Max: the scratch buffer stops growing after the first full batch
		batch = append(batch, q.PopFront())
	}
	return batch
}
