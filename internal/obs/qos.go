package obs

import (
	"sync"

	"split/internal/metrics"
	"split/internal/policy"
	"split/internal/stats"
)

// RollingQoS is the online counterpart of internal/metrics: it keeps the
// last N completed requests in a ring and computes the paper's QoS measures
// over that window by calling the *same* metrics/stats functions the
// offline harness uses — so the live violation rate and jitter agree
// exactly with ViolationRate/JitterByModel evaluated over the same records.
type RollingQoS struct {
	mu     sync.Mutex
	alpha  float64
	window []policy.Record
	next   int
	full   bool
	total  int
}

// DefaultQoSWindow is the completions window used when callers pass <= 0.
const DefaultQoSWindow = 256

// NewRollingQoS returns an estimator over the last `window` completions
// with latency-target multiplier alpha (defaults: window 256, alpha 4).
func NewRollingQoS(alpha float64, window int) *RollingQoS {
	if window <= 0 {
		window = DefaultQoSWindow
	}
	if alpha <= 0 {
		alpha = 4
	}
	return &RollingQoS{alpha: alpha, window: make([]policy.Record, window)}
}

// Observe adds one decided request — completed or shed — to the window.
// Shed requests carry their drop reason in Outcome, so the rolling
// violation rate sees them exactly like the offline harness does
// (ViolationRate counts every non-served record as a violation), while
// latency statistics skip them.
func (q *RollingQoS) Observe(rec policy.Record) {
	if q == nil {
		return
	}
	q.mu.Lock()
	q.window[q.next] = rec
	q.next++
	if q.next == len(q.window) {
		q.next = 0
		q.full = true
	}
	q.total++
	q.mu.Unlock()
}

// Records returns the windowed records oldest-first.
func (q *RollingQoS) Records() []policy.Record {
	if q == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.recordsLocked()
}

func (q *RollingQoS) recordsLocked() []policy.Record {
	if !q.full {
		return append([]policy.Record(nil), q.window[:q.next]...)
	}
	out := make([]policy.Record, 0, len(q.window))
	out = append(out, q.window[q.next:]...)
	return append(out, q.window[:q.next]...)
}

// QoSSnapshot is one rolling-window digest, JSON-ready for /queuez.
type QoSSnapshot struct {
	Alpha         float64 `json:"alpha"`
	Window        int     `json:"window"`         // records currently in the window
	Total         int     `json:"total"`          // lifetime completions observed
	ViolationRate float64 `json:"violation_rate"` // fraction with RR > α or shed (Fig. 6 formula)
	JitterMs      float64 `json:"jitter_ms"`      // stddev of e2e over served window records (Fig. 7 formula)
	MeanRR        float64 `json:"mean_rr"`
	MeanWaitMs    float64 `json:"mean_wait_ms"`
}

// Snapshot computes the current window digest. Nil-safe (zero snapshot).
func (q *RollingQoS) Snapshot() QoSSnapshot {
	if q == nil {
		return QoSSnapshot{}
	}
	q.mu.Lock()
	recs := q.recordsLocked()
	total := q.total
	alpha := q.alpha
	q.mu.Unlock()

	s := QoSSnapshot{Alpha: alpha, Window: len(recs), Total: total}
	if len(recs) == 0 {
		return s
	}
	s.ViolationRate = metrics.ViolationRate(recs, alpha)
	s.MeanRR = metrics.MeanResponseRatio(recs)
	s.MeanWaitMs = metrics.MeanWait(recs)
	// Jitter is the stddev of *observed* latency, so only served requests
	// belong in it: a shed request has no e2e latency, and folding its
	// shed-time stand-in into the spread would let deadline shedding
	// corrupt the jitter of the requests that actually completed. The
	// offline JitterByModel filters the same way.
	e2e := make([]float64, 0, len(recs))
	for _, r := range recs {
		if r.Served() {
			e2e = append(e2e, r.E2EMs())
		}
	}
	s.JitterMs = stats.StdDev(e2e)
	return s
}
