// Package gpusim is a discrete-event simulator of a single shared edge GPU.
//
// The paper's testbed (Jetson Nano + ONNX Runtime) executes work on a single
// device: sequentially under SPLIT/ClockWork/PREMA, concurrently under the
// multi-stream baselines. The simulator models exactly the quantities those
// systems' results depend on: a virtual clock, an event queue, and a
// contention model for concurrent streams (per-stream slowdown growing with
// the number of co-resident requests, capturing the §2.2 observation that
// operator-level contention makes short requests experience long-request
// latency).
package gpusim

import (
	"fmt"
	"math"
)

// Sim is the event loop. The zero value is not usable; call New.
type Sim struct {
	now    float64
	events eventHeap
	seq    int
	// processed counts executed events, for loop-safety assertions.
	processed int
	// MaxEvents aborts runs that exceed this many events (guards against
	// accidental infinite event loops in policy code). 0 means no limit.
	MaxEvents int
}

// New returns an empty simulator at time 0.
func New() *Sim {
	return &Sim{MaxEvents: 50_000_000}
}

// Now returns the current virtual time in milliseconds.
func (s *Sim) Now() float64 { return s.now }

// Processed returns the number of events executed so far.
func (s *Sim) Processed() int { return s.processed }

// At schedules fn to run at absolute time atMs (>= Now). Scheduling in the
// past panics: it always indicates a policy bug.
//
// Events are stored by value in a hand-rolled binary heap: scheduling does
// not allocate beyond the amortized growth of the heap's backing array
// (container/heap would heap-allocate and interface-box every event).
//
//lint:hotpath every device hold schedules its boundary event here
func (s *Sim) At(atMs float64, fn func(now float64)) {
	atMs = s.eventTime(atMs)
	s.seq++
	//lint:ignore hotalloc amortized heap growth: the backing array reaches steady state and is reused
	s.events = append(s.events, event{at: atMs, seq: s.seq, fn: fn})
	s.events.siftUp(len(s.events) - 1)
}

// eventTime checks an event time against the clock — the past and
// non-finite times panic — and absorbs float rounding just behind Now.
func (s *Sim) eventTime(atMs float64) float64 {
	if atMs < s.now-1e-9 {
		panic(fmt.Sprintf("gpusim: scheduling event at %.6f before now %.6f", atMs, s.now))
	}
	if math.IsNaN(atMs) || math.IsInf(atMs, 0) {
		panic(fmt.Sprintf("gpusim: invalid event time %v", atMs))
	}
	if atMs < s.now {
		atMs = s.now
	}
	return atMs
}

// After schedules fn to run delayMs milliseconds from now.
//
//lint:hotpath the grant path schedules block-boundary timers through here
func (s *Sim) After(delayMs float64, fn func(now float64)) {
	s.At(s.now+delayMs, fn)
}

// Run executes events until the queue is empty and returns the final time.
func (s *Sim) Run() float64 {
	for len(s.events) > 0 {
		s.Step()
	}
	return s.now
}

// RunUntil executes events with time <= t, then sets the clock to t.
func (s *Sim) RunUntil(t float64) {
	for len(s.events) > 0 && s.events[0].at <= t {
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}

// NextAt returns the time of the earliest queued event, +Inf when none is
// queued.
//
// NextAt, Step and Advance let a caller merge a time-ordered stream of its
// own — a trace's arrivals — against the queue instead of planting it: fire
// whichever of NextAt and the stream's head is earlier, a queued event with
// Step, a stream event with Advance. An event planted before the run would
// precede every same-instant event scheduled during it, so let the stream
// win ties; the merged firing order is then exactly the planted one, and the
// heap stays as deep as the work in flight rather than as long as the trace.
func (s *Sim) NextAt() float64 {
	if len(s.events) == 0 {
		return math.Inf(1)
	}
	return s.events[0].at
}

// Step executes the earliest queued event; it panics on an empty queue.
func (s *Sim) Step() {
	ev := s.events[0]
	last := len(s.events) - 1
	s.events[0] = s.events[last]
	s.events[last] = event{} // release the callback so the array retains nothing
	s.events = s.events[:last]
	if last > 0 {
		s.events.siftDown(0)
	}
	s.now = ev.at
	s.count()
	ev.fn(s.now)
}

// Advance moves the clock to the time of an event the caller fires itself,
// under At's rules for event times, and counts it as processed. The caller
// must have stepped past every queued event earlier than atMs.
func (s *Sim) Advance(atMs float64) {
	s.now = s.eventTime(atMs)
	s.count()
}

// count books one executed event against the runaway budget.
func (s *Sim) count() {
	s.processed++
	if s.MaxEvents > 0 && s.processed > s.MaxEvents {
		panic("gpusim: event budget exceeded (runaway simulation)")
	}
}

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return len(s.events) }

type event struct {
	at  float64
	seq int // FIFO tie-break for simultaneous events
	fn  func(now float64)
}

// eventHeap is a min-heap of events by (at, seq), stored by value. The
// sift operations are the textbook binary-heap ones; because (at, seq) is
// a strict total order, pop order is identical to container/heap's.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) siftDown(i int) {
	for {
		smallest := i
		if l := 2*i + 1; l < len(h) && h.less(l, smallest) {
			smallest = l
		}
		if r := 2*i + 2; r < len(h) && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// Contention models the per-stream slowdown of concurrent GPU execution:
// with k requests co-resident on the device, each runs Inflation(k) times
// slower than isolated. The default is calibrated so that heavy multi-stream
// sharing roughly halves per-stream throughput at 4-way concurrency, which
// matches the "serious resource contention" the paper attributes to the
// Stream-Parallel approach.
type Contention struct {
	// Gamma is the per-extra-stream slowdown coefficient.
	Gamma float64
	// Cap bounds the inflation factor (hardware can't get arbitrarily slow).
	Cap float64
}

// DefaultContention returns the calibrated contention model.
func DefaultContention() Contention {
	return Contention{Gamma: 0.25, Cap: 3.0}
}

// Inflation returns the slowdown factor for k co-resident requests (k >= 1).
func (c Contention) Inflation(k int) float64 {
	if k <= 1 {
		return 1
	}
	f := 1 + c.Gamma*float64(k-1)
	if c.Cap > 0 && f > c.Cap {
		f = c.Cap
	}
	return f
}
