package trace

import (
	"io"
	"sync"
)

// Ring is a bounded, concurrency-safe ring buffer of recent events — the
// flight recorder behind the splitd /tracez endpoint. When full, each new
// event overwrites the oldest one, so a snapshot always shows the last
// Cap() scheduling decisions without unbounded memory growth.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	next  int  // index the next event is written at
	full  bool // buf has wrapped at least once
	total int  // lifetime events emitted
}

// NewRing returns a ring holding the most recent `capacity` events
// (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Emit implements Sink. No-op on a nil receiver, matching the nil-safe
// Tracer convention.
func (r *Ring) Emit(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.total++
	r.mu.Unlock()
}

// Len returns the number of events currently held. Nil-safe.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Cap returns the ring capacity. Nil-safe.
func (r *Ring) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Total returns the lifetime number of events emitted, including ones
// already overwritten. Nil-safe.
func (r *Ring) Total() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot returns the held events oldest-first. Nil-safe.
func (r *Ring) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// WriteJSONL dumps the current snapshot as JSON lines, oldest-first.
func (r *Ring) WriteJSONL(w io.Writer) error { return WriteJSONL(w, r.Snapshot()) }
