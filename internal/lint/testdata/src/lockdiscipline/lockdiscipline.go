// Package lockdiscipline exercises the locks rule's escape checks. The golden
// test loads it at split/internal/serve and at split/internal/trace.
package lockdiscipline

import "sync"

// Event is a stand-in for a trace event.
type Event struct{ Kind string }

// Sink mirrors trace.Sink: caller-supplied code with its own locking.
type Sink interface{ Emit(Event) }

// Server is the guinea pig.
type Server struct {
	mu      sync.Mutex
	sink    Sink
	done    chan int
	pending []Event
	onDrop  func(Event)
}

// BadSend sends on a channel with the mutex held.
func (s *Server) BadSend(v int) {
	s.mu.Lock()
	s.done <- v
	s.mu.Unlock()
}

// BadEmit calls the sink with the mutex held via a deferred unlock.
func (s *Server) BadEmit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sink.Emit(e)
}

// emitHelper escapes through the sink; calling it under a lock is as bad
// as inlining it.
func (s *Server) emitHelper(e Event) { s.sink.Emit(e) }

// BadHelper reaches the sink transitively.
func (s *Server) BadHelper(e Event) {
	s.mu.Lock()
	s.emitHelper(e)
	s.mu.Unlock()
}

// BadCallback invokes a caller-supplied function value under the lock.
func (s *Server) BadCallback(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onDrop(e)
}

// GoodBuffered records under the lock and flushes after unlocking: the
// pattern the rule pushes toward.
func (s *Server) GoodBuffered(e Event) {
	s.mu.Lock()
	s.pending = append(s.pending, e)
	evs := s.pending
	s.pending = nil
	s.mu.Unlock()
	for _, ev := range evs {
		s.sink.Emit(ev)
	}
}

// GoodBranch releases the lock on the early path before sending.
func (s *Server) GoodBranch(v int, early bool) {
	s.mu.Lock()
	if early {
		s.mu.Unlock()
		s.done <- v
		return
	}
	s.pending = nil
	s.mu.Unlock()
}

// GoodGoroutine launches work that acquires its own lock; the body does
// not run under the caller's critical section.
func (s *Server) GoodGoroutine(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.done <- v
	}()
}
