// Package lockorder seeds an ABBA lock-order cycle closed through a
// module-local call, a non-reentrant re-acquisition, and escapes (channel
// sends, sink Emit calls) reachable while a mutex is held, both directly
// and through a helper.
//
// The golden test loads this package twice, at split/internal/sched and at
// split/internal/serve. The locks rule has no path scope and no division of
// labour between rules, so both loads report every defect once, against
// one golden.
package lockorder

import "sync"

// Sink mimics the trace sink surface the rule treats as an escape.
type Sink interface{ Emit(ev string) }

type server struct {
	mu    sync.Mutex
	regMu sync.Mutex
	ch    chan int
	sink  Sink
}

// abFirst acquires regMu while holding mu: the A->B half of the cycle.
func (s *server) abFirst() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.regMu.Lock()
	s.regMu.Unlock()
}

// lockMu takes mu on behalf of callers; transitive acquisition tracking
// charges it to whatever they hold.
func (s *server) lockMu() {
	s.mu.Lock()
	s.mu.Unlock()
}

// baFirst closes the cycle through a call: it holds regMu and calls
// lockMu, which acquires mu — the B->A half, one frame removed.
func (s *server) baFirst() {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	s.lockMu()
}

// reacquire locks a held, non-reentrant mutex: immediate deadlock.
func (s *server) reacquire() {
	s.mu.Lock()
	s.mu.Lock()
	s.mu.Unlock()
	s.mu.Unlock()
}

// notify sends on a channel with mu held: a blocked receiver deadlocks
// every other mu user.
func (s *server) notify(v int) {
	s.mu.Lock()
	s.ch <- v
	s.mu.Unlock()
}

// emitHeld invokes the sink with mu held: the sink may take its own locks
// or call back into the server.
func (s *server) emitHeld(ev string) {
	s.mu.Lock()
	s.sink.Emit(ev)
	s.mu.Unlock()
}

// flush escapes (a send) without holding anything itself...
func (s *server) flush(v int) {
	s.ch <- v
}

// ...so drainHeld, which calls it under regMu, carries the report.
func (s *server) drainHeld(v int) {
	s.regMu.Lock()
	s.flush(v)
	s.regMu.Unlock()
}
