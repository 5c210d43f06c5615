package serve

import (
	"sync"
	"time"
)

// kernelTimerMin is the shortest hold the kernel timer times: a shorter
// one goes on a runtime timer. A CLOCK_MONOTONIC timerfd read through Go's
// netpoller wakes 20–65 µs after its deadline at p50 (0.3–2.7 ms holds on
// an idle 2-core x86-64 KVM guest, Linux 6.x, go1.24; BenchmarkHoldLateness
// measures it), so below that the runtime timer, which fires a hold due at
// once without a trip through the kernel, is as precise and cheaper. With
// no cut-off, serve_saturate_tiny's 10 ns holds went through the timerfd
// and that workload lost 28 % of its throughput (EXPERIMENTS P10).
const kernelTimerMin = 50 * time.Microsecond

// wallClock is the server's clock in a live process. now is the monotonic
// time since start. A hold of at least kernelTimerMin is an entry in one
// deadline heap, timed by one kernel timer (a timerfd, on Linux) that a
// single goroutine waits on; it pops the due entries and fires them, in
// deadline order, with the heap's lock released. Go's own timers wait in
// the netpoller, which rounds its waits up to whole milliseconds on Linux,
// so every hold would end up to a millisecond late and every request queued
// behind it would wait that long too. A shorter hold, and every hold where
// there is no kernel timer (other platforms, or a failed timerfd_create),
// keeps a time.AfterFunc timer of its own.
type wallClock struct {
	epoch time.Time

	mu sync.Mutex
	// due is the deadline heap of armed kernel-path holds, earliest first.
	due []*wallTimer
	// kernel is the started kernel timer, nil where there is none; exited
	// closes when the goroutine waiting on it returns.
	kernel *kernelTimer
	exited chan struct{}
	// stopped: stop ran; nothing armed fires any more.
	stopped bool
	// timers is every timer made, so stop can stop their runtime timers.
	timers []*wallTimer
}

// wallTimer is one hold's timer: at is its deadline since the epoch while
// it waits in the heap, rt its runtime timer once the runtime path has
// timed it. It is never re-armed while pending.
type wallTimer struct {
	c    *wallClock
	fire func()
	at   time.Duration
	rt   *time.Timer
}

func (c *wallClock) start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch = time.Now()
	if c.stopped {
		return
	}
	k, err := openKernelTimer()
	if err != nil {
		return // every hold on a runtime timer
	}
	c.kernel, c.exited = k, make(chan struct{})
	go c.run(k)
}

func (c *wallClock) now() float64 {
	if c.epoch.IsZero() {
		return 0 // not decades since the zero time
	}
	return float64(time.Since(c.epoch)) / float64(time.Millisecond)
}

func (c *wallClock) timer(fire func()) timer {
	t := &wallTimer{c: c, fire: fire}
	c.mu.Lock()
	c.timers = append(c.timers, t)
	c.mu.Unlock()
	return t
}

// stop discards the armed holds, so none fires after it, and returns once
// the kernel timer's goroutine has exited and its descriptor is closed.
// Every call waits for that, the first one closes it. A wake-up that races
// with it finds the heap empty and sets nothing on the closed descriptor.
func (c *wallClock) stop() {
	c.mu.Lock()
	first := !c.stopped
	c.stopped = true
	c.due = nil
	for _, t := range c.timers {
		if t.rt != nil {
			t.rt.Stop()
		}
	}
	k := c.kernel
	c.mu.Unlock()
	if k == nil {
		return
	}
	if first {
		// Closing wakes run's wait with an error. Nothing was written to
		// the timer, so there is nothing a failed close could lose.
		_ = k.close()
	}
	<-c.exited
}

// arm times the hold for ms from now: on the kernel timer when there is
// one and the hold is long enough for it to matter, else on its own
// runtime timer.
//
//lint:hotpath every granted hold is armed here
func (t *wallTimer) arm(ms float64) {
	d := time.Duration(ms * float64(time.Millisecond))
	c := t.c
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.stopped:
	case c.kernel == nil || d < kernelTimerMin:
		if t.rt == nil {
			//lint:ignore hotalloc one runtime timer per hold, made at its first short arm and reset after
			t.rt = time.AfterFunc(d, t.fire)
		} else {
			t.rt.Reset(d)
		}
	default:
		t.at = time.Since(c.epoch) + d
		c.pushLocked(t)
		if c.due[0] == t {
			c.kernel.set(d)
		}
	}
}

// run is the kernel timer's goroutine: at each expiry it pops every hold
// now due, sets the timer for the next, and fires the popped ones in
// deadline order with c.mu released (a fire takes the server's mutex and
// arms holds of its own). It returns once stop closes the timer.
func (c *wallClock) run(k *kernelTimer) {
	defer close(c.exited)
	var fired []*wallTimer
	for k.wait() == nil {
		c.mu.Lock()
		now := time.Since(c.epoch)
		fired = fired[:0]
		for len(c.due) > 0 && c.due[0].at <= now {
			fired = append(fired, c.popLocked())
		}
		if len(c.due) > 0 {
			k.set(c.due[0].at - now)
		}
		c.mu.Unlock()
		for _, t := range fired {
			t.fire()
		}
	}
}

// pushLocked adds t to the deadline heap. Caller holds c.mu.
func (c *wallClock) pushLocked(t *wallTimer) {
	//lint:ignore hotalloc amortized heap growth: the backing array reaches the lane count and is reused
	c.due = append(c.due, t)
	h := c.due
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent].at <= h[i].at {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// popLocked removes and returns the earliest hold. Caller holds c.mu.
func (c *wallClock) popLocked() *wallTimer {
	h := c.due
	top, n := h[0], len(h)-1
	h[0], h[n] = h[n], nil
	h = h[:n]
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < n && h[l].at < h[m].at {
			m = l
		}
		if r := 2*i + 2; r < n && h[r].at < h[m].at {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	c.due = h
	return top
}
