package serve

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"split/internal/engine"
	"split/internal/stats"
)

// newWallClock is a wall clock with its epoch set. With kernel it is
// started, so holds of kernelTimerMin or more take the kernel timer, and
// the test is skipped where there is none; without, it is never started
// and every hold takes the runtime path, as on a platform without one.
func newWallClock(t testing.TB, kernel bool) *wallClock {
	t.Helper()
	c := new(wallClock)
	if !kernel {
		c.epoch = time.Now()
		return c
	}
	c.start()
	if c.kernel == nil {
		c.stop()
		t.Skip("no kernel timer on this platform")
	}
	return c
}

// waitOrFail waits for done, failing the test after a hang guard.
func waitOrFail(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: timed out", what)
	}
}

// TestWallTimerContract arms 64 lanes' holds at once, each a different
// length in a shuffled order, on each path: every hold fires exactly once,
// none before its length has passed on now(), and each takes the path its
// length and the platform choose. On the kernel timer the holds fire in
// deadline order too; runtime timers fire each on a goroutine of its own,
// in no set order. Then a timer armed as Drain arms its timeout fires, a
// re-arm and its fire allocate nothing, and a hold still pending at stop
// never fires.
func TestWallTimerContract(t *testing.T) {
	const lanes = 64
	for _, row := range []struct {
		name         string
		kernel       bool
		baseMs, step float64 // hold lengths: baseMs + k·step for k = 0..63
		onKernel     bool    // the holds are in the deadline heap, not on runtime timers
	}{
		{"timerfd", true, 1, 0.02, true},
		{"timerfd below cut-off", true, 0.001, float64(kernelTimerMin) / float64(time.Millisecond) / 100, false},
		{"runtime", false, 1, 0.02, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			c := newWallClock(t, row.kernel)
			defer c.stop()
			var (
				mu     sync.Mutex
				order  []int
				fires  [lanes]int
				fireMs [lanes]float64
				armMs  [lanes]float64
				holdMs [lanes]float64
				timers [lanes]*wallTimer
				all    sync.WaitGroup
			)
			for lane := range timers {
				lane := lane
				timers[lane] = c.timer(func() {
					now := c.now()
					mu.Lock()
					fires[lane]++
					first := fires[lane] == 1
					fireMs[lane] = now
					order = append(order, lane)
					mu.Unlock()
					if first {
						all.Done()
					}
				}).(*wallTimer)
			}
			all.Add(lanes)
			for lane, k := range rand.New(rand.NewSource(1)).Perm(lanes) {
				holdMs[lane] = row.baseMs + float64(k)*row.step
				armMs[lane] = c.now()
				timers[lane].arm(holdMs[lane])
			}
			c.mu.Lock()
			for lane, tm := range timers {
				if onRuntime := tm.rt != nil; onRuntime == row.onKernel {
					t.Errorf("lane %d (%.4f ms): on a runtime timer = %v, want %v", lane, holdMs[lane], onRuntime, !row.onKernel)
				}
			}
			c.mu.Unlock()
			done := make(chan struct{})
			go func() { all.Wait(); close(done) }()
			waitOrFail(t, done, "holds")

			timeout := make(chan struct{}, 1)
			drainTimer := c.timer(func() { timeout <- struct{}{} })
			drainTimer.arm(row.baseMs)
			waitOrFail(t, timeout, "drain-timeout timer")
			if allocs := testing.AllocsPerRun(20, func() {
				drainTimer.arm(row.baseMs)
				<-timeout
			}); allocs != 0 {
				t.Errorf("arm and fire: %v allocs, want 0", allocs)
			}

			var pending atomic.Int32
			c.timer(func() { pending.Add(1) }).arm(20)
			// stop returns after any late second fire of a lane, too. Nothing
			// signals a fire that does not come, so wait out twice the hold.
			c.stop()
			time.Sleep(40 * time.Millisecond)
			if n := pending.Load(); n != 0 {
				t.Errorf("a hold pending at stop fired %d times", n)
			}
			mu.Lock()
			defer mu.Unlock()
			for lane := range timers {
				if fires[lane] != 1 {
					t.Errorf("lane %d fired %d times", lane, fires[lane])
				}
				if early := armMs[lane] + holdMs[lane] - fireMs[lane]; early > 1e-6 {
					t.Errorf("lane %d fired %.6f ms before its %.4f ms hold ended", lane, early, holdMs[lane])
				}
			}
			if row.onKernel && !slices.IsSortedFunc(order, func(a, b int) int { return cmp.Compare(timers[a].at, timers[b].at) }) {
				t.Errorf("kernel-timer holds fired out of deadline order: %v", order)
			}
		})
	}
}

// lateClock is a wall clock that counts fires made after stop returned.
type lateClock struct {
	*wallClock
	stopped atomic.Bool
	late    atomic.Int32
}

func (c *lateClock) timer(fire func()) timer {
	return c.wallClock.timer(func() {
		if c.stopped.Load() {
			c.late.Add(1)
		}
		fire()
	})
}

func (c *lateClock) stop() {
	c.wallClock.stop()
	c.stopped.Store(true)
}

// TestShutdownReleasesTimer: Stop, a clean Drain and a timed-out Drain each
// return only once the kernel timer's goroutine has exited and its
// descriptor is closed; the drain timeout's timer, pending after a clean
// drain, never fires into the closed server; and the goroutine count goes
// back to where it was before Start.
func TestShutdownReleasesTimer(t *testing.T) {
	for _, row := range []struct {
		name     string
		model    string
		n        int
		stop     func(*Server) int // the shutdown; returns the requests it shed
		wantShed bool
	}{
		{"stop", "work", 1, func(s *Server) int { s.Stop(); return 0 }, false},
		{"clean drain", "quick", 1, func(s *Server) int { return s.Drain(30 * time.Millisecond) }, false},
		{"timed-out drain", "work", 3, func(s *Server) int { return s.Drain(5 * time.Millisecond) }, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			clk := &lateClock{wallClock: new(wallClock)}
			srv, err := newServer(Config{Knobs: engine.Knobs{Alpha: 4}, Catalog: lifecycleCatalog()}, clk)
			if err != nil {
				t.Fatal(err)
			}
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Start(l); err != nil {
				t.Fatal(err)
			}
			outs := make([]chan outcome, row.n)
			for i := range outs {
				if _, outs[i], err = srv.enqueue(row.model, 0); err != nil {
					t.Fatal(err)
				}
			}
			if shed := row.stop(srv); (shed > 0) != row.wantShed {
				t.Errorf("shed %d requests, want some: %v", shed, row.wantShed)
			}
			if k := clk.kernel; k != nil {
				select {
				case <-clk.exited:
				default:
					t.Error("timer goroutine still running after shutdown returned")
				}
				if err := k.close(); !errors.Is(err, os.ErrClosed) {
					t.Errorf("closing the timerfd after shutdown: %v, want %v", err, os.ErrClosed)
				}
			}
			for _, ch := range outs {
				await(t, ch)
			}
			time.Sleep(60 * time.Millisecond) // past the 30 ms drain timeout
			if n := clk.late.Load(); n != 0 {
				t.Errorf("%d timers fired after shutdown", n)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				t.Errorf("%d goroutines after shutdown, %d before start", n, baseline)
			}
		})
	}
}

// BenchmarkHoldLateness arms one hold at a time on the wall clock and
// reports how late it fires: p50 and p99 over b.N holds, in µs past the
// hold's length on now(). The timerfd rows take the kernel timer; the
// runtime rows take time.AfterFunc, the path shorter holds and other
// platforms keep.
func BenchmarkHoldLateness(b *testing.B) {
	for _, path := range []struct {
		name   string
		kernel bool
	}{{"timerfd", true}, {"runtime", false}} {
		for _, ms := range []float64{0.3, 1.4, 2.7} {
			b.Run(fmt.Sprintf("path=%s/hold=%gms", path.name, ms), func(b *testing.B) {
				c := newWallClock(b, path.kernel)
				defer c.stop()
				fired := make(chan float64, 1)
				tm := c.timer(func() { fired <- c.now() })
				lateUs := make([]float64, b.N)
				b.ResetTimer()
				for i := range lateUs {
					armMs := c.now()
					tm.arm(ms)
					lateUs[i] = (<-fired - armMs - ms) * 1000
				}
				b.StopTimer()
				b.ReportMetric(stats.Percentile(lateUs, 50), "late_p50_us")
				b.ReportMetric(stats.Percentile(lateUs, 99), "late_p99_us")
			})
		}
	}
}
