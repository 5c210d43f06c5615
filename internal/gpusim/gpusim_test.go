package gpusim

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New()
	var order []float64
	s.At(5, func(now float64) { order = append(order, now) })
	s.At(1, func(now float64) { order = append(order, now) })
	s.At(3, func(now float64) { order = append(order, now) })
	end := s.Run()
	if end != 5 {
		t.Errorf("end time = %v", end)
	}
	want := []float64{1, 3, 5}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(7, func(now float64) { order = append(order, i) })
	}
	s.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New()
	var at float64
	s.At(10, func(now float64) {
		s.After(5, func(now float64) { at = now })
	})
	s.Run()
	if at != 15 {
		t.Errorf("After fired at %v", at)
	}
}

func TestEventsCanCascade(t *testing.T) {
	s := New()
	count := 0
	var spawn func(now float64)
	spawn = func(now float64) {
		count++
		if count < 100 {
			s.After(1, spawn)
		}
	}
	s.After(0, spawn)
	end := s.Run()
	if count != 100 {
		t.Errorf("count = %d", count)
	}
	if end != 99 {
		t.Errorf("end = %v", end)
	}
	if s.Processed() != 100 {
		t.Errorf("processed = %d", s.Processed())
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	fired := 0
	s.At(1, func(float64) { fired++ })
	s.At(10, func(float64) { fired++ })
	s.RunUntil(5)
	if fired != 1 {
		t.Errorf("fired = %d", fired)
	}
	if s.Now() != 5 {
		t.Errorf("now = %v", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d", s.Pending())
	}
	s.Run()
	if fired != 2 || s.Now() != 10 {
		t.Errorf("final: fired=%d now=%v", fired, s.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(10, func(now float64) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5, func(float64) {})
	})
	s.Run()
}

func TestSchedulingNaNPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("NaN event time did not panic")
		}
	}()
	s.At(math.NaN(), func(float64) {})
}

func TestTinyNegativeJitterClamped(t *testing.T) {
	// Times within the 1e-9 tolerance clamp to now instead of panicking
	// (floating point arithmetic in policies produces these).
	s := New()
	s.At(1, func(now float64) {
		s.At(now-1e-12, func(float64) {})
	})
	s.Run() // must not panic
}

func TestEventBudgetGuard(t *testing.T) {
	s := New()
	s.MaxEvents = 50
	var loop func(now float64)
	loop = func(now float64) { s.After(1, loop) }
	s.After(0, loop)
	defer func() {
		if recover() == nil {
			t.Error("runaway simulation not caught")
		}
	}()
	s.Run()
}

// TestMergedStreamFiresInPlantedOrder drives the queue the way a trace
// replay does — external events fed with Advance, queued ones with Step —
// and checks the result against planting everything up front: same order,
// ties to the stream, every fed event counted.
func TestMergedStreamFiresInPlantedOrder(t *testing.T) {
	stream := []float64{0, 2, 2, 5, 9}
	// Each stream event schedules a timer 3 ms out: the one from t=2 lands
	// exactly on the stream event at t=5.
	run := func(planted bool) (order []string, s *Sim) {
		s = New()
		fire := func(i int) func(float64) {
			return func(now float64) {
				order = append(order, fmt.Sprintf("ext%d@%v", i, now))
				s.After(3, func(now float64) { order = append(order, fmt.Sprintf("timer%d@%v", i, now)) })
			}
		}
		if planted {
			for i, at := range stream {
				s.At(at, fire(i))
			}
			s.Run()
			return order, s
		}
		for i, at := range stream {
			for s.NextAt() < at {
				s.Step()
			}
			s.Advance(at)
			fire(i)(s.Now())
		}
		s.Run()
		return order, s
	}
	want, planted := run(true)
	got, merged := run(false)
	if !slices.Equal(got, want) {
		t.Errorf("merged order %v\nplanted order %v", got, want)
	}
	if merged.Processed() != planted.Processed() || merged.Processed() != 2*len(stream) {
		t.Errorf("processed: merged %d, planted %d, want %d", merged.Processed(), planted.Processed(), 2*len(stream))
	}
	if merged.Now() != planted.Now() {
		t.Errorf("final time: merged %v, planted %v", merged.Now(), planted.Now())
	}
	if at := merged.NextAt(); !math.IsInf(at, 1) {
		t.Errorf("NextAt on an empty queue = %v, want +Inf", at)
	}
}

func TestAdvanceFollowsAtsRules(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	s := New()
	s.Advance(10)
	mustPanic("advancing before now", func() { s.Advance(5) })
	mustPanic("advancing to NaN", func() { s.Advance(math.NaN()) })
	mustPanic("advancing to +Inf", func() { s.Advance(math.Inf(1)) })
	s.Advance(10 - 1e-12) // float jitter just behind now clamps, as in At
	if s.Now() != 10 {
		t.Errorf("now = %v after a clamped advance, want 10", s.Now())
	}

	s = New()
	s.MaxEvents = 3
	mustPanic("a runaway feed", func() {
		for i := 0; ; i++ {
			s.Advance(float64(i))
		}
	})
	if s.Processed() != 4 {
		t.Errorf("processed = %d when the budget of 3 tripped, want 4", s.Processed())
	}
}

func TestContentionInflation(t *testing.T) {
	c := DefaultContention()
	if got := c.Inflation(1); got != 1 {
		t.Errorf("k=1 inflation = %v", got)
	}
	if got := c.Inflation(0); got != 1 {
		t.Errorf("k=0 inflation = %v", got)
	}
	if got := c.Inflation(2); math.Abs(got-1.25) > 1e-12 {
		t.Errorf("k=2 inflation = %v", got)
	}
	// Cap applies.
	if got := c.Inflation(100); got != c.Cap {
		t.Errorf("capped inflation = %v", got)
	}
}

func TestContentionMonotone(t *testing.T) {
	c := DefaultContention()
	prev := 0.0
	for k := 1; k <= 20; k++ {
		f := c.Inflation(k)
		if f < prev {
			t.Fatalf("inflation not monotone at k=%d", k)
		}
		prev = f
	}
}

func TestContentionNoCap(t *testing.T) {
	c := Contention{Gamma: 0.5, Cap: 0}
	if got := c.Inflation(11); math.Abs(got-6) > 1e-12 {
		t.Errorf("uncapped inflation = %v", got)
	}
}
