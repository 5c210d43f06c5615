package gpusim

import (
	"math"
	"testing"
)

func TestBatchCostScalarIdentity(t *testing.T) {
	// A batch of one must be the serial block bit-for-bit, for every
	// parameterization — the disabled-batching identity rests on this.
	for _, c := range []BatchCost{{}, DefaultBatchCost(), {SetupFrac: 0.9, EffGain: 0.99}, {SetupFrac: -3, EffGain: 7}} {
		for _, b := range []float64{0.1, 1, 13.37, 28.35, 67.5} {
			if got := c.BlockMs(b, 1); got != b {
				t.Errorf("BlockMs(%v, 1) = %v, want exactly %v (cost %+v)", b, got, b, c)
			}
			if got := c.BlockMs(b, 0); got != b {
				t.Errorf("BlockMs(%v, 0) = %v, want exactly %v", b, got, b)
			}
		}
		if c.Efficiency(1) != 1 {
			t.Errorf("Efficiency(1) = %v, want 1", c.Efficiency(1))
		}
	}
}

func TestBatchCostSublinear(t *testing.T) {
	c := DefaultBatchCost()
	// t(b, n) grows with n but strictly slower than n·b, and per-request
	// time t(b,n)/n shrinks monotonically.
	b := 20.0
	prev := c.BlockMs(b, 1)
	for n := 2; n <= 16; n++ {
		cur := c.BlockMs(b, n)
		if cur <= prev {
			t.Fatalf("BlockMs not increasing at n=%d: %v <= %v", n, cur, prev)
		}
		if cur >= float64(n)*b {
			t.Fatalf("no batching gain at n=%d: %v >= %v", n, cur, float64(n)*b)
		}
		if cur/float64(n) >= prev/float64(n-1) {
			t.Fatalf("per-request time not shrinking at n=%d", n)
		}
		prev = cur
	}
	// The default model clears the ablation's throughput bar at n=4:
	// t(b,4) = 0.25b + 4·0.75b·0.625 = 2.125b → speedup ≈ 1.88.
	if got := c.BlockMs(b, 4); math.Abs(got-2.125*b) > 1e-9 {
		t.Errorf("BlockMs(b,4) = %v, want %v", got, 2.125*b)
	}
	if sp := c.Speedup(4); sp < 1.5 {
		t.Errorf("Speedup(4) = %v, want >= 1.5", sp)
	}
	if sp := c.Speedup(1); sp != 1 {
		t.Errorf("Speedup(1) = %v, want 1", sp)
	}
}

// TestDeviceBatchAccounting: a batched grant is one hold like any other —
// the ledger counts one block and its time per hold, whatever the batch
// size, and a batch cannot share the device with another hold.
func TestDeviceBatchAccounting(t *testing.T) {
	sim := New()
	pool := NewDevicePool(sim, 1, nil)
	d := pool.Device(0)

	d.Acquire(0) // a scalar grant
	d.Release(10)
	d.Acquire(10) // a batch of four
	d.Release(30)
	d.Acquire(30) // a batch of two
	d.Release(40)
	if d.Blocks() != 3 {
		t.Fatalf("total holds = %d, want 3", d.Blocks())
	}
	if d.BusyMs() != 40 {
		t.Fatalf("busyMs = %v, want 40", d.BusyMs())
	}

	d.Acquire(40)
	defer func() {
		if recover() == nil {
			t.Fatal("double Acquire did not panic")
		}
	}()
	d.Acquire(41)
}
