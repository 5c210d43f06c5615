package gpusim

import (
	"math"
	"testing"
)

func TestPartitionCostCurve(t *testing.T) {
	c := DefaultPartitionCost()
	if got := c.Efficiency(1); got != 1 {
		t.Errorf("eff(1) = %v, want exactly 1", got)
	}
	if got := c.BlockMs(13.37, 1); got != 13.37 {
		t.Errorf("BlockMs(b, 1) = %v, want bit-exact 13.37", got)
	}
	if got := c.BlockMs(13.37, 2); got != 13.37 {
		t.Errorf("BlockMs(b, f>1) = %v, want clamped to serial 13.37", got)
	}
	// Monotone increasing and saturating: eff grows with f, marginal gain
	// shrinks.
	fs := []float64{0.125, 0.25, 0.5, 0.75, 1}
	for i := 1; i < len(fs); i++ {
		lo, hi := c.Efficiency(fs[i-1]), c.Efficiency(fs[i])
		if hi <= lo {
			t.Errorf("eff not monotone: eff(%v)=%v <= eff(%v)=%v", fs[i], hi, fs[i-1], lo)
		}
	}
	// Beta=0.5: eff(1/4) = 0.5, so 4 lanes aggregate to 2x serial.
	if got := c.Efficiency(0.25); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("eff(1/4) = %v, want 0.5", got)
	}
	if got := c.Speedup(4); math.Abs(got-2) > 1e-12 {
		t.Errorf("Speedup(4) = %v, want 2", got)
	}
	if got := c.Speedup(1); got != 1 {
		t.Errorf("Speedup(1) = %v, want 1", got)
	}
	// Beta=1 is the no-gain edge: M lanes aggregate to exactly serial.
	linear := PartitionCost{Beta: 1}
	if got := linear.Speedup(8); math.Abs(got-1) > 1e-12 {
		t.Errorf("linear-contention Speedup(8) = %v, want 1", got)
	}
	// The zero value defaults.
	if (PartitionCost{}).OrDefault() != DefaultPartitionCost() {
		t.Error("zero PartitionCost did not default")
	}
	if custom := (PartitionCost{Beta: 0.3}).OrDefault(); custom.Beta != 0.3 {
		t.Errorf("non-zero PartitionCost overridden: %+v", custom)
	}
}

func TestPartitionEfficiencyRejectsNonPositiveFraction(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Efficiency(0) did not panic")
		}
	}()
	DefaultPartitionCost().Efficiency(0)
}

// TestPartitionHoldsOverlapInVirtualTime pins the tentpole semantics:
// concurrent holds on distinct partitions of one device overlap under one
// clock, and busy-ms pro-rates by the occupied fraction.
func TestPartitionHoldsOverlapInVirtualTime(t *testing.T) {
	sim := New()
	pool := NewDevicePool(sim, 1, nil)
	pool.ConfigurePartitions(2)
	d := pool.Device(0)
	if d.Partitions() != 2 {
		t.Fatalf("partitions = %d, want 2", d.Partitions())
	}
	// Two half-width holds overlap [10, 30] and [20, 40].
	sim.At(10, func(now float64) {
		if f := d.AcquirePartition(now, 0, 1); f != 0.5 {
			t.Errorf("p0 fraction = %v, want 0.5", f)
		}
	})
	sim.At(20, func(now float64) {
		if f := d.AcquirePartition(now, 1, 1); f != 0.5 {
			t.Errorf("p1 fraction = %v, want 0.5", f)
		}
		if got := d.HeldFraction(); got != 1 {
			t.Errorf("held fraction during overlap = %v, want 1", got)
		}
		if !d.Busy() || !d.PartitionBusy(0) || !d.PartitionBusy(1) {
			t.Error("busy flags during overlap wrong")
		}
	})
	sim.At(25, func(now float64) {
		// Mid-overlap occupancy: 15 ms of p0 and 5 ms of p1, both at 1/2.
		if got := d.BusyMsAt(now); got != 10 {
			t.Errorf("BusyMsAt(25) = %v, want 10", got)
		}
	})
	sim.At(30, func(now float64) { d.ReleasePartition(now, 0) })
	sim.At(40, func(now float64) { d.ReleasePartition(now, 1) })
	sim.Run()
	// Each hold: 20 ms at fraction 1/2 => 10 busy-ms; total 20 of the 30 ms
	// horizon the two spans cover.
	if got := d.BusyMs(); got != 20 {
		t.Errorf("busy = %v ms, want 20", got)
	}
	if d.Blocks() != 2 {
		t.Errorf("blocks = %d, want 2", d.Blocks())
	}
	if d.Busy() || d.HeldFraction() != 0 {
		t.Error("device not idle after releases")
	}
}

// TestPartitionSpanClamping: a width-adaptive hold takes the contiguous
// free run starting at its anchor, clamped by its want and by its
// neighbors.
func TestPartitionSpanClamping(t *testing.T) {
	d := &Device{}
	d.ConfigurePartitions(4)
	// Idle device, want-everything hold anchored at 0: full width.
	if f := d.AcquirePartition(0, 0, 4); f != 1 {
		t.Fatalf("idle full-width fraction = %v, want 1", f)
	}
	if !d.PartitionBusy(3) {
		t.Error("slot 3 not covered by the full-width hold")
	}
	d.ReleasePartition(10, 0)
	if got := d.BusyMs(); got != 10 {
		t.Errorf("full-width hold busy = %v, want 10 (fraction 1)", got)
	}
	// A 1-slot hold at 1 splits the space: an anchored-at-2 want-4 hold
	// gets slots [2,4) only; an anchored-at-0 want-4 hold gets slot 0 only.
	d.AcquirePartition(10, 1, 1)
	if f := d.AcquirePartition(10, 2, 4); f != 0.5 {
		t.Errorf("clamped span fraction = %v, want 0.5 (slots 2,3)", f)
	}
	if f := d.AcquirePartition(10, 0, 4); f != 0.25 {
		t.Errorf("boxed-in span fraction = %v, want 0.25 (slot 0)", f)
	}
	if got := d.HeldFraction(); got != 1 {
		t.Errorf("held fraction = %v, want 1", got)
	}
	d.ReleasePartition(20, 0)
	d.ReleasePartition(20, 1)
	d.ReleasePartition(20, 2)
	if got := d.HeldFraction(); got != 0 {
		t.Errorf("held fraction after releases = %v, want 0", got)
	}
}

func TestPartitionExclusivityPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	d := &Device{}
	d.ConfigurePartitions(2)
	d.AcquirePartition(0, 0, 1)
	mustPanic("double partition acquire", func() { d.AcquirePartition(1, 0, 1) })
	mustPanic("whole-device acquire under partition hold", func() { d.Acquire(1) })
	mustPanic("repartition while held", func() { d.ConfigurePartitions(4) })
	mustPanic("release of idle partition", func() { d.ReleasePartition(1, 1) })
	mustPanic("out-of-range partition", func() { d.AcquirePartition(1, 2, 1) })
	d.ReleasePartition(5, 0)
	mustPanic("double partition release", func() { d.ReleasePartition(6, 0) })
	// A slot covered by a wider hold rejects its own acquire.
	d.AcquirePartition(10, 0, 2)
	mustPanic("covered-slot acquire", func() { d.AcquirePartition(11, 1, 1) })
	d.ReleasePartition(12, 0)
	// A one-slot device guards attach under a hold like any other.
	serial := &Device{}
	serial.Acquire(0)
	mustPanic("detach under hold still guarded", func() { serial.Attach(1) })
}

// TestUtilizationCountsInProgressHold pins the S1 accounting fix: a device
// mid-block is occupied, not idle — the completed-holds-only numerator
// reported 0 exactly while the autoscaler most needed the signal.
func TestUtilizationCountsInProgressHold(t *testing.T) {
	d := &Device{}
	d.Attach(0)
	d.Acquire(0)
	if got := d.Utilization(50); got != 1 {
		t.Errorf("mid-hold utilization = %v, want 1", got)
	}
	if got := d.BusyMsAt(50); got != 50 {
		t.Errorf("mid-hold BusyMsAt = %v, want 50", got)
	}
	d.Release(60)
	if got := d.Utilization(80); got != 0.75 {
		t.Errorf("post-hold utilization = %v, want 60/80", got)
	}
	// Partitioned: one half-width in-progress hold counts at its fraction.
	pd := &Device{}
	pd.Attach(0)
	pd.ConfigurePartitions(2)
	pd.AcquirePartition(0, 0, 1)
	if got := pd.Utilization(40); got != 0.5 {
		t.Errorf("mid-partition-hold utilization = %v, want 0.5", got)
	}
}

// TestReattachClearsStaleHoldStamp pins the S1 attach-seam fix: a device
// detached and later re-attached starts its new span with clean hold
// bookkeeping, and occupancy accounted after the re-attach covers only
// post-re-attach holds.
func TestReattachClearsStaleHoldStamp(t *testing.T) {
	d := &Device{}
	d.Attach(0)
	d.Acquire(10)
	d.Release(20)
	// Release leaves the hold stamp behind; the detach/re-attach seam must
	// not let it leak into the next attach span.
	d.Detach(30)
	d.Attach(100)
	// Occupancy across the seam: 10 busy-ms in each attach span, and
	// utilization over the 30+100 attached ms at horizon 200.
	d.Acquire(150)
	d.Release(160)
	if got := d.BusyMs(); got != 20 {
		t.Errorf("busy across re-attach = %v, want 20", got)
	}
	if got, want := d.Utilization(200), 20.0/(30+100); got != want {
		t.Errorf("utilization across re-attach = %v, want %v", got, want)
	}
	// Attaching a busy device is the seam violation itself.
	bad := &Device{}
	bad.Acquire(0)
	defer func() {
		if recover() == nil {
			t.Error("attach of a busy device did not panic")
		}
	}()
	bad.Attach(5)
}

// FuzzPartitionTimeline drives random concurrent partition holds through
// one device and checks the spatial-sharing invariants: per-partition
// exclusivity (a slot is never granted twice), fraction conservation
// (Σ granted fractions <= 1 at all times), pro-rated busy-ms never
// exceeding wall time, and monotone virtual time.
func FuzzPartitionTimeline(f *testing.F) {
	f.Add(uint8(2), []byte{0x13, 0x87, 0x22, 0x51, 0x90, 0x04})
	f.Add(uint8(4), []byte{0xff, 0x00, 0x81, 0x3c, 0x55, 0xaa, 0x17, 0x68})
	f.Add(uint8(7), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Fuzz(func(t *testing.T, m uint8, ops []byte) {
		parts := int(m%7) + 2 // 2..8 slots
		d := &Device{}
		d.ConfigurePartitions(parts)
		type hold struct {
			endMs float64
			frac  float64
		}
		open := make(map[int]*hold) // anchor -> hold
		lastNow := 0.0
		// Replay ops: each byte is (partition, want, duration) packed.
		for i, b := range ops {
			p := int(b) % parts
			want := int(b>>3)%parts + 1
			dur := float64(b%13) + 1
			now := float64(i * 3)
			if now < lastNow {
				t.Fatalf("virtual time went backwards: %v < %v", now, lastNow)
			}
			lastNow = now
			// Release holds that ended by now, in anchor order for
			// determinism.
			for anchor := 0; anchor < parts; anchor++ {
				h := open[anchor]
				if h != nil && h.endMs <= now {
					d.ReleasePartition(h.endMs, anchor)
					delete(open, anchor)
				}
			}
			if d.PartitionBusy(p) {
				continue // lane gated on its anchor slot, like the scheduler
			}
			frac := d.AcquirePartition(now, p, want)
			if frac <= 0 || frac > 1 {
				t.Fatalf("granted fraction %v outside (0,1]", frac)
			}
			open[p] = &hold{endMs: now + dur, frac: frac}
			// Conservation: Σ fractions of open holds == HeldFraction <= 1.
			sum := 0.0
			for _, h := range open {
				sum += h.frac
			}
			if got := d.HeldFraction(); math.Abs(got-sum) > 1e-9 || got > 1+1e-9 {
				t.Fatalf("held fraction %v, open-hold sum %v", got, sum)
			}
			// Exclusivity: every covered slot covered exactly once.
			covered := 0
			for s := 0; s < parts; s++ {
				if d.PartitionBusy(s) {
					covered++
				}
			}
			if math.Abs(float64(covered)/float64(parts)-d.HeldFraction()) > 1e-9 {
				t.Fatalf("covered slots %d/%d disagree with held fraction %v",
					covered, parts, d.HeldFraction())
			}
		}
		// Drain and check the pro-rated total: busy-ms never exceeds the
		// elapsed horizon (fraction conservation integrated over time).
		horizon := lastNow
		for anchor := 0; anchor < parts; anchor++ {
			if h := open[anchor]; h != nil {
				d.ReleasePartition(h.endMs, anchor)
				if h.endMs > horizon {
					horizon = h.endMs
				}
			}
		}
		if busy := d.BusyMs(); busy > horizon+1e-9 {
			t.Fatalf("pro-rated busy %v exceeds horizon %v", busy, horizon)
		}
	})
}
