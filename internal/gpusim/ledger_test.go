package gpusim

import (
	"math"
	"testing"
)

// ledgerModel is a naive per-slot model of a Device's slot ledger: owner[s]
// is the anchor of the hold covering slot s (-1 free), and each anchor
// records its hold's width and start.
type ledgerModel struct {
	owner    []int
	width    []int
	since    []float64
	held     int
	attached bool
	busy     float64
}

func newLedgerModel(m int) *ledgerModel {
	lm := &ledgerModel{owner: make([]int, m), width: make([]int, m), since: make([]float64, m)}
	for s := range lm.owner {
		lm.owner[s] = -1
	}
	return lm
}

// acquire grants the free run at p clamped to want; ok is false on a
// covered anchor.
func (lm *ledgerModel) acquire(now float64, p, want int) (frac float64, ok bool) {
	if lm.owner[p] >= 0 {
		return 0, false
	}
	k := 0
	for k < want && p+k < len(lm.owner) && lm.owner[p+k] < 0 {
		lm.owner[p+k] = p
		k++
	}
	lm.width[p], lm.since[p] = k, now
	lm.held++
	return float64(k) / float64(len(lm.owner)), true
}

// release ends the hold anchored at p; ok is false when none is.
func (lm *ledgerModel) release(now float64, p int) bool {
	k := lm.width[p]
	if k == 0 {
		return false
	}
	for s := p; s < p+k; s++ {
		lm.owner[s] = -1
	}
	lm.width[p] = 0
	lm.held--
	lm.busy += float64(k) / float64(len(lm.owner)) * (now - lm.since[p])
	return true
}

// busyAt is the model's BusyMsAt: settled occupancy plus every open hold
// pro-rated, anchors in slot order.
func (lm *ledgerModel) busyAt(now float64) float64 {
	total := lm.busy
	for p, k := range lm.width {
		if k > 0 && now > lm.since[p] {
			total += float64(k) / float64(len(lm.owner)) * (now - lm.since[p])
		}
	}
	return total
}

// panics runs f and reports whether it panicked.
func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// FuzzDeviceLedger drives random hold and membership calls through one
// device of 1 to 4 slots — the paper's one sequential GPU is the ledger at
// one slot — against a naive per-slot model, and checks after every call:
// slot exclusivity and Σ granted fractions <= 1, busy-ms equal to the
// model's Σ (k/M)·t bit for bit, occupancy and utilization at most 1, and
// a panic exactly on a covered anchor, an idle release, a busy acquire of
// the whole device, or a busy or repeated attach or detach.
func FuzzDeviceLedger(f *testing.F) {
	// Two slots: a one-slot hold at 0, then its release 2.25 ms later.
	f.Add(uint8(1), []byte{0x00, 0x01, 0x09, 0x03})
	f.Add(uint8(0), []byte{0x00, 0x13, 0x02, 0x21, 0x03, 0x05, 0x04, 0x11, 0x05, 0x00})
	f.Add(uint8(1), []byte{0x10, 0x17, 0x01, 0x22, 0x18, 0x31, 0x09, 0x40, 0x12, 0x03, 0x25, 0x06})
	f.Add(uint8(3), []byte{0x20, 0x45, 0x30, 0x11, 0x08, 0x27, 0x19, 0x02, 0x0e, 0x33, 0x38, 0x00, 0x2b, 0x15})
	f.Fuzz(func(t *testing.T, m uint8, ops []byte) {
		parts := int(m%4) + 1
		d := &Device{}
		d.ConfigurePartitions(parts)
		lm := newLedgerModel(parts)
		frac := make([]float64, parts) // granted fraction per open anchor
		now := 0.0
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			p := int(op>>3) % parts
			want := int(arg>>4)%parts + 1
			now += float64(arg%8) * 0.75
			// wantPanic is the model's verdict on the call, taken before
			// the device sees it.
			var wantPanic, panicked bool
			switch op % 6 {
			case 0:
				granted, ok := lm.acquire(now, p, want)
				var got float64
				wantPanic, panicked = !ok, panics(func() { got = d.AcquirePartition(now, p, want) })
				if ok && !panicked && got != granted {
					t.Fatalf("op %d: slot %d want %d granted %v, model %v", i, p, want, got, granted)
				}
				if ok {
					frac[p] = granted
				}
			case 1:
				wantPanic = !lm.release(now, p)
				panicked = panics(func() { d.ReleasePartition(now, p) })
				frac[p] = 0
			case 2:
				if wantPanic = lm.held > 0; !wantPanic {
					frac[0], _ = lm.acquire(now, 0, parts)
				}
				panicked = panics(func() { d.Acquire(now) })
			case 3:
				wantPanic = !lm.release(now, 0)
				panicked = panics(func() { d.Release(now) })
				frac[0] = 0
			case 4:
				wantPanic = lm.attached || lm.held > 0
				lm.attached = lm.attached || !wantPanic
				panicked = panics(func() { d.Attach(now) })
			case 5:
				wantPanic = !lm.attached || lm.held > 0
				lm.attached = lm.attached && wantPanic
				panicked = panics(func() { d.Detach(now) })
			}
			if panicked != wantPanic {
				t.Fatalf("op %d (kind %d, slot %d, M=%d): panicked %v, model says %v", i, op%6, p, parts, panicked, wantPanic)
			}
			sum := 0.0
			for s := 0; s < parts; s++ {
				if d.PartitionBusy(s) != (lm.owner[s] >= 0) {
					t.Fatalf("op %d: slot %d busy %v, model owner %d", i, s, d.PartitionBusy(s), lm.owner[s])
				}
				sum += frac[s]
			}
			if sum > 1 || math.Abs(d.HeldFraction()-sum) > 1e-12 {
				t.Fatalf("op %d: held fraction %v, Σ granted %v", i, d.HeldFraction(), sum)
			}
			if d.Busy() != (lm.held > 0) || d.Partitions() != parts || d.Attached() != lm.attached {
				t.Fatalf("op %d: busy %v attached %v partitions %d, model %d holds attached %v",
					i, d.Busy(), d.Attached(), d.Partitions(), lm.held, lm.attached)
			}
			if d.BusyMs() != lm.busy || d.BusyMsAt(now) != lm.busyAt(now) {
				t.Fatalf("op %d: busy-ms %v at-now %v, model %v %v", i, d.BusyMs(), d.BusyMsAt(now), lm.busy, lm.busyAt(now))
			}
			if at := d.BusyMsAt(now); at > now*(1+1e-12) || d.Utilization(now) > 1 {
				t.Fatalf("op %d: occupancy %v over %v ms, utilization %v", i, at, now, d.Utilization(now))
			}
		}
	})
}
