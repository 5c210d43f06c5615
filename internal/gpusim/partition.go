package gpusim

// This file holds the device's slot ledger and models spatial GPU sharing:
// a device split into M equal partition slots that execute concurrently,
// the ParvaGPU-style resource partitioning SPLIT itself never uses. SPLIT
// time-slices one sequential accelerator, which is the ledger at M = 1:
// every hold is the whole device, at fraction 1. A hold anchored at slot p
// may span a contiguous run of free slots starting at p, so a
// width-adaptive policy can take the whole device when it is idle and
// shrink to one slot under contention; the span rule is also what makes
// fraction conservation (Σ fractions <= 1 per device at all times) hold by
// construction. Busy-ms accounting pro-rates each hold by its occupied
// fraction, so a device running two half-width blocks for 10 ms reports 10
// busy-ms, not 20.

import (
	"fmt"
	"math"
)

// PartitionCost parameterizes the fractional-width block-time model
//
//	t(b, f) = b / eff(f),  eff(f) = f^Beta
//
// where b is the block's full-device serial time and f in (0, 1] is the
// allotted device fraction. eff is monotone increasing and saturating
// (concave for Beta < 1), with eff(1) = 1 exactly: a full-width hold costs
// the serial time bit-for-bit, which is what keeps unpartitioned runs
// identical. Smaller Beta means compute partitions better: at Beta = 0.5 a
// half-width block runs at ~71% speed, so two half lanes aggregate to
// ~1.41x the serial throughput — the regime MIG-style partitioning reports
// for memory-bound inference kernels.
type PartitionCost struct {
	// Beta in [0, 1] is the contention exponent of eff(f) = f^Beta. 0 means
	// partitioning is free (a slot runs at full speed), 1 means it is
	// useless (speed scales linearly with the fraction, so M lanes aggregate
	// to exactly serial throughput). Values outside [0, 1] are clamped.
	Beta float64
}

// DefaultPartitionCost returns the model used by the evaluation harness:
// Beta = 0.5, giving an aggregate throughput of sqrt(M) for M equal lanes
// (1.41x at M=2, 2x at M=4), in the range the spatial-sharing literature
// reports for mid-size inference models on MIG slices.
func DefaultPartitionCost() PartitionCost {
	return PartitionCost{Beta: 0.5}
}

// OrDefault returns c, or DefaultPartitionCost for the zero value — so
// config structs can carry a PartitionCost without forcing every caller to
// fill it in.
func (c PartitionCost) OrDefault() PartitionCost {
	if c == (PartitionCost{}) {
		return DefaultPartitionCost()
	}
	return c
}

// Efficiency returns eff(f) = f^Beta, the relative execution speed of a
// hold allotted fraction f of the device. f >= 1 returns exactly 1 (the
// full-width identity the M=1 guarantee rests on); f <= 0 is a caller bug
// and panics, since it would imply a hold on no resources.
func (c PartitionCost) Efficiency(f float64) float64 {
	if f >= 1 {
		return 1
	}
	if f <= 0 {
		panic(fmt.Sprintf("gpusim: partition efficiency of non-positive fraction %v", f))
	}
	return math.Pow(f, clamp01(c.Beta))
}

// BlockMs returns t(b, f): the virtual time a block whose serial cost is
// blockMs holds its partition when allotted fraction f. f >= 1 returns
// blockMs unchanged — not just algebraically but bit-for-bit, so a
// full-width hold reproduces the serial path exactly.
func (c PartitionCost) BlockMs(blockMs, f float64) float64 {
	if f >= 1 {
		return blockMs
	}
	return blockMs / c.Efficiency(f)
}

// Speedup returns the aggregate throughput multiple of m equal concurrent
// lanes over one serial device: m · eff(1/m). It is independent of block
// time.
func (c PartitionCost) Speedup(m int) float64 {
	if m <= 1 {
		return 1
	}
	return float64(m) * c.Efficiency(1/float64(m))
}

// slot is one partition slot of a Device's ledger. A hold is anchored at
// its lowest slot and records its span width and start there; the slots
// it spans past the anchor keep width 0. Spans are contiguous and
// disjoint, so the only hold that can cover slot p is the nearest anchor
// at or below p.
type slot struct {
	sinceMs float64
	width   int
}

// ledger returns the device's slots: the configured ones, or the inline
// one of an unpartitioned device.
func (d *Device) ledger() []slot {
	if d.slots != nil {
		return d.slots
	}
	return d.one[:]
}

// covered reports whether slot p of ledger s lies in an active hold's span.
func covered(s []slot, p int) bool {
	for a := p; a >= 0; a-- {
		if k := s[a].width; k > 0 {
			return a+k > p
		}
	}
	return false
}

// ConfigurePartitions splits the device into m equal partition slots that
// may execute concurrently; m <= 1 makes it one slot again. It must be
// called while the device is idle. Acquire/Release hold the whole device
// at any slot count.
func (d *Device) ConfigurePartitions(m int) {
	if d.held > 0 {
		panic(fmt.Sprintf("gpusim: device %d repartitioned while busy", d.ID))
	}
	d.slots = nil
	if m > 1 {
		d.slots = make([]slot, m)
	}
}

// Partitions returns the configured slot count, 1 for an unpartitioned
// device.
func (d *Device) Partitions() int { return len(d.ledger()) }

// PartitionBusy reports whether slot p is covered by an active hold (its
// own, or a wider hold anchored at a lower slot).
func (d *Device) PartitionBusy(p int) bool { return covered(d.ledger(), p) }

// HeldFraction returns the summed fraction of the device occupied by
// active holds, in [0, 1]: 1 for an unpartitioned device while busy.
func (d *Device) HeldFraction() float64 {
	s := d.ledger()
	held := 0
	for p := range s {
		held += s[p].width
	}
	return float64(held) / float64(len(s))
}

// AcquirePartition starts a hold anchored at slot p, wanting up to `want`
// slots; it grants the contiguous run of free slots starting at p, clamped
// to want, and returns the granted fraction. The anchor slot must be free
// (the caller's lane gates on PartitionBusy), so the grant is always >= 1
// slot — which is exactly what makes Σ granted fractions <= 1 at all
// times: slots are never shared and never granted twice. On a device of
// one slot every grant is the whole device, fraction 1.
//
//lint:hotpath slot occupancy flips once per granted block
func (d *Device) AcquirePartition(nowMs float64, p, want int) float64 {
	s := d.ledger()
	if p < 0 || p >= len(s) {
		panic(fmt.Sprintf("gpusim: device %d partition %d outside [0,%d)", d.ID, p, len(s)))
	}
	if covered(s, p) {
		panic(fmt.Sprintf("gpusim: device %d partition %d acquired while busy", d.ID, p))
	}
	// Past a free anchor, the first covered slot is another hold's anchor.
	k := 1
	for k < want && p+k < len(s) && s[p+k].width == 0 {
		k++
	}
	s[p] = slot{sinceMs: nowMs, width: k}
	d.held++
	return float64(k) / float64(len(s))
}

// ReleasePartition ends the hold anchored at slot p at nowMs, freeing its
// span and accounting the occupancy pro-rated by the held fraction: a hold
// of k of M slots for t ms adds (k/M)·t busy-ms, so concurrent partition
// holds can never push a device's utilization past 1. At k = M the factor
// is exactly 1.
//
//lint:hotpath slot occupancy flips once per completed block
func (d *Device) ReleasePartition(nowMs float64, p int) {
	s := d.ledger()
	if p < 0 || p >= len(s) || s[p].width == 0 {
		panic(fmt.Sprintf("gpusim: device %d partition %d released while idle", d.ID, p))
	}
	k := s[p].width
	s[p].width = 0
	d.held--
	d.busyMs += float64(k) / float64(len(s)) * (nowMs - s[p].sinceMs)
	d.blocks++
}
