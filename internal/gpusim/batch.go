package gpusim

// This file models the device time of a batched block execution — the cost
// side of same-type micro-batching. The elastic mechanism (§3.3) disables
// splitting under same-type bursts because same-type FIFO makes preemption
// useless among the run; batching goes one step further and coalesces the
// run's next blocks into one device grant. The speedup source is the same
// one EdgeServing and ParvaGPU measure on real GPUs: per-dispatch setup
// (kernel launch, weight/activation residency) is paid once per batched
// block instead of once per request, and the compute itself scales
// sublinearly with batch size while the device is saturated.

// BatchCost parameterizes the batched block-time model
//
//	t(b, n) = t_setup(b) + n · t_compute(b) · eff(n)
//
// where b is the block's serial time, t_setup(b) = SetupFrac·b,
// t_compute(b) = (1−SetupFrac)·b, and eff(n) = (1−EffGain) + EffGain/n is
// the sublinear per-request efficiency curve: eff(1) = 1 (a batch of one is
// exactly the serial block) falling toward 1−EffGain as n grows.
type BatchCost struct {
	// SetupFrac is the fraction of a serial block that is per-dispatch
	// setup, paid once per batched block regardless of n. Clamped to [0, 1].
	SetupFrac float64
	// EffGain in [0, 1) is the asymptotic per-request compute saving from
	// batching: eff(n) → 1−EffGain for large n. 0 means compute does not
	// batch at all (the only saving is the shared setup).
	EffGain float64
}

// DefaultBatchCost returns the model used by the evaluation harness:
// a quarter of each block is shared setup and compute efficiency halves
// asymptotically, giving t(b,4) ≈ 2.1b — about a 1.9× throughput gain at
// batch size 4, in the range the batching literature reports for mid-size
// CNNs on edge GPUs.
func DefaultBatchCost() BatchCost {
	return BatchCost{SetupFrac: 0.25, EffGain: 0.5}
}

// Efficiency returns eff(n) = (1−EffGain) + EffGain/n, clamping EffGain
// into [0, 1]. Efficiency(1) is exactly 1.
func (c BatchCost) Efficiency(n int) float64 {
	if n <= 1 {
		return 1
	}
	g := clamp01(c.EffGain)
	return (1 - g) + g/float64(n)
}

// BlockMs returns t(b, n): the device time one batched block of n requests
// holds the device when the serial block time is blockMs. n <= 1 returns
// blockMs unchanged — not just algebraically (SetupFrac·b + (1−SetupFrac)·b
// = b) but bit-for-bit, so a batch of one reproduces the serial path
// exactly; the disabled-batching identity guarantee rests on this.
func (c BatchCost) BlockMs(blockMs float64, n int) float64 {
	if n <= 1 {
		return blockMs
	}
	f := clamp01(c.SetupFrac)
	return f*blockMs + float64(n)*(1-f)*blockMs*c.Efficiency(n)
}

// Speedup returns the throughput multiple of a batch of n over running the
// same n blocks serially: n·b / t(b, n). It is independent of b.
func (c BatchCost) Speedup(n int) float64 {
	if n <= 1 {
		return 1
	}
	return float64(n) / c.BlockMs(1, n)
}

// clamp01 bounds x into [0, 1].
func clamp01(x float64) float64 {
	switch {
	case x < 0:
		return 0
	case x > 1:
		return 1
	}
	return x
}
