package gpusim

// This file models device misbehavior: block-latency spikes (thermal
// throttling, contention bursts) and transient block failures (ECC
// retries, kernel launch errors) — the adversarial timing the
// request-lifecycle layer must shed and drain through. Draws are a pure
// hash of (seed, request, block, attempt), not a stateful RNG, so the
// discrete-event simulator and the real-time serving path replay the
// exact same fault schedule for the same identifiers, and replays are
// independent of execution order.

// BlockFault is the injected outcome of one block-execution attempt.
type BlockFault struct {
	// SpikeFactor multiplies the block's execution time; 1 means no spike.
	SpikeFactor float64
	// Fail reports a transient failure: the attempt's device time is spent
	// but the block produced no output and must be retried (or, past the
	// retry budget, the request dropped as a device fault).
	Fail bool
}

// FaultInjector deterministically injects block faults. The zero value —
// and a nil pointer — injects nothing.
type FaultInjector struct {
	// Seed decorrelates fault schedules between runs.
	Seed int64
	// SpikeProb is the per-attempt probability of a latency spike.
	SpikeProb float64
	// SpikeFactor is the slowdown applied when a spike hits (> 1; values
	// <= 1 disable spikes even when drawn).
	SpikeFactor float64
	// FailProb is the per-attempt probability of a transient failure.
	FailProb float64
	// MaxRetries bounds re-executions of a failing block: an attempt index
	// beyond MaxRetries must not be retried again — the scheduler reports a
	// device fault instead.
	MaxRetries int
}

// Draw returns the fault outcome for one execution attempt of a request's
// block. attempt is 0 for the first execution and increments per retry.
// Nil-safe: a nil injector draws no faults.
func (f *FaultInjector) Draw(reqID, block, attempt int) BlockFault {
	out := BlockFault{SpikeFactor: 1}
	if f == nil {
		return out
	}
	if f.SpikeFactor > 1 && f.SpikeProb > 0 && f.uniform(reqID, block, attempt, saltSpike) < f.SpikeProb {
		out.SpikeFactor = f.SpikeFactor
	}
	if f.FailProb > 0 && f.uniform(reqID, block, attempt, saltFail) < f.FailProb {
		out.Fail = true
	}
	return out
}

// Salts decouple the spike draw from the failure draw at the same
// coordinates.
const (
	saltSpike  uint64 = 0x53504b45 // "SPKE"
	saltFail   uint64 = 0x4641494c // "FAIL"
	saltDevice uint64 = 0x44455649 // "DEVI"
)

// ForDevice derives the device-local injector for one fleet member.
// Device 0 returns the receiver itself, so a single-device fleet replays
// the base injector's exact fault schedule bit-for-bit; other devices get
// a copy with a splitmix64-decorrelated seed, so fleet members fail
// independently while every run stays deterministic. Nil-safe.
func (f *FaultInjector) ForDevice(dev int) *FaultInjector {
	if f == nil || dev == 0 {
		return f
	}
	d := *f
	d.Seed = int64(splitmix64(uint64(f.Seed) ^ saltDevice ^ uint64(dev)))
	return &d
}

// Exhausted reports whether a failing attempt index has consumed the
// retry budget: attempts 0..MaxRetries may run, so a failure on attempt
// MaxRetries is terminal.
func (f *FaultInjector) Exhausted(attempt int) bool {
	if f == nil {
		return true
	}
	return attempt >= f.MaxRetries
}

// uniform hashes the draw coordinates to [0, 1) with splitmix64 — cheap,
// well-distributed, and stateless.
func (f *FaultInjector) uniform(reqID, block, attempt int, salt uint64) float64 {
	x := uint64(f.Seed)
	x = splitmix64(x ^ salt)
	x = splitmix64(x ^ uint64(reqID))
	x = splitmix64(x ^ uint64(block)<<32)
	x = splitmix64(x ^ uint64(attempt)<<16)
	// 53 bits of mantissa → uniform float in [0, 1).
	return float64(x>>11) / float64(1<<53)
}

// splitmix64 is the finalizer from Vigna's SplitMix64 generator.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
