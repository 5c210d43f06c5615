// Package fleet is the control plane for an elastic SPLIT deployment: a
// front-door admission gate that rejects work the fleet cannot absorb, and
// an autoscaler that grows and shrinks the active device set between Min
// and Max on rolling QoS and queue-depth signals.
//
// Both components are deterministic single-threaded state machines that
// make *decisions* only — actuation (attaching devices, dropping requests,
// emitting trace events) stays with the caller, so the simulator
// (internal/policy) and the wall-clock serving path (internal/serve) drive
// the identical logic and their decisions can be compared label-for-label.
package fleet

import (
	"fmt"
	"math"
)

// AdmissionMode selects how the front door decides to admit a request.
type AdmissionMode string

const (
	// AdmitTokenBucket admits while the token bucket holds a token: the
	// bucket refills at RatePerSec and caps at Burst, so sustained load is
	// clipped to RatePerSec and short bursts up to Burst pass through.
	AdmitTokenBucket AdmissionMode = "token-bucket"
	// AdmitQueueLength admits while fewer than MaxQueue requests are
	// waiting across the active fleet.
	AdmitQueueLength AdmissionMode = "queue-length"
	// AdmitPredictedRR admits while the predicted response ratio — the
	// least-loaded active device's backlog plus the request's own service
	// demand, over that demand — stays at or under MaxPredictedRR. This is
	// the paper's QoS target applied at the door: a request predicted to
	// violate α is rejected before it can poison the queue.
	AdmitPredictedRR AdmissionMode = "predicted-rr"
)

// Admission rejection details. These are trace-event details (the canonical
// drop *reason* is trace.ReasonAdmission); fixed strings keep the admit
// path allocation-free and let parity tests compare decisions exactly.
const (
	DetailTokenBucket = "token_bucket_empty"
	DetailQueueLength = "queue_length"
	DetailPredictedRR = "predicted_rr"
)

// AdmissionConfig configures the front-door gate. The zero value disables
// admission control entirely (every request is admitted).
type AdmissionConfig struct {
	// Mode selects the admission policy; empty disables the gate.
	Mode AdmissionMode
	// RatePerSec is the token-bucket refill rate (token-bucket mode).
	RatePerSec float64
	// Burst is the token-bucket capacity; <= 0 defaults to
	// max(1, round(RatePerSec)).
	Burst int
	// MaxQueue is the waiting-request cap (queue-length mode).
	MaxQueue int
	// MaxPredictedRR is the admission RR threshold (predicted-rr mode);
	// <= 0 defaults to the scheduler's α at Admit time.
	MaxPredictedRR float64
}

// Enabled reports whether the gate is configured at all.
func (c AdmissionConfig) Enabled() bool { return c.Mode != "" }

// Validate rejects configurations that cannot make a decision.
func (c AdmissionConfig) Validate() error {
	switch c.Mode {
	case "":
		return nil
	case AdmitTokenBucket:
		if !(c.RatePerSec > 0) || math.IsInf(c.RatePerSec, 1) {
			return fmt.Errorf("fleet: token-bucket admission needs a finite RatePerSec > 0, got %g", c.RatePerSec)
		}
	case AdmitQueueLength:
		if c.MaxQueue <= 0 {
			return fmt.Errorf("fleet: queue-length admission needs MaxQueue > 0, got %d", c.MaxQueue)
		}
	case AdmitPredictedRR:
		// MaxPredictedRR <= 0 falls back to α at Admit time; nothing to check.
	default:
		return fmt.Errorf("fleet: unknown admission mode %q (want %s, %s or %s)",
			c.Mode, AdmitTokenBucket, AdmitQueueLength, AdmitPredictedRR)
	}
	return nil
}

// View is the instantaneous fleet state an admission decision reads. Both
// layers assemble it the same way so decisions cannot diverge.
type View struct {
	// QueueDepth counts requests waiting (not in flight) across the active
	// devices.
	QueueDepth int
	// ActiveDevices is the current active fleet size.
	ActiveDevices int
	// ShortestBacklogMs is the queued-plus-inflight remaining work on the
	// least-loaded active device — the wait a new arrival would see under
	// best-case placement.
	ShortestBacklogMs float64
}

// Admission is the front-door gate state machine. It is not safe for
// concurrent use; the serving path calls it under the server mutex and the
// simulator from its single event-loop goroutine.
type Admission struct {
	cfg      AdmissionConfig
	tokens   float64
	lastMs   float64
	primed   bool
	admitted int
	rejected int
}

// NewAdmission validates cfg and returns a gate, or (nil, nil) when cfg is
// disabled so callers can gate on a nil check.
func NewAdmission(cfg AdmissionConfig) (*Admission, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, nil
	}
	if cfg.Mode == AdmitTokenBucket && cfg.Burst <= 0 {
		cfg.Burst = int(math.Max(1, math.Round(cfg.RatePerSec)))
	}
	return &Admission{cfg: cfg, tokens: float64(cfg.Burst)}, nil
}

// Config returns the validated, defaulted configuration.
func (a *Admission) Config() AdmissionConfig { return a.cfg }

// Admit decides one arrival: nowMs is the arrival time, extMs the request's
// standalone service demand t_ext, alpha the scheduler's latency-target
// multiplier, and v the current fleet view. It returns (true, "") to admit
// or (false, detail) with one of the Detail* constants. Allocation-free.
func (a *Admission) Admit(nowMs, extMs, alpha float64, v View) (bool, string) {
	switch a.cfg.Mode {
	case AdmitTokenBucket:
		if !a.primed {
			a.primed = true
			a.lastMs = nowMs
		}
		if nowMs > a.lastMs {
			a.tokens = math.Min(float64(a.cfg.Burst),
				a.tokens+(nowMs-a.lastMs)/1000*a.cfg.RatePerSec)
			a.lastMs = nowMs
		}
		if a.tokens < 1 {
			a.rejected++
			return false, DetailTokenBucket
		}
		a.tokens--
	case AdmitQueueLength:
		if v.QueueDepth >= a.cfg.MaxQueue {
			a.rejected++
			return false, DetailQueueLength
		}
	case AdmitPredictedRR:
		limit := a.cfg.MaxPredictedRR
		if limit <= 0 {
			limit = alpha
		}
		if extMs > 0 && (v.ShortestBacklogMs+extMs)/extMs > limit {
			a.rejected++
			return false, DetailPredictedRR
		}
	}
	a.admitted++
	return true, ""
}

// AdmissionStats is a decision tally for metrics and end-of-run reports.
type AdmissionStats struct {
	Admitted int
	Rejected int
}

// Stats returns the running decision tally.
func (a *Admission) Stats() AdmissionStats {
	return AdmissionStats{Admitted: a.admitted, Rejected: a.rejected}
}
