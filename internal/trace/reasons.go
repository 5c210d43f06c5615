package trace

// Drop reasons decided by the scheduling core (internal/engine) and
// reported by both of its drivers, the simulator (internal/policy) and the
// serving path (internal/serve). Every layer must describe the same fate
// with the same word — the evaluation pipeline joins sim Records against
// serve Records label-for-label, and a one-sided respelling silently
// empties the join. The vocab lint rule enforces that none of the three
// packages redeclares a literal.
const (
	// ReasonDeadline marks a request shed because its deadline passed (or,
	// under predictive shedding, became unmeetable).
	ReasonDeadline = "deadline"
	// ReasonCanceled marks a request canceled by its client.
	ReasonCanceled = "canceled"
	// ReasonDeviceFault marks a request whose block kept failing past the
	// injected-fault retry budget.
	ReasonDeviceFault = "device_fault"
	// ReasonAdmission marks a request rejected at the front door by the
	// fleet.Admission gate before it was ever enqueued — token bucket empty,
	// queue-length cap reached, or predicted response ratio over budget.
	ReasonAdmission = "admission"
)
