// Package trace declares the shared vocabulary the vocab rule pins: the
// drop reasons every layer must reference.
package trace

// Shared drop reasons: every layer references these constants, never the
// bare strings.
const (
	ReasonDeadline = "deadline"
	ReasonCanceled = "canceled"
)
