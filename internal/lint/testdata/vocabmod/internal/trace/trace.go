// Package trace declares the shared vocabulary the vocab rule pins: event
// kinds and drop reasons every layer must reference.
package trace

// EventKind names one scheduling event type.
type EventKind string

// KindGrant is the canonical grant event.
const KindGrant EventKind = "grant"

// Shared drop reasons: every layer references these constants, never the
// bare strings.
const (
	ReasonDeadline = "deadline"
	ReasonCanceled = "canceled"
)
