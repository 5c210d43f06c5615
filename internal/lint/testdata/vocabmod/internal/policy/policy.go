// Package policy is the sim side of the fixture: it seeds one drift of each
// kind the vocab rule reports outside the serving path.
package policy

import (
	"vocabmod/internal/obs"
	"vocabmod/internal/trace"
)

// Outcomes references both reasons by their constants: clean.
func Outcomes() []string {
	return []string{trace.ReasonDeadline, trace.ReasonCanceled}
}

// Register spells a family name as a literal: flagged.
func Register(r *obs.Registry) int {
	return r.Counter("split_preemptions_total")
}
