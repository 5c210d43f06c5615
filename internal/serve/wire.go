package serve

// This file is the error half of the wire protocol. net/rpc sends a
// handler's error as its message alone, and sends no reply struct with it,
// so the message is the code: an error the server returns for a typed
// outcome begins with that outcome's message. fromWire is the one decoder
// that turns such a message back into an error errors.Is recognizes.

import (
	"errors"
	"strings"
)

// reasonErr maps each drop reason (the split_drops_total vocabulary, the
// engine's trace.Reason* words included) to the typed error a shed
// request's waiter receives. Its values are also every typed outcome the
// decoder knows.
var reasonErr = map[string]error{
	DropNotStarted:   ErrNotStarted,
	DropStopped:      ErrStopped,
	DropUnknownModel: ErrUnknownModel,
	DropQueueFull:    ErrQueueFull,
	DropDeadline:     ErrDeadlineExceeded,
	DropCanceled:     ErrCanceled,
	DropDrained:      ErrDrained,
	DropDeviceFault:  ErrDeviceFault,
	DropAdmission:    ErrAdmissionRejected,
}

// wireError is a typed serving error decoded on the client side of the
// wire: the remote message verbatim, unwrapping to the exported error.
type wireError struct {
	msg   string
	typed error
}

func (e *wireError) Error() string { return e.msg }

// Unwrap makes errors.Is(err, ErrQueueFull) etc. work on wire errors.
func (e *wireError) Unwrap() error { return e.typed }

// fromWire decodes an error a call returned: a message that begins with a
// typed error's message becomes a wireError unwrapping to it. No typed
// message is a prefix of another, so at most one matches. Every other
// error, nil included, passes through unchanged.
func fromWire(err error) error {
	if err == nil {
		return nil
	}
	msg := err.Error()
	for _, typed := range reasonErr {
		if strings.HasPrefix(msg, typed.Error()) {
			return &wireError{msg: msg, typed: typed}
		}
	}
	return err
}

// shedErrs are the lifecycle outcomes IsShed reports.
var shedErrs = []error{ErrStopped, ErrDeadlineExceeded, ErrCanceled, ErrDrained, ErrDeviceFault}

// IsShed reports whether err is one of the lifecycle shed/rejection
// outcomes — deadline, cancellation, drain, device fault, or server
// shutdown — as opposed to a transport or usage error. It accepts errors
// in-process and as a call returned them, raw or already decoded.
func IsShed(err error) bool {
	err = fromWire(err)
	for _, e := range shedErrs {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}
