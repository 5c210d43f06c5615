//go:build !linux

package serve

import (
	"errors"
	"time"
)

// kernelTimer has no implementation off Linux: every hold keeps a runtime
// timer there.
type kernelTimer struct{}

func openKernelTimer() (*kernelTimer, error) { return nil, errors.ErrUnsupported }

func (*kernelTimer) set(time.Duration) {}

func (*kernelTimer) wait() error { return errors.ErrUnsupported }

func (*kernelTimer) close() error { return nil }
