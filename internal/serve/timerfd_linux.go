//go:build linux

package serve

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// kernelTimer is a CLOCK_MONOTONIC timerfd. It is non-blocking, so os.File
// registers it with the netpoller and a read parks the goroutine there
// until the timer expires: the wake-up is the kernel's hrtimer, not the
// netpoller's millisecond-rounded wait. fd is f's descriptor, kept
// because File.Fd would switch it back to blocking mode.
type kernelTimer struct {
	f   *os.File
	fd  uintptr
	buf [8]byte
}

const clockMonotonic = 1 // CLOCK_MONOTONIC, the clock time.Since reads

func openKernelTimer() (*kernelTimer, error) {
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0) // TFD_NONBLOCK|TFD_CLOEXEC
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &kernelTimer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// itimerspec is the kernel's struct itimerspec.
type itimerspec struct{ interval, value syscall.Timespec }

// set makes the timer expire once, d from now, replacing any earlier
// setting. The caller serializes it with close.
func (k *kernelTimer) set(d time.Duration) {
	spec := itimerspec{value: syscall.NsecToTimespec(int64(max(d, 1)))} // a zero value disarms
	_, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, k.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	if errno != 0 {
		// EBADF or EINVAL: only a closed descriptor or a malformed spec,
		// which the callers rule out.
		panic(os.NewSyscallError("timerfd_settime", errno))
	}
}

// wait blocks until the timer has expired since the last wait or set, and
// fails once close has run.
func (k *kernelTimer) wait() error {
	_, err := k.f.Read(k.buf[:])
	return err
}

// close closes the descriptor, failing a wait in progress. It returns once
// the descriptor is closed, and os.ErrClosed if it already was.
func (k *kernelTimer) close() error { return k.f.Close() }
