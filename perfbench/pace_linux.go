package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// precisePacer returns a function that sleeps until a deadline on a
// timerfd read through the runtime's network poller, and a function
// that releases it. The runtime's own timers round short sleeps up to
// about a millisecond, which would bunch an open-loop schedule into
// bursts; nanosleep(2) is precise but keeps the goroutine's P for the
// whole sleep, stalling goroutines queued behind it. A timerfd wakes
// within microseconds and parks the goroutine like any network read.
// Where a timerfd cannot be made, the runtime's timers are used.
func precisePacer() (sleepUntil func(time.Time), release func()) {
	const (
		clockMonotonic = 1
		tfdNonblock    = 0x800
		tfdCloexec     = 0x80000
	)
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return coarseSleep, func() {}
	}
	f := os.NewFile(fd, "timerfd")
	var buf [8]byte
	return func(until time.Time) {
		for {
			d := time.Until(until)
			if d <= 0 {
				return
			}
			spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(d))}
			if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
				coarseSleep(until)
				return
			}
			if _, err := f.Read(buf[:]); err != nil {
				coarseSleep(until)
				return
			}
		}
	}, func() { _ = f.Close() }
}
