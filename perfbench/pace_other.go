//go:build !linux

package main

import "time"

// precisePacer falls back to the runtime's timers off Linux; they wake
// up to about a millisecond late, which shows as generator lag.
func precisePacer() (sleepUntil func(time.Time), release func()) {
	return coarseSleep, func() {}
}
