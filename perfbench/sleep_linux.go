//go:build linux

package main

import (
	"syscall"
	"time"
)

// preciseSleep blocks the calling thread for about d. The Go runtime's
// timers wake with millisecond granularity on Linux (a 200µs time.Sleep
// takes about 1ms), which would make the open-loop generator late by up to
// a millisecond on every arrival; nanosleep(2) wakes within tens of
// microseconds. An interrupted sleep returns early; callers re-check the
// clock.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}
