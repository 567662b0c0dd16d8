//go:build !linux

package main

import "time"

// preciseSleep falls back to the runtime's timer where nanosleep(2) is
// not available.
func preciseSleep(d time.Duration) { time.Sleep(d) }
