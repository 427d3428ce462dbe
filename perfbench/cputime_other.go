//go:build !linux

package main

import "time"

var processStart = time.Now()

// cpuTime falls back to wall time since the process started where the
// process CPU-time clock is not wired up.
func cpuTime() time.Duration { return time.Since(processStart) }
