package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuTime returns the CPU time all of the process's threads have used.
// It counts the time the process ran and not the time its CPU was
// stolen by the hypervisor or given to other processes, which on a
// shared host is most of the run-to-run noise of wall time.
func cpuTime() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		// The clock exists on every Linux since 2.6.12; failing to
		// read it is a broken host, not an input the run can handle.
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
