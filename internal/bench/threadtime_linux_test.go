package bench

import (
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// threadTime returns the CPU time the calling OS thread has consumed. A
// caller locked to its thread reads only the time it ran, not the slices
// it spent descheduled while other processes held the CPU.
func threadTime(t *testing.T) time.Duration {
	t.Helper()
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		t.Fatalf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %v", errno)
	}
	return time.Duration(ts.Nano())
}
