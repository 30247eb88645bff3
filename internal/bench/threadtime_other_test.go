//go:build !linux

package bench

import (
	"testing"
	"time"
)

var threadTimeEpoch = time.Now()

// threadTime falls back to wall time: the thread CPU clock is read on
// Linux only.
func threadTime(t *testing.T) time.Duration { return time.Since(threadTimeEpoch) }
