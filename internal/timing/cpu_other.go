//go:build !unix

package timing

import "time"

// cpuTime falls back to the wall clock where getrusage is unavailable;
// the CPU ratios then repeat the wall-clock ones.
func cpuTime() time.Duration { return time.Since(epoch) }
