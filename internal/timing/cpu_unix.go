//go:build unix

package timing

import (
	"syscall"
	"time"
)

// cpuTime returns the CPU time the process has used: user plus system
// time, summed over all its threads. Unlike runtime/metrics' CPU
// classes, it counts only time the process was on a CPU, so a side
// preempted by a neighbour's load is not charged for the wait.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// getrusage fails only on an invalid who or buffer; neither occurs.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
