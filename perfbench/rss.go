package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
)

// resetPeakRSS resets the kernel's resident-set high-water mark (VmHWM)
// for this process to its current RSS, so the next reading is the peak
// of one op alone rather than of the whole process life.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the resident-set high-water mark in megabytes.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	kb, err := parseVmHWM(status)
	if err != nil {
		return 0, err
	}
	return float64(kb) * 1024 / 1e6, nil
}

// parseVmHWM extracts the VmHWM line of a /proc/<pid>/status file, in kB.
func parseVmHWM(status []byte) (int64, error) {
	for _, line := range bytes.Split(status, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte("VmHWM:"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		return strconv.ParseInt(string(f[0]), 10, 64)
	}
	return 0, fmt.Errorf("no VmHWM line in status")
}

// totalAlloc is the process's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
