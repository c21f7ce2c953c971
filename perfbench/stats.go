package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported upper
// percentile: p90 needs at least 100 samples, p99 at least 1000.
const minTail = 10

// median returns the median of xs (the mean of the two middle values for
// an even count) and the sample count. It is 0 for no samples.
func median(xs []float64) (float64, int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2], n
	}
	return (s[n/2-1] + s[n/2]) / 2, n
}

// percentile returns the nearest-rank q-quantile of xs (0.5 < q < 1) and
// the sample count. It fails when fewer than minTail samples would lie
// beyond the quantile, because such a tail is one or two unlucky samples.
func percentile(xs []float64, q float64) (float64, int, error) {
	n := len(xs)
	if q <= 0.5 || q >= 1 {
		return 0, n, fmt.Errorf("percentile %v out of range (0.5, 1)", q)
	}
	// The epsilon keeps q*n from rounding up past an exact rank.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if n-rank < minTail {
		return 0, n, fmt.Errorf("p%g needs at least %.0f samples, have %d", q*100, math.Round(minTail/(1-q)), n)
	}
	return sortedCopy(xs)[rank-1], n, nil
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ms converts a duration to float milliseconds, keeping every digit.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mb converts a byte count to megabytes (10^6 bytes).
func mb(b uint64) float64 { return float64(b) / 1e6 }

// usPerKevent is a total time spread over a total event count, in
// microseconds per thousand events.
func usPerKevent(total time.Duration, events int) float64 {
	if events == 0 {
		return 0
	}
	return float64(total) / float64(time.Microsecond) / (float64(events) / 1000)
}
