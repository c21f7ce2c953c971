// Package timing compares the cost of two pieces of work on a machine
// that other work shares. It is the one measurement discipline of the
// repository's two-sided performance gates and self-perturbation audits.
//
// Compare runs the two sides in rounds. Each round runs both sides once,
// the side that goes first alternating from round to round, and calls
// runtime.GC before every timed call, so that each side pays only for
// the collections its own allocation triggers and neither inherits the
// other's garbage. Each call is timed on the wall clock and on the
// process CPU clock (user plus system time of every thread, the garbage
// collector's included), and each round contributes one ratio per
// clock. The result is each clock's median ratio, with the quartiles as
// the noise floor: a burst of load from a neighbour lands on one side of
// one round and moves the median by at most one rank.
//
// The harness sizes the sample itself: at least minRounds rounds, then
// more until the timed calls have spent budget. A bar that still lies
// between the quartiles of either clock leaves the comparison
// unresolved; rounds are then added to the same sample, up to maxSpent
// of timed work or maxRounds rounds, and the pooled median decides.
package timing

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

const (
	minRounds = 5
	maxRounds = 200
	budget    = 3 * time.Second  // timed work the first sample spends
	maxSpent  = 15 * time.Second // timed work pooling may spend
)

// Ratio summarizes one clock's per-round ratios: their median, and
// their lower and upper quartiles as the noise floor.
type Ratio struct {
	Median, Q1, Q3 float64
}

// Straddles reports whether bar lies strictly between the quartiles,
// where the sample cannot tell on which side of the bar the ratio lies.
func (r Ratio) Straddles(bar float64) bool { return r.Q1 < bar && bar < r.Q3 }

// Result is the outcome of Compare: the per-round ratios cost(a)/cost(b)
// on the wall clock and on the process CPU clock, and the number of
// rounds they summarize.
type Result struct {
	Rounds    int
	Wall, CPU Ratio
}

// String formats the result as each clock's median ratio with its
// quartiles, then the rounds.
func (r Result) String() string {
	return fmt.Sprintf("wall %.2fx [%.2f, %.2f], cpu %.2fx [%.2f, %.2f], %d rounds",
		r.Wall.Median, r.Wall.Q1, r.Wall.Q3, r.CPU.Median, r.CPU.Q1, r.CPU.Q3, r.Rounds)
}

// Compare times a against b in alternating rounds, as the package
// comment describes, and reports cost(a)/cost(b) on both clocks. bar is
// the ratio the caller will hold the result to; it decides only whether
// the sample needs more rounds. The first error a side returns ends the
// comparison.
func Compare(a, b func() error, bar float64) (Result, error) {
	return compare(a, b, bar, now)
}

// reading is one instant, or one span, on both clocks.
type reading struct{ wall, cpu time.Duration }

var epoch = time.Now()

func now() reading { return reading{time.Since(epoch), cpuTime()} }

func compare(a, b func() error, bar float64, clock func() reading) (Result, error) {
	var wall, cpu []float64
	var spent time.Duration
	timed := func(f func() error) (reading, error) {
		runtime.GC()
		t0 := clock()
		err := f()
		t1 := clock()
		return reading{t1.wall - t0.wall, t1.cpu - t0.cpu}, err
	}
	for res := (Result{}); ; {
		if enough(res, spent, bar) {
			return res, nil
		}
		first, second := a, b
		if len(wall)%2 == 1 {
			first, second = b, a
		}
		d1, err := timed(first)
		if err != nil {
			return res, err
		}
		d2, err := timed(second)
		if err != nil {
			return res, err
		}
		if len(wall)%2 == 1 {
			d1, d2 = d2, d1
		}
		wall = append(wall, ratio(d1.wall, d2.wall))
		cpu = append(cpu, ratio(d1.cpu, d2.cpu))
		spent += d1.wall + d2.wall
		res = Result{Rounds: len(wall), Wall: summarize(wall), CPU: summarize(cpu)}
	}
}

// enough reports whether a sample of res.Rounds rounds that spent spent
// of timed work may stop: it has minRounds rounds and has spent the
// budget, and either it resolves the bar on both clocks or pooling has
// reached its cap.
func enough(res Result, spent time.Duration, bar float64) bool {
	switch {
	case res.Rounds < minRounds:
		return false
	case res.Rounds >= maxRounds:
		return true
	case spent < budget:
		return false
	}
	return spent >= maxSpent || !res.Wall.Straddles(bar) && !res.CPU.Straddles(bar)
}

// ratio is x/y, reading 1 when neither clock advanced during either
// call, so a clock too coarse for the work cannot put NaN in a sample.
func ratio(x, y time.Duration) float64 {
	if x == y {
		return 1
	}
	return float64(x) / float64(y)
}

// summarize returns the median and quartiles of rs, interpolating
// linearly between ranks.
func summarize(rs []float64) Ratio {
	s := slices.Clone(rs)
	slices.Sort(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		i := int(pos)
		if i+1 == len(s) {
			return s[i]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return Ratio{Median: at(0.5), Q1: at(0.25), Q3: at(0.75)}
}
