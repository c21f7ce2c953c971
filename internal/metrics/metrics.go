// Package metrics derives performance statistics from event traces: the
// per-processor waiting times of the paper's Table 3, the waiting timeline
// of Figure 4, and the parallelism profile of Figure 5. All statistics are
// computed from a trace alone (plus the calibrated synchronization costs),
// so they apply equally to actual, measured and approximated traces — the
// paper generates them "from the execution approximations of the
// event-based perturbation model" (§5.3).
package metrics

import (
	"cmp"
	"fmt"
	"slices"

	"perturb/internal/instr"
	"perturb/internal/trace"
)

// Interval is a span of a processor's timeline classified as waiting or
// busy.
type Interval struct {
	Start, End trace.Time
	Waiting    bool
}

// Dur returns the interval length.
func (iv Interval) Dur() trace.Time { return iv.End - iv.Start }

// procWalk is one processor's state in the trace-order walk: its
// position (the end of its classified timeline so far), its previous
// event, the time of the latest fork since then (when forked), the
// interval being coalesced (empty before the first), and Table 3's sums.
type procWalk struct {
	pos      trace.Time
	prevKind trace.Kind
	prevTime trace.Time
	havePrev bool
	forked   bool
	fork     trace.Time
	cur      Interval

	await, barrier, busy trace.Time
}

// walk classifies every processor's timeline in one pass over t in trace
// order, without copying the events, and validates each event in the same
// pass: it returns the error Validate would, except that every processor
// must lie in [0, Procs), also when Procs is 0 (see
// trace.NewBoundedValidator). Each processor's activity is anchored at
// time zero and at its events' fork edges as package order has them (the
// event-based engine's basis rule): a loop-begin since the processor's
// previous event moves its position up to the latest such loop-begin's
// time and closes its open interval, so the idle time before a phase is
// neither busy nor waiting; a barrier release, which its arrivals time,
// has no fork edge and keeps its wait. Waiting comes from two sources: an
// awaitE or lock-acq whose span from its awaitB or lock-req exceeds the
// no-wait processing cost (the tail s_wait of the span is busy, as
// synchronization processing), and a barrier release (arrival to
// release, minus the release cost itself).
//
// emit, when non-nil, receives each processor's coalesced intervals as
// they close: in timeline order per processor, interleaved across
// processors. Waiting, Timeline and Parallelism all read this one walk.
func walk(t *trace.Trace, cal instr.Calibration, emit func(p int, iv Interval)) ([]procWalk, error) {
	v, err := trace.NewBoundedValidator(t.Procs)
	if err != nil {
		return nil, err
	}
	ps := make([]procWalk, t.Procs)
	thr := waitThreshold(cal)
	for _, e := range t.Events {
		if err := v.Check(e); err != nil {
			return nil, err
		}
		s := &ps[e.Proc]
		if s.forked {
			s.forked = false
			if e.Kind != trace.KindBarrierRelease && s.pos < s.fork {
				s.flush(e.Proc, emit)
				s.pos = s.fork
			}
		}
		switch {
		case s.havePrev && waitEnd(e.Kind, s.prevKind):
			if span := e.Time - s.prevTime; span > thr {
				s.await += span - cal.SWait
				s.add(e.Proc, e.Time-min(cal.SWait, span), true, emit)
			}
		case e.Kind == trace.KindBarrierRelease:
			if span := e.Time - s.prevTime; s.havePrev && span > cal.Barrier {
				s.barrier += span - cal.Barrier
			}
			s.add(e.Proc, e.Time-min(cal.Barrier, e.Time-s.pos), true, emit)
		}
		s.add(e.Proc, e.Time, false, emit)
		s.prevKind, s.prevTime, s.havePrev = e.Kind, e.Time, true
		if e.Kind == trace.KindLoopBegin { // a no-op mark on e.Proc itself
			for p := range ps {
				ps[p].fork, ps[p].forked = e.Time, true
			}
		}
	}
	for p := range ps {
		ps[p].flush(p, emit)
	}
	return ps, nil
}

// flush emits processor p's open interval, if any, and closes it.
func (s *procWalk) flush(p int, emit func(int, Interval)) {
	if s.cur.End > s.cur.Start && emit != nil {
		emit(p, s.cur)
	}
	s.cur = Interval{}
}

// add extends processor p's timeline to end, classified as waiting or
// busy, coalescing with the open interval when the class is the same.
// An end at or before the position adds nothing, so intervals are never
// empty.
func (s *procWalk) add(p int, end trace.Time, waiting bool, emit func(int, Interval)) {
	if end <= s.pos {
		return
	}
	if !waiting {
		s.busy += end - s.pos
	}
	if s.cur.End > s.cur.Start && s.cur.Waiting == waiting {
		s.cur.End = end
	} else {
		s.flush(p, emit)
		s.cur = Interval{Start: s.pos, End: end, Waiting: waiting}
	}
	s.pos = end
}

// waitEnd reports whether an event of kind k completes a blocking
// operation begun by its same-processor predecessor of kind prev: an
// awaitE following its awaitB, or a lock-acq following its lock-req.
func waitEnd(k, prev trace.Kind) bool {
	switch k {
	case trace.KindAwaitE:
		return prev == trace.KindAwaitB
	case trace.KindLockAcq:
		return prev == trace.KindLockReq
	}
	return false
}

// waitThreshold reports whether an awaitB->awaitE gap indicates blocking.
// In a clean (actual or approximated) trace a no-wait await spans exactly
// SNoWait; anything meaningfully longer waited.
func waitThreshold(cal instr.Calibration) trace.Time {
	tol := cal.SNoWait / 8
	if tol < 1 {
		tol = 1
	}
	return cal.SNoWait + tol
}

// Timeline decomposes a trace into per-processor busy/waiting intervals
// (paper Figure 4), classified as walk describes; adjacent intervals of
// one class coalesce.
func Timeline(t *trace.Trace, cal instr.Calibration) ([][]Interval, error) {
	out := make([][]Interval, max(t.Procs, 0)) // walk refuses a negative Procs
	_, err := walk(t, cal, func(p int, iv Interval) { out[p] = append(out[p], iv) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ProcWaiting summarizes one processor's waiting.
type ProcWaiting struct {
	Proc    int
	Await   trace.Time // waiting in advance/await synchronization
	Barrier trace.Time // waiting at the end-of-loop barrier
	Busy    trace.Time // non-waiting active time
}

// Total returns await plus barrier waiting.
func (w ProcWaiting) Total() trace.Time { return w.Await + w.Barrier }

// Waiting computes per-processor waiting statistics from a trace (paper
// Table 3). Await waiting is each blocking span net of the s_wait
// processing; barrier waiting is each arrival-to-release span net of the
// barrier release cost. Busy is the Timeline's busy time.
func Waiting(t *trace.Trace, cal instr.Calibration) ([]ProcWaiting, error) {
	ps, err := walk(t, cal, nil)
	if err != nil {
		return nil, err
	}
	out := make([]ProcWaiting, len(ps))
	for p, s := range ps {
		out[p] = ProcWaiting{Proc: p, Await: s.await, Barrier: s.barrier, Busy: s.busy}
	}
	return out, nil
}

// WaitingPercent returns each processor's await waiting as a percentage of
// the given total execution time.
func WaitingPercent(ws []ProcWaiting, total trace.Time) []float64 {
	out := make([]float64, len(ws))
	if total <= 0 {
		return out
	}
	for i, w := range ws {
		out[i] = 100 * float64(w.Await) / float64(total)
	}
	return out
}

// Profile is a step function of the number of simultaneously busy
// processors over time: Level[i] holds between Times[i] and Times[i+1]
// (the last level extends to the profile end, Times[len-1]).
type Profile struct {
	Times []trace.Time
	Level []int
}

// Parallelism computes the busy-processor profile of a trace (paper
// Figure 5) from the Timeline classification: the profile ends at the
// latest interval end.
func Parallelism(t *trace.Trace, cal instr.Calibration) (*Profile, error) {
	type edge struct {
		at    trace.Time
		delta int
	}
	var edges []edge
	var end trace.Time
	_, err := walk(t, cal, func(_ int, iv Interval) {
		if !iv.Waiting {
			edges = append(edges, edge{iv.Start, +1}, edge{iv.End, -1})
		}
		end = max(end, iv.End)
	})
	if err != nil {
		return nil, err
	}
	if len(edges) == 0 {
		return &Profile{}, nil
	}
	slices.SortFunc(edges, func(a, b edge) int { return cmp.Compare(a.at, b.at) })
	p := &Profile{}
	level := 0
	for i := 0; i < len(edges); {
		at := edges[i].at
		for i < len(edges) && edges[i].at == at {
			level += edges[i].delta
			i++
		}
		if n := len(p.Level); n > 0 && p.Level[n-1] == level {
			continue
		}
		p.Times = append(p.Times, at)
		p.Level = append(p.Level, level)
	}
	if n := len(p.Times); n == 0 || p.Times[n-1] != end {
		p.Times = append(p.Times, end)
		p.Level = append(p.Level, 0)
	}
	return p, nil
}

// At returns the parallelism level at time x.
func (p *Profile) At(x trace.Time) int {
	lvl := 0
	for i, t := range p.Times {
		if t > x {
			break
		}
		lvl = p.Level[i]
	}
	return lvl
}

// Average returns the time-weighted mean parallelism over [from, to].
func (p *Profile) Average(from, to trace.Time) float64 {
	if to <= from || len(p.Times) == 0 {
		return 0
	}
	var area float64
	for i := 0; i < len(p.Times); i++ {
		segStart := p.Times[i]
		var segEnd trace.Time
		if i+1 < len(p.Times) {
			segEnd = p.Times[i+1]
		} else {
			segEnd = to
		}
		s, e := segStart, segEnd
		if s < from {
			s = from
		}
		if e > to {
			e = to
		}
		if e > s {
			area += float64(e-s) * float64(p.Level[i])
		}
	}
	return area / float64(to-from)
}

// Span returns the time range covered by the profile.
func (p *Profile) Span() (from, to trace.Time) {
	if len(p.Times) == 0 {
		return 0, 0
	}
	return p.Times[0], p.Times[len(p.Times)-1]
}

// ExecutionRatio returns a/b as a float, the unit of the paper's tables
// (Measured/Actual and Approximated/Actual).
func ExecutionRatio(a, b trace.Time) (float64, error) {
	if b == 0 {
		return 0, fmt.Errorf("metrics: zero denominator in execution ratio")
	}
	return float64(a) / float64(b), nil
}
