package core

import (
	"context"
	"fmt"

	"perturb/internal/instr"
	"perturb/internal/program"
	"perturb/internal/trace"
)

// liberalReference is the liberal analysis as it was before it fed the
// engine, kept as a test oracle: the same validation and extraction, then
// a re-simulation of its own with per-processor clocks, an advance-time
// map, the awaitE and barrier rules, Figure 2's tally and a final sort.
func liberalReference(m *trace.Trace, cal instr.Calibration, opts LiberalOptions) (*Approximation, error) {
	if opts.Procs < 1 {
		return nil, fmt.Errorf("%w: liberal analysis requires Procs >= 1, got %d", ErrUnsupported, opts.Procs)
	}
	if opts.Distance < 1 {
		opts.Distance = 1
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid input trace: %w", err)
	}
	forkIdx := -1
	for i, e := range m.Events {
		switch e.Kind {
		case trace.KindLockReq, trace.KindLockAcq, trace.KindLockRel:
			return nil, fmt.Errorf("%w: liberal analysis does not support lock-based critical sections (event %v)", ErrUnsupported, e)
		case trace.KindLoopBegin:
			if forkIdx < 0 {
				forkIdx = i
			}
		}
	}
	if forkIdx < 0 {
		return nil, fmt.Errorf("%w: liberal analysis requires a loop-begin marker in the trace", ErrUnsupported)
	}

	ex, err := extractWork(context.Background(), m, cal, forkIdx, opts.Distance)
	if err != nil {
		return nil, err
	}
	if !ex.barrierSeen {
		return nil, fmt.Errorf("%w: liberal analysis requires barrier events in the trace", ErrUnsupported)
	}

	out := trace.New(opts.Procs)
	var clock0 trace.Time
	for _, seg := range ex.head {
		clock0 += seg.cost
		e := seg.ev
		e.Time = clock0
		e.Proc = 0
		out.Append(e)
	}
	forkEv := m.Events[forkIdx]
	forkEv.Time = clock0
	forkEv.Proc = 0
	out.Append(forkEv)
	start := clock0 + ex.forkGap

	clocks := make([]trace.Time, opts.Procs)
	for p := range clocks {
		clocks[p] = start
	}
	advT := make(map[int]trace.Time, len(ex.work))
	chunk := (len(ex.work) + opts.Procs - 1) / opts.Procs
	if chunk == 0 {
		chunk = 1
	}
	kept, removed, introduced := 0, 0, 0

	for n, w := range ex.work {
		p := 0
		switch opts.Schedule {
		case program.Blocked:
			p = n / chunk
		case program.Dynamic:
			for q := 1; q < opts.Procs; q++ {
				if clocks[q] < clocks[p] {
					p = q
				}
			}
		default: // Interleaved
			p = n % opts.Procs
		}
		c := clocks[p]
		emit := func(segs []iterSegment) {
			for _, seg := range segs {
				c += seg.cost
				e := seg.ev
				e.Time = c
				e.Proc = p
				out.Append(e)
			}
		}
		emit(w.phases[phasePre])
		if w.hasSync {
			arrival := c
			eB := w.awaitB
			eB.Time = arrival
			eB.Proc = p
			out.Append(eB)
			target := w.iter - opts.Distance
			rel, posted := trace.Time(0), false
			if target >= 0 {
				rel, posted = advT[target]
			}
			measuredWaited := w.awaitE.Time-w.awaitB.Time > cal.SNoWait+cal.Overheads.AwaitE+cal.SNoWait/2
			if posted && rel > arrival {
				c = rel + cal.SWait
				kept++
				if !measuredWaited {
					introduced++
				}
			} else {
				c = arrival + cal.SNoWait
				if measuredWaited {
					removed++
				}
			}
			eE := w.awaitE
			eE.Time = c
			eE.Proc = p
			out.Append(eE)
			emit(w.phases[phaseCrit])
			c += cal.AdvanceOp
			eA := w.advance
			eA.Time = c
			eA.Proc = p
			out.Append(eA)
			advT[w.iter] = c
		}
		emit(w.phases[phasePost])
		clocks[p] = c
	}

	// Implicit end-of-loop barrier.
	var latest trace.Time
	for _, c := range clocks {
		if c > latest {
			latest = c
		}
	}
	release := latest + cal.Barrier
	for p := 0; p < opts.Procs; p++ {
		out.Append(trace.Event{Time: clocks[p], Stmt: -2, Proc: p, Kind: trace.KindBarrierArrive, Iter: 0, Var: 0})
		out.Append(trace.Event{Time: release, Stmt: -2, Proc: p, Kind: trace.KindBarrierRelease, Iter: 0, Var: 0})
	}
	c0 := release
	out.Append(trace.Event{Time: c0, Stmt: -1, Proc: 0, Kind: trace.KindLoopEnd, Iter: trace.NoIter, Var: trace.NoVar})
	for _, seg := range ex.tail {
		c0 += seg.cost
		e := seg.ev
		e.Time = c0
		e.Proc = 0
		out.Append(e)
	}

	out.Sort()
	return &Approximation{
		Trace:           out,
		Duration:        out.End(),
		WaitsKept:       kept,
		WaitsRemoved:    removed,
		WaitsIntroduced: introduced,
	}, nil
}
