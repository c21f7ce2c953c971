package core_test

import (
	"fmt"
	"math"

	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/trace"
)

// oracle is the reference implementation the engine is tested against. It
// applies DESIGN.md §5 literally over the whole trace: repeated full
// passes in trace order, each resolving every event whose same-processor
// predecessor, basis and synchronization partner are already resolved,
// until a pass makes no progress. There are no queues, windows, record
// links or watermark decisions: the whole trace is in hand, so a missing
// partner is simply absent. It is deliberately slow and shares no code
// with the engine beyond the exported types.
//
// mode is core.ModeEventBased or core.ModeTimeBased; degraded applies the
// repair-mode rules (placeholder waits for unpaired awaits, stall-breaking
// in processor order) the engine documents on its degraded analysis.
func oracle(m *trace.Trace, cal instr.Calibration, mode core.Mode, degraded bool) (*core.Approximation, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid input trace: %w", err)
	}
	ev := m.Events
	n := len(ev)
	ta := make([]trace.Time, n)
	done := make([]bool, n)
	placeholders := make([]int, m.Procs)
	forced := make([]int, m.Procs)
	var kept, removed, introduced int

	// The paired advance of an await is the first advance with its
	// (variable, iteration) key anywhere in the trace; a barrier release
	// waits for every arrival with its key.
	firstAdvance := map[trace.PairKey]int{}
	arrivals := map[trace.PairKey][]int{}
	for i, e := range ev {
		if _, seen := firstAdvance[e.Pair()]; e.Kind == trace.KindAdvance && !seen {
			firstAdvance[e.Pair()] = i
		}
		if e.Kind == trace.KindBarrierArrive {
			arrivals[e.Pair()] = append(arrivals[e.Pair()], i)
		}
	}
	// pred returns the previous event on i's processor, or -1.
	pred := func(i int) int {
		for j := i - 1; j >= 0; j-- {
			if ev[j].Proc == ev[i].Proc {
				return j
			}
		}
		return -1
	}
	// basisOf returns the event anchoring i: the latest fork fence
	// (loop-begin) of another processor strictly between i's
	// predecessor and i, else the predecessor, else -1 (the origin).
	basisOf := func(i int) int {
		u := pred(i)
		for j := i - 1; j > u; j-- {
			if ev[j].Kind == trace.KindLoopBegin && ev[j].Proc != ev[i].Proc {
				return j
			}
		}
		return u
	}
	// prevRelease returns the latest release of i's lock before i, or -1.
	prevRelease := func(i int) int {
		for j := i - 1; j >= 0; j-- {
			if ev[j].Kind == trace.KindLockRel && ev[j].Var == ev[i].Var {
				return j
			}
		}
		return -1
	}
	timing := func(i int, taB, tmB trace.Time) trace.Time {
		gap := ev[i].Time - tmB - cal.Overheads.ForKind(ev[i].Kind)
		return taB + max(gap, 0)
	}
	// classify tallies Figure 2's cases. The measurement waited iff the
	// measured gap exceeds the no-wait cost plus the probe cost, with half
	// a no-wait of slack. Kept counts the waits the approximation models
	// (a placeholder only those the measurement showed too); removed and
	// introduced count disagreements with the measurement.
	classify := func(i int, tmB trace.Time, approx, placeholder bool) {
		measured := ev[i].Time-tmB > cal.SNoWait+cal.Overheads.ForKind(ev[i].Kind)+cal.SNoWait/2
		if approx && (measured || !placeholder) {
			kept++
		}
		if measured && !approx {
			removed++
		}
		if approx && !measured {
			introduced++
		}
	}

	// resolve tries event i and reports whether it resolved.
	resolve := func(i int) bool {
		if u := pred(i); u >= 0 && !done[u] {
			return false // per-thread resolution is in program order
		}
		var taB, tmB trace.Time
		if b := basisOf(i); b >= 0 {
			if !done[b] {
				return false
			}
			taB, tmB = ta[b], ev[b].Time
		}
		e := ev[i]
		switch {
		case mode == core.ModeTimeBased:
			ta[i] = timing(i, taB, tmB)
		case e.Kind == trace.KindAwaitE:
			a, paired := firstAdvance[e.Pair()]
			switch {
			case paired && !done[a]:
				return false
			case paired && ta[a] > taB:
				ta[i] = ta[a] + cal.SWait
				classify(i, tmB, true, false)
			case !paired && degraded && e.Iter >= 0:
				wait := oraclePlaceholder(cal, taB, tmB, e.Time)
				ta[i] = taB + wait
				placeholders[e.Proc]++
				classify(i, tmB, wait > cal.SNoWait, true)
			default:
				ta[i] = taB + cal.SNoWait
				classify(i, tmB, false, false)
			}
		case e.Kind == trace.KindLockAcq:
			r := prevRelease(i)
			switch {
			case r >= 0 && !done[r]:
				return false
			case r >= 0 && ta[r] > taB:
				ta[i] = ta[r] + cal.SWait
				classify(i, tmB, true, false)
			default:
				ta[i] = taB + cal.SNoWait
				classify(i, tmB, false, false)
			}
		case e.Kind == trace.KindBarrierRelease:
			var latest trace.Time
			for _, a := range arrivals[e.Pair()] {
				if !done[a] {
					return false
				}
				latest = max(latest, ta[a])
			}
			ta[i] = latest + cal.Barrier
		default:
			ta[i] = timing(i, taB, tmB)
		}
		done[i] = true
		return true
	}

	for left := n; left > 0; {
		progress := false
		for i := range ev {
			if !done[i] && resolve(i) {
				progress = true
				left--
			}
		}
		if progress {
			continue
		}
		if mode == core.ModeTimeBased || !degraded {
			return nil, fmt.Errorf("%w: %d events unresolved (missing advance pair or barrier participant?)",
				core.ErrUnresolvable, left)
		}
		// Stall-breaking: the first unresolved event of the lowest
		// processor gets the execution-timing rule, from its basis if
		// that resolved, else anchored at its own measured time.
		i := -1
		for j := range ev {
			if !done[j] && (i < 0 || ev[j].Proc < ev[i].Proc) {
				i = j
			}
		}
		taB, tmB := ev[i].Time, ev[i].Time
		if b := basisOf(i); b < 0 {
			taB, tmB = 0, 0
		} else if done[b] {
			taB, tmB = ta[b], ev[b].Time
		}
		ta[i] = timing(i, taB, tmB)
		done[i] = true
		forced[ev[i].Proc]++
		left--
	}

	a := &core.Approximation{
		Trace:           trace.New(m.Procs),
		Times:           ta,
		WaitsKept:       kept,
		WaitsRemoved:    removed,
		WaitsIntroduced: introduced,
	}
	for i, e := range ev {
		e.Time = ta[i]
		a.Trace.Append(e)
	}
	a.Trace.Sort()
	a.Duration = a.Trace.End()
	if degraded && mode == core.ModeEventBased {
		a.Confidence = make([]core.ProcConfidence, m.Procs)
		for p := range a.Confidence {
			a.Confidence[p] = core.ProcConfidence{Proc: p, Placeholders: placeholders[p], Forced: forced[p]}
		}
		for _, e := range ev {
			a.Confidence[e.Proc].Events++
		}
		oracleScore(a.Confidence)
	}
	return a, nil
}

// oraclePlaceholder is the degraded-mode wait of an await whose advance
// is lost: its measured completion de-dilated by the awaiting processor's
// own dilation at the awaitB, clamped between the no-wait cost and the
// measured wait net of the probe cost.
func oraclePlaceholder(cal instr.Calibration, taB, tmB, tmE trace.Time) trace.Time {
	hi := tmE - tmB - cal.Overheads.AwaitE
	if hi < cal.SNoWait {
		return cal.SNoWait
	}
	wait := hi
	if tmB > 0 && taB >= 0 && taB < tmB {
		wait = trace.Time(float64(tmE)*float64(taB)/float64(tmB)) - taB
	}
	return min(max(wait, cal.SNoWait), hi)
}

// oracleScore sets each processor's Score to one minus its impaired
// fraction, floored at zero; a processor without events scores 1 unless
// something was impaired on it.
func oracleScore(cs []core.ProcConfidence) {
	for i := range cs {
		c := &cs[i]
		impaired := c.Placeholders + c.Forced + c.Defects
		switch {
		case c.Events > 0:
			c.Score = math.Max(0, 1-float64(impaired)/float64(c.Events))
		case impaired > 0:
			c.Score = 0
		default:
			c.Score = 1
		}
	}
}
