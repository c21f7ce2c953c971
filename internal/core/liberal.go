package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"perturb/internal/cancel"
	"perturb/internal/instr"
	"perturb/internal/program"
	"perturb/internal/trace"
)

// LiberalOptions parameterizes the liberal (reschedule-aware) analysis with
// the external execution information the paper says conservative analysis
// lacks (§4.1, §4.2.3): the loop's scheduling discipline and dependence
// distance, plus the processor count to schedule the iterations over.
type LiberalOptions struct {
	Procs    int
	Distance int
	Schedule program.Schedule
}

// iterSegment is one event of an iteration with its instrumentation-free
// cost relative to the previous event of the same processor.
type iterSegment struct {
	ev   trace.Event
	cost trace.Time
}

// The phases of an iteration: before, inside and after its critical
// region.
const (
	phasePre = iota
	phaseCrit
	phasePost
)

// iterWork is the instrumentation-free work profile of one loop iteration
// extracted from the measured trace: its computes by phase and its
// region's events.
type iterWork struct {
	iter                    int
	phases                  [3][]iterSegment
	awaitB, awaitE, advance trace.Event
	hasSync                 bool
}

// LiberalEventBased performs event-based perturbation analysis with work
// reassignment: instead of keeping the measured iteration-to-processor
// mapping (which instrumentation may have distorted, especially under
// self-scheduling), it extracts each iteration's instrumentation-free costs
// from the measured trace, assigns the iterations to processors under the
// given scheduling discipline and re-times them on the event-based engine.
// The approximated execution may therefore assign iterations to different
// processors than the measured one — a liberal approximation in the
// paper's terminology: closer to a likely execution, but no longer
// provably order-preserving.
//
// The input trace must come from a single concurrent loop whose body has at
// most one await...advance critical region (the structure of Livermore
// loops 3, 4 and 17), with loop markers enabled; sync instrumentation is
// required for DOACROSS inputs.
func LiberalEventBased(m *trace.Trace, cal instr.Calibration, opts LiberalOptions) (*Approximation, error) {
	a, _, err := liberal(context.Background(), m, cal, opts)
	return collect(a, err)
}

// liberal is LiberalEventBased under ctx; it also returns the engine it fed.
//
// The feed lays the extracted loop out on the target schedule: the head
// and the fork on processor 0, the iterations in index order, a barrier
// arrival and release on each processor, the loop end and the tail. Each
// event sits at its processor's clock plus a gap: a compute's extracted
// cost, the advance operation for an advance, an awaitE's measured gap
// from its awaitB, none for the rest. The costs carry no probes, so the
// engine charges only awaitE's, which enters Figure 2's measured-wait
// threshold alone. Every dependence points to an earlier iteration, so
// each event resolves as it is fed and the dynamic schedule reads the
// engine's frontiers. An await whose target iteration posts no advance (a
// warm-up await of a distance-d loop) resolves against one posted at time
// zero on the extra processor opts.Procs, whose events the result drops.
func liberal(ctx context.Context, m *trace.Trace, cal instr.Calibration, opts LiberalOptions) (*Approximation, *engine, error) {
	if opts.Procs < 1 {
		return nil, nil, fmt.Errorf("%w: liberal analysis requires Procs >= 1, got %d", ErrUnsupported, opts.Procs)
	}
	if opts.Distance < 1 {
		opts.Distance = 1
	}
	if err := m.Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: invalid input trace: %w", err)
	}
	forkIdx := -1
	for i, e := range m.Events {
		switch e.Kind {
		case trace.KindLockReq, trace.KindLockAcq, trace.KindLockRel:
			// Re-timing lock acquisitions under a different schedule
			// would require modeling arbitration outcomes the trace
			// does not determine; refuse rather than guess.
			return nil, nil, fmt.Errorf("%w: liberal analysis does not support lock-based critical sections (event %v)", ErrUnsupported, e)
		case trace.KindLoopBegin:
			if forkIdx < 0 {
				forkIdx = i
			}
		}
	}
	if forkIdx < 0 {
		return nil, nil, fmt.Errorf("%w: liberal analysis requires a loop-begin marker in the trace", ErrUnsupported)
	}

	ex, err := extractWork(ctx, m, cal, forkIdx, opts.Distance)
	if err != nil {
		return nil, nil, err
	}
	if !ex.barrierSeen {
		return nil, nil, fmt.Errorf("%w: liberal analysis requires barrier events in the trace", ErrUnsupported)
	}

	procs := opts.Procs
	probeFree := cal
	probeFree.Overheads = instr.Overheads{AwaitE: cal.Overheads.AwaitE}
	// Sealing stays off: the feed is not time-sorted, and the barrier's
	// participants are known at close.
	g, err := newIncEngine(procs+1, probeFree, engineOptions{mode: ModeEventBased, retain: true, fixedProcs: true})
	if err != nil {
		return nil, nil, err
	}
	defer g.flushTelemetry()
	clock := make([]trace.Time, procs+1) // each processor's clock on the feed
	var buf []trace.Event
	put := func(p int, segs ...iterSegment) {
		for _, s := range segs {
			clock[p] += s.cost
			s.ev.Time, s.ev.Proc = clock[p], p
			buf = append(buf, s.ev)
		}
	}

	for _, w := range ex.work { // the warm-up advances
		if t := w.awaitE.Iter; w.hasSync && (t < 0 || !ex.work[t].hasSync) {
			put(procs, iterSegment{ev: trace.Event{Kind: trace.KindAdvance, Iter: t, Var: w.awaitE.Var}})
		}
	}
	put(0, ex.head...)
	put(0, iterSegment{ev: m.Events[forkIdx]})
	start := clock[0] + ex.forkGap
	// frontier is each processor's resolved clock: the loop start until
	// the processor runs an iteration, the engine's frontier after.
	frontier := make([]trace.Time, procs)
	for p := range frontier {
		clock[p], frontier[p] = start, start
	}
	chunk := max(1, (len(ex.work)+procs-1)/procs)
	for i, w := range ex.work {
		p := i % procs // Interleaved
		switch opts.Schedule {
		case program.Blocked:
			p = i / chunk
		case program.Dynamic:
			p = slices.Index(frontier, slices.Min(frontier))
		}
		n := len(buf)
		put(p, w.phases[phasePre]...)
		if w.hasSync {
			put(p, iterSegment{w.awaitB, 0}, iterSegment{w.awaitE, max(0, w.awaitE.Time-w.awaitB.Time)})
			put(p, w.phases[phaseCrit]...)
			put(p, iterSegment{w.advance, cal.AdvanceOp})
		}
		put(p, w.phases[phasePost]...)
		if err := g.feed(ctx, buf); err != nil {
			return nil, nil, err
		}
		if len(buf) > n {
			frontier[p] = g.ps[p].taPrev
		}
		buf = buf[:0]
	}
	// Implicit end-of-loop barrier.
	for p := range procs {
		put(p, iterSegment{ev: trace.Event{Stmt: -2, Kind: trace.KindBarrierArrive}},
			iterSegment{ev: trace.Event{Stmt: -2, Kind: trace.KindBarrierRelease}})
	}
	put(0, iterSegment{ev: trace.Event{Stmt: -1, Kind: trace.KindLoopEnd, Iter: trace.NoIter, Var: trace.NoVar}})
	put(0, ex.tail...)
	if err := g.feed(ctx, buf); err != nil {
		return nil, nil, err
	}
	a, err := g.close(ctx)
	if err != nil {
		return nil, nil, err
	}
	a.canon.events = a.canon.events[:procs] // the warm-up processor is not the result's
	return a, g, nil
}

// extraction is the decomposed measured trace.
type extraction struct {
	work        []*iterWork
	head, tail  []iterSegment
	forkGap     trace.Time
	barrierSeen bool
}

type segRec struct {
	ev          trace.Event
	clean       trace.Time
	firstOnProc bool
}

// extractWork decomposes the measured trace into per-iteration work
// profiles with instrumentation overheads removed, plus head/tail segments
// and the fork gap (loop start offset). Like the engine, it polls ctx every
// cancel.CheckEvery events.
func extractWork(ctx context.Context, m *trace.Trace, cal instr.Calibration, forkIdx, distance int) (*extraction, error) {
	ex := &extraction{}
	forkEv := m.Events[forkIdx]
	forkProc := forkEv.Proc
	perProc := m.ByProc()
	seen := 0 // events visited, for the context polls
	poll := func() error {
		if seen++; seen%cancel.CheckEvery == 0 {
			return cancel.Err(ctx)
		}
		return nil
	}

	// Pass A: per-processor clean gaps.
	recs := make([][]segRec, len(perProc))
	for p, evs := range perProc {
		prev := forkEv.Time
		if p == forkProc {
			prev = 0
		}
		recs[p] = make([]segRec, 0, len(evs))
		for j, e := range evs {
			if err := poll(); err != nil {
				return nil, err
			}
			clean := e.Time - prev - cal.Overheads.ForKind(e.Kind)
			if clean < 0 {
				clean = 0
			}
			recs[p] = append(recs[p], segRec{ev: e, clean: clean, firstOnProc: j == 0 && p != forkProc})
			prev = e.Time
		}
	}

	// Per-statement base cost estimate: the minimum clean gap over all
	// non-first occurrences of each compute statement. Used to split a
	// processor's first-event gap into fork overhead plus statement cost.
	minClean := make(map[int]trace.Time)
	for _, rs := range recs {
		for _, r := range rs {
			if r.ev.Kind == trace.KindCompute && !r.firstOnProc && r.ev.Iter != trace.NoIter {
				if v, ok := minClean[r.ev.Stmt]; !ok || r.clean < v {
					minClean[r.ev.Stmt] = r.clean
				}
			}
		}
	}
	forkGap := trace.Time(-1)
	for _, rs := range recs {
		if len(rs) == 0 || !rs[0].firstOnProc {
			continue
		}
		lead := rs[0].clean
		if base, ok := minClean[rs[0].ev.Stmt]; ok && rs[0].ev.Kind == trace.KindCompute {
			lead -= base
		}
		if lead < 0 {
			lead = 0
		}
		if forkGap < 0 || lead < forkGap {
			forkGap = lead
		}
	}
	if forkGap < 0 {
		forkGap = 0
	}
	ex.forkGap = forkGap

	// Pass B: assemble iterations. Await events record the paper's
	// await(A, i) argument — the *target* iteration — so the executing
	// iteration is target + distance. The iterations must be exactly
	// 0..N-1, each with an event of its own, so iteration i goes to
	// ex.work[i] as it is found; the first outside [0, events) is noted
	// in stray, and the events of any such are dropped.
	var stray *iterWork
	get := func(iter int) *iterWork {
		if iter < 0 || iter >= m.Len() {
			stray = cmp.Or(stray, &iterWork{iter: iter})
			return &iterWork{}
		}
		if iter >= len(ex.work) {
			ex.work = append(ex.work, make([]*iterWork, iter+1-len(ex.work))...)
		}
		if ex.work[iter] == nil {
			ex.work[iter] = &iterWork{iter: iter}
		}
		return ex.work[iter]
	}
	for p, rs := range recs {
		beforeFork := p == forkProc
		afterRelease := false
		phase := make(map[int]int)
		for _, r := range rs {
			if err := poll(); err != nil {
				return nil, err
			}
			e := r.ev
			clean := r.clean
			if r.firstOnProc && e.Kind == trace.KindCompute {
				// Replace fork-contaminated first gap with the
				// statement's estimated base cost.
				if base, ok := minClean[e.Stmt]; ok {
					clean = base
				}
			}
			var slot *trace.Event // a sync event's place in its iteration
			switch e.Kind {
			case trace.KindLoopBegin:
				beforeFork = false
			case trace.KindBarrierArrive:
				ex.barrierSeen = true
			case trace.KindBarrierRelease:
				afterRelease = true
			case trace.KindLoopEnd:
				// Marker re-emitted after the barrier.
			case trace.KindCompute:
				switch {
				case beforeFork:
					ex.head = append(ex.head, iterSegment{ev: e, cost: clean})
				case afterRelease || e.Iter == trace.NoIter:
					ex.tail = append(ex.tail, iterSegment{ev: e, cost: clean})
				default:
					ph := &get(e.Iter).phases[phase[e.Iter]]
					*ph = append(*ph, iterSegment{ev: e, cost: clean})
				}
			case trace.KindAwaitB:
				i := e.Iter + distance
				w := get(i)
				slot = &w.awaitB
				w.hasSync = true
				// The awaitB gap minus probe is pre-region work;
				// fold it into the last pre segment (or keep it as a
				// synthetic segment if none exists).
				if pre := w.phases[phasePre]; clean > 0 && len(pre) > 0 {
					pre[len(pre)-1].cost += clean
				} else if clean > 0 {
					w.phases[phasePre] = append(pre, iterSegment{ev: syntheticCompute(e, i), cost: clean})
				}
				phase[i] = phaseCrit
			case trace.KindAwaitE:
				// The awaitE gap is the engine's to model.
				slot = &get(e.Iter + distance).awaitE
			case trace.KindAdvance:
				w := get(e.Iter)
				slot = &w.advance
				w.hasSync = true
				// The advance gap minus probe includes the advance
				// operation cost, which the engine charges as the
				// advance's gap, plus any unattributed statement cost.
				if opClean := clean - cal.AdvanceOp; opClean > 0 {
					w.phases[phaseCrit] = append(w.phases[phaseCrit], iterSegment{ev: syntheticCompute(e, e.Iter), cost: opClean})
				}
				phase[e.Iter] = phasePost
			}
			if slot != nil {
				if slot.Kind == e.Kind {
					return nil, fmt.Errorf("%w: liberal analysis: a second %v in one iteration (event %v); at most one await...advance region is supported", ErrUnsupported, e.Kind, e)
				}
				*slot = e
			}
		}
	}

	if stray != nil {
		return nil, fmt.Errorf("%w: liberal analysis: iteration %d outside the loop's 0..N-1", ErrUnsupported, stray.iter)
	}
	for n, w := range ex.work {
		if w == nil {
			return nil, fmt.Errorf("%w: liberal analysis: iteration %d missing from trace", ErrUnsupported, n)
		}
		if w.hasSync && (w.awaitB.Kind != trace.KindAwaitB || w.awaitE.Kind != trace.KindAwaitE || w.advance.Kind != trace.KindAdvance) {
			return nil, fmt.Errorf("%w: liberal analysis: iteration %d has incomplete synchronization events", ErrUnsupported, w.iter)
		}
		// The engine pairs an await with the advance of its variable.
		if t := w.awaitE.Iter; w.hasSync && t >= 0 && ex.work[t].hasSync && ex.work[t].advance.Var != w.awaitE.Var {
			return nil, fmt.Errorf("%w: liberal analysis: iteration %d awaits variable %d, which iteration %d does not advance", ErrUnsupported, w.iter, w.awaitE.Var, t)
		}
	}
	return ex, nil
}

// syntheticCompute returns a compute event carrying extracted cost that had
// no event of its own (await/advance processing remainders).
func syntheticCompute(like trace.Event, iter int) trace.Event {
	e := like
	e.Kind = trace.KindCompute
	e.Stmt = -3
	e.Iter = iter
	e.Var = trace.NoVar
	return e
}
