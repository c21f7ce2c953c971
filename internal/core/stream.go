package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"perturb/internal/cancel"
	"perturb/internal/instr"
	"perturb/internal/obs"
	"perturb/internal/trace"
)

// This file implements the event-based analysis engine: constructive
// resolution (eventbased.go documents the rules) that ingests events in
// arrival order and resolves each as soon as its dependencies are
// available. The batch entry points (EventBased, TimeBased) feed the whole
// trace and close; streaming sessions feed chunks as they arrive. There is
// one engine, so the golden tests that pin the batch outputs cover the
// streaming machinery byte for byte.
//
// Correctness rests on three properties of the constructive resolution:
//
//   - Confluence: every event's approximated time is a pure function of
//     its dependencies' approximated times (same-processor basis, fork
//     fence, paired advance, previous lock holder, barrier participants),
//     so the order in which resolvable events are resolved never changes
//     a value. Resolving eagerly as events arrive therefore yields the
//     same times as a fixpoint over the whole trace.
//
//   - Arrival order is trace order: advance pairing (first occurrence
//     wins), lock serialization (previous release in trace order) and
//     fork fences (latest fence between two positions) are all defined
//     over trace positions, which the engine assigns as events arrive.
//
//   - Watermark sealing: the only decisions that need whole-trace
//     knowledge are absence decisions — an awaitE with no paired advance,
//     a barrier whose participant set must be complete. While the feed is
//     globally time-sorted, every event with measured time <= t has
//     arrived once the watermark (largest measured time seen) exceeds t,
//     so for causally ordered traces (a partner never completes after its
//     dependent) absence is decidable mid-stream. The decisions are
//     optimistic: if a contradicting partner does arrive later, the
//     engine flags the run and re-resolves exactly at close from the
//     retained events (or fails in low-memory mode, which retains
//     nothing). Unsorted feeds simply defer absence decisions to close.
//
// Scheduling is a park/wake worklist. Each event links to its dependency
// record once, when fed: an awaitE to its advance's pairing record, a
// lock acquisition to the previous release, a barrier release to its
// participant set. A blocked queue head parks its processor on the record
// it waits for, or on an absence decision; resolving the record, or the
// watermark passing the decision's time, wakes it. The work is O(events +
// dependencies): no key lookups and no processor rescans while resolving.
//
// Stall-breaking (degraded mode's forced resolution) runs only at close,
// where the engine has whole-trace knowledge: the set of events still
// unresolved at a stall is the unique maximal-progress fixpoint, so the
// forced-resolution sequence does not depend on how the feed arrived.

// Engine telemetry, flushed once per analysis (batch close and
// Stream.Close) when the obs layer is enabled.
var (
	obsAnaRuns   = obs.NewCounter("core.analysis.runs")
	obsAnaEvents = obs.NewCounter("core.analysis.events")
)

// WindowResult is one window of streaming analysis output: the measured
// time interval [Start, End) with the waiting and parallelism the
// analysis resolved for the events inside it. Windows are emitted in
// index order, non-empty only, as soon as every event that can fall in
// the window has been fed and resolved.
//
// An Index can appear more than once in a session's output: when a feed
// turns out-of-order after a sorted prefix, events can land in a window
// that the watermark evidence had already released, and close re-emits
// that window with its complete corrected content. For a given Index the
// latest emission supersedes earlier ones; for globally time-sorted feeds
// every Index is emitted exactly once.
type WindowResult struct {
	// Index is the window's position on the measured time axis: window k
	// covers [k*Slide, k*Slide+Window).
	Index int `json:"index"`
	// Start and End bound the window in measured time (nanoseconds).
	// For an unwindowed session (Window <= 0) the single window spans
	// [0, latest measured time].
	Start trace.Time `json:"start"`
	End   trace.Time `json:"end"`
	// Events is the number of events whose measured time falls in the
	// window.
	Events int `json:"events"`
	// ActiveProcs is the number of processors with at least one event in
	// the window — the instantaneous parallelism at window granularity.
	ActiveProcs int `json:"active_procs"`
	// Waiting is the total approximated waiting time attributed to
	// synchronization events in the window: the part of each event's
	// approximated gap from its basis that exceeds the operation's
	// no-contention cost.
	Waiting trace.Time `json:"waiting"`
	// AvgParallelism is the average parallelism over the window's
	// approximated span: per-processor busy time (approximated span minus
	// waiting) summed, divided by the window's total approximated span.
	AvgParallelism float64 `json:"avg_parallelism"`
	// Confidence is 1 minus the window's impaired-event fraction
	// (placeholder or forced resolutions); 1.0 for exact runs.
	Confidence float64 `json:"confidence"`
	// Procs breaks the window down per processor, ordered by processor id.
	Procs []WindowProc `json:"procs"`
}

// WindowProc is one processor's share of a window.
type WindowProc struct {
	Proc   int `json:"proc"`
	Events int `json:"events"`
	// MeasuredStart/End and ApproxStart/End bound the processor's events
	// in the window on the measured and approximated time axes — their
	// divergence is the perturbation the analysis removed.
	MeasuredStart trace.Time `json:"measured_start"`
	MeasuredEnd   trace.Time `json:"measured_end"`
	ApproxStart   trace.Time `json:"approx_start"`
	ApproxEnd     trace.Time `json:"approx_end"`
	// Waiting is the approximated waiting attributed to the processor's
	// synchronization events in the window.
	Waiting trace.Time `json:"waiting"`
}

// engineOptions configures the incremental engine.
type engineOptions struct {
	mode     Mode // ModeEventBased or ModeTimeBased
	degraded bool // tolerate incomplete traces (placeholders, stall-breaking)
	retain   bool // keep events for finish(); off = summary-only, low memory
	seal     bool // allow optimistic watermark absence decisions mid-stream
	// fixedProcs pins the processor count (events outside [0, procs) are
	// rejected); false grows the processor set from the events.
	fixedProcs bool
}

// rec is a dependency record queue heads wait on: the first advance of a
// pairing key (its awaitE events link to it), a lock release (the next
// acquisition of the lock links to it), a barrier's participant set
// (arrivals and releases link to it) or a fork fence. Events link to their
// record once, when fed, so resolution never looks a key up.
type rec struct {
	ta trace.Time // resolved time; for a barrier, the latest resolved arrival
	// fed and resolved count a barrier's arrivals; for a pairing key, fed
	// is 1 once the advance has arrived.
	fed, resolved int32
	waiters       int32 // first processor parked on it, plus one; 0 for none
	done          bool  // resolved (advance, release, fence)
	sealed        bool  // an absence decision was taken against it mid-stream
}

// fence is a fork fence (loop-begin event) in arrival order.
type fence struct {
	seq, proc int
	tm        trace.Time
	rec       *rec
}

// pend is one unresolved event waiting in its processor's queue, with its
// dependency record (nil for none).
type pend struct {
	seq  int
	ev   trace.Event
	link *rec
}

// procState is one processor's frontier: the resolved prefix is
// summarized by (prevSeq, taPrev, tmPrev); the unresolved suffix waits in
// queue[qhead:]. A processor with unresolved events is either queued to
// run or parked: on the record its head waits for (wait), on an absence
// decision at measured time waitAt (waitAbs), or on both. The processors
// parked on one record form a list through prevW and nextW (processor
// plus one, 0 ends it); those parked on an absence decision sit in the
// engine's absParked at absIdx.
type procState struct {
	queue   []pend
	qhead   int
	prevSeq int
	taPrev  trace.Time
	tmPrev  trace.Time
	events  int // events fed (Confidence denominator)

	queued, parked bool
	wait           *rec
	prevW, nextW   int32
	waitAbs        bool
	waitAt         trace.Time
	absIdx         int

	// wslot[i] is the processor's entry in window wfirst+i's procs, for
	// the windows its latest resolved events fell into. A processor's
	// events resolve in time order, so its windows only move forward.
	wfirst int
	wslot  []int
}

// resolveNote carries one event's resolution to the window accumulator.
type resolveNote struct {
	ev         trace.Event
	ta         trace.Time
	waiting    trace.Time
	kept       int
	removed    int
	introduced int
	impaired   bool
}

// winAcc accumulates one window's statistics as its events resolve.
type winAcc struct {
	index    int
	pending  int // fed-but-unresolved events
	events   int
	impaired int
	waiting  trace.Time
	amended  bool         // emitted, then received late events
	procs    []winProcAcc // in order of each processor's first event
}

type winProcAcc struct {
	proc         int
	events       int
	minTM, maxTM trace.Time
	minTA, maxTA trace.Time
	waiting      trace.Time
}

// engine is the incremental resolution engine. It is not safe for
// concurrent use; the facade's StreamAnalyzer adds the locking.
type engine struct {
	cal  instr.Calibration
	opts engineOptions

	ps        []procState
	recs      []rec // current allocation chunk; records never move
	fences    []fence
	pairVars  map[int]*iterTable     // advance pairing records by variable
	pairs     map[trace.PairKey]*rec // pairing keys too sparse for a table
	barriers  map[trace.PairKey]*rec // barrier key -> record
	lastRel   map[int]*rec           // lock var -> record of the latest release
	validator *trace.EventValidator

	runq      []int32    // processors ready to run
	absParked []int32    // processors parked on an absence decision, unordered
	absMin    trace.Time // lower bound on waitAt over absParked

	n         int // events fed
	remaining int // events fed but not resolved
	watermark trace.Time
	sorted    bool
	closed    bool
	needRedo  bool

	maxTA trace.Time

	stats struct{ kept, removed, introduced int }
	conf  []ProcConfidence // degraded-mode impairment tallies, indexed by proc

	// Windowing, for streaming sessions only (windowed). window <= 0
	// means a single unbounded window emitted at close; otherwise window k
	// covers [k*slide, k*slide+window) in measured time. wins holds every
	// window an event fell into, in index order, except those an unsorted
	// feed opened below the newest one, which wait in winLate until close;
	// windows before winHead have been emitted or passed over.
	windowed      bool
	window, slide trace.Time
	wins          []winAcc
	winLate       map[int]*winAcc
	winHead       int
	winMaxIdx     int // largest window index any fed event touches
	winNext       int // next window index to consider for emission
	winQ          []WindowResult
	drainedWin    map[int]WindowResult // last content handed out per index

	// Retained input (opts.retain): events in arrival order with their
	// approximated times, for finish() and for the exact redo pass.
	all   []trace.Event
	taAll []trace.Time

	sinceCheck int
}

func newIncEngine(procs int, cal instr.Calibration, opts engineOptions) *engine {
	g := &engine{
		cal:        cal,
		opts:       opts,
		pairVars:   make(map[int]*iterTable),
		pairs:      make(map[trace.PairKey]*rec),
		barriers:   make(map[trace.PairKey]*rec),
		lastRel:    make(map[int]*rec),
		absMin:     math.MaxInt64,
		winMaxIdx:  -1,
		drainedWin: make(map[int]WindowResult),
		watermark:  math.MinInt64,
		sorted:     true,
	}
	if !opts.fixedProcs {
		procs = 0
	}
	g.growProcs(procs)
	g.validator = trace.NewEventValidator(procs)
	return g
}

// batchEngine returns an engine set up to analyze the whole trace m. It
// aliases the caller's events instead of copying them, and it decides
// absence from the watermark like a stream does, so a time-sorted trace
// never queues behind a missing partner.
func batchEngine(m *trace.Trace, cal instr.Calibration, mode Mode, degraded bool) *engine {
	g := newIncEngine(m.Procs, cal, engineOptions{
		mode:       mode,
		degraded:   degraded,
		retain:     true,
		seal:       true,
		fixedProcs: true,
	})
	g.all, g.taAll = m.Events, make([]trace.Time, len(m.Events))
	return g
}

// analyzeBatch is the batch entry points' engine run: feed every event,
// then close.
func analyzeBatch(ctx context.Context, m *trace.Trace, cal instr.Calibration, mode Mode, degraded bool) (*Approximation, error) {
	g := batchEngine(m, cal, mode, degraded)
	defer g.flushTelemetry()
	if err := g.feed(ctx, m.Events); err != nil {
		return nil, err
	}
	return g.close(ctx)
}

// flushTelemetry publishes one analysis run to the obs counters.
func (g *engine) flushTelemetry() {
	if obs.Enabled() {
		obsAnaRuns.Add(1)
		obsAnaEvents.Add(int64(g.n))
	}
}

// setWindows turns on window accounting with the given geometry. Must be
// called before the first feed. slide <= 0 means tumbling (slide =
// window).
func (g *engine) setWindows(window, slide trace.Time) {
	if window > 0 && slide <= 0 {
		slide = window
	}
	g.windowed, g.window, g.slide = true, window, slide
}

func (g *engine) procs() int { return len(g.ps) }

func (g *engine) growProcs(n int) {
	for len(g.ps) < n {
		g.ps = append(g.ps, procState{prevSeq: -1})
	}
}

// feed ingests events in arrival order, validating each, and resolves
// everything their arrival makes resolvable. Each event is processed
// individually so resolution decisions (and therefore emitted windows)
// depend only on the event sequence, never on how the caller chunked it.
func (g *engine) feed(ctx context.Context, events []trace.Event) error {
	for _, e := range events {
		if err := g.validator.Check(e); err != nil {
			return fmt.Errorf("core: invalid input trace: %w", err)
		}
		seq := g.n
		g.n++
		g.remaining++
		if g.opts.retain && seq == len(g.all) { // batch runs alias the events up front
			g.all = append(g.all, e)
			g.taAll = append(g.taAll, 0)
		}
		if seq > 0 && e.Time < g.watermark {
			g.sorted = false
		}
		if e.Time > g.watermark {
			g.watermark = e.Time
		}
		g.growProcs(e.Proc + 1)

		if g.windowed {
			kmin, kmax := g.winRange(e.Time)
			for k := kmin; k <= kmax; k++ {
				g.win(k).pending++
			}
			g.winMaxIdx = max(g.winMaxIdx, kmax)
		}

		ps := &g.ps[e.Proc]
		ps.events++
		ps.queue = append(ps.queue, pend{seq: seq, ev: e, link: g.link(seq, e)})
		if !ps.queued && !ps.parked {
			g.enqueue(e.Proc)
		}
		if len(g.absParked) > 0 && g.absenceKnown(g.absMin) {
			g.wakeAbsent()
		}
		if err := g.run(ctx); err != nil {
			return err
		}
		if g.windowed {
			g.emitWindows()
		}
	}
	return nil
}

// link resolves the dependency record an arriving event produces or
// consumes, creating it on first use, and flags the run for an exact redo
// when the event contradicts an absence decision already taken. Pairing
// is first-occurrence-wins per key; a lock acquisition serializes on the
// latest release fed before it.
func (g *engine) link(seq int, e trace.Event) *rec {
	if g.opts.mode == ModeTimeBased && e.Kind != trace.KindLoopBegin {
		return nil // only fork fences matter to the execution-timing rule
	}
	switch e.Kind {
	case trace.KindAdvance:
		r := g.pair(e)
		if r.sealed {
			g.needRedo = true
		}
		if r.fed > 0 {
			return nil // duplicate advance
		}
		r.fed = 1
		return r
	case trace.KindAwaitE:
		return g.pair(e)
	case trace.KindBarrierArrive:
		r := g.keyed(g.barriers, e.Pair())
		if r.sealed {
			g.needRedo = true
		}
		r.fed++
		return r
	case trace.KindBarrierRelease:
		return g.keyed(g.barriers, e.Pair())
	case trace.KindLockAcq:
		return g.lastRel[e.Var]
	case trace.KindLockRel:
		r := g.newRec()
		g.lastRel[e.Var] = r
		return r
	case trace.KindLoopBegin:
		r := g.newRec()
		g.fences = append(g.fences, fence{seq: seq, proc: e.Proc, tm: e.Time, rec: r})
		return r
	}
	return nil
}

// newRec allocates a record. Records come from fixed-size chunks, so
// growth never copies them and links stay valid.
func (g *engine) newRec() *rec {
	if len(g.recs) == cap(g.recs) {
		g.recs = make([]rec, 0, 1024)
	}
	g.recs = append(g.recs, rec{})
	return &g.recs[len(g.recs)-1]
}

// pair returns the pairing record of an advance or awaitE. A DOACROSS
// loop's iterations are dense, so records live in per-variable tables
// indexed by iteration: with a map keyed by PairKey instead, the million-
// event wave took 1.8x as long, and 1.4x with a packed uint64 key
// (EXPERIMENTS.md). Keys that would leave a table mostly empty go to the
// pairs map instead.
func (g *engine) pair(e trace.Event) *rec {
	t := g.pairVars[e.Var]
	if t == nil {
		t = &iterTable{base: e.Iter}
		g.pairVars[e.Var] = t
	}
	slot := t.slot(e.Iter)
	if slot == nil {
		return g.keyed(g.pairs, e.Pair())
	}
	if *slot == nil {
		if len(g.pairs) > 0 { // the table may have grown over a sparse key
			*slot = g.pairs[e.Pair()]
		}
		if *slot == nil {
			*slot = g.newRec()
		}
	}
	return *slot
}

// iterTable holds one variable's pairing records, recs[i] for iteration
// base+i.
type iterTable struct {
	base int
	recs []*rec
}

// slot returns the cell for iteration it, growing the table to reach it,
// or nil when it lies so far out that the table would be mostly empty.
func (t *iterTable) slot(it int) **rec {
	if i := it - t.base; i >= 0 && i < len(t.recs) {
		return &t.recs[i]
	}
	if int(int32(it)) != it || int(int32(t.base)) != t.base {
		return nil // keep the arithmetic below far from overflow
	}
	lo, hi := min(t.base, it), max(t.base+len(t.recs), it+1)
	if hi-lo > 2*len(t.recs)+1024 {
		return nil
	}
	if lo == t.base {
		t.recs = slices.Grow(t.recs, hi-lo-len(t.recs))[:hi-lo]
	} else {
		// Leave as much room below as the table already spans, so a
		// feed that walks iterations downward grows the table
		// geometrically, as slices.Grow does upward.
		lo = max(min(lo, t.base-len(t.recs)), math.MinInt32)
		grown := make([]*rec, hi-lo)
		copy(grown[t.base-lo:], t.recs)
		t.base, t.recs = lo, grown
	}
	return &t.recs[it-t.base]
}

// keyed returns the record for key k in m, creating it on first use.
func (g *engine) keyed(m map[trace.PairKey]*rec, k trace.PairKey) *rec {
	r := m[k]
	if r == nil {
		r = g.newRec()
		m[k] = r
	}
	return r
}

// winRange returns the inclusive window index range an event at measured
// time tm falls into, or an empty range (kmin > kmax) when it falls in no
// window (negative time, or a gap when slide > window).
func (g *engine) winRange(tm trace.Time) (int, int) {
	if g.window <= 0 {
		return 0, 0 // single unbounded window
	}
	kmax := floorDiv(tm, g.slide)
	kmin := floorDiv(tm-g.window, g.slide) + 1
	if kmin < 0 {
		kmin = 0
	}
	return int(kmin), int(kmax)
}

func floorDiv(a, b trace.Time) trace.Time {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// winEnd returns the exclusive measured-time end of window k.
func (g *engine) winEnd(k int) trace.Time {
	if g.window <= 0 {
		return math.MaxInt64
	}
	return trace.Time(k)*g.slide + g.window
}

// win returns window k's accumulator, creating it when no event has
// fallen into the window yet. A window above the newest one is appended,
// which is all a time-sorted feed ever does. Only an unsorted feed opens a
// window below the newest one; it waits in winLate, because an unsorted
// feed emits nothing before close, and close merges it in.
func (g *engine) win(k int) *winAcc {
	n := len(g.wins)
	if n == 0 || g.wins[n-1].index < k {
		g.wins = append(g.wins, winAcc{index: k})
		return &g.wins[n]
	}
	if g.wins[n-1].index == k {
		return &g.wins[n-1]
	}
	if i, ok := slices.BinarySearchFunc(g.wins, k, winCmp); ok {
		return &g.wins[i]
	}
	w := g.winLate[k]
	if w == nil {
		if g.winLate == nil {
			g.winLate = make(map[int]*winAcc)
		}
		w = &winAcc{index: k}
		g.winLate[k] = w
	}
	return w
}

func winCmp(w winAcc, k int) int { return cmp.Compare(w.index, k) }

// mergeLate moves the windows in winLate into wins, in index order, and
// recounts winHead as the windows below winNext.
func (g *engine) mergeLate() {
	if len(g.winLate) == 0 {
		return
	}
	for _, w := range g.winLate {
		g.wins = append(g.wins, *w)
	}
	g.winLate = nil
	slices.SortFunc(g.wins, func(a, b winAcc) int { return cmp.Compare(a.index, b.index) })
	g.winHead, _ = slices.BinarySearchFunc(g.wins, g.winNext, winCmp)
}

// fenceBetween returns the latest fork fence with arrival position
// strictly between prevSeq and seq that lies on a different processor
// than proc, or nil.
func (g *engine) fenceBetween(prevSeq, seq, proc int) *fence {
	for k := len(g.fences) - 1; k >= 0; k-- {
		f := &g.fences[k]
		if f.seq >= seq {
			continue
		}
		if f.seq <= prevSeq {
			return nil
		}
		if f.proc != proc {
			return f
		}
	}
	return nil
}

// basis returns the time basis for processor p's queue head: the fork
// fence between it and its predecessor if one applies, the predecessor's
// frontier otherwise, the origin for a processor's first event. wait is
// the record of a fence that has not resolved yet, nil otherwise.
func (g *engine) basis(p int) (ta, tm trace.Time, wait *rec) {
	ps := &g.ps[p]
	if f := g.fenceBetween(ps.prevSeq, ps.queue[ps.qhead].seq, p); f != nil {
		if !f.rec.done {
			return 0, 0, f.rec
		}
		return f.rec.ta, f.tm, nil
	}
	if ps.prevSeq >= 0 {
		return ps.taPrev, ps.tmPrev, nil
	}
	return 0, 0, nil
}

// absenceKnown reports whether the engine may decide that no partner for
// a synchronization event at measured time t will ever arrive: certainly
// at close, optimistically once a sorted feed's watermark has passed t
// (strictly, so timestamp ties are safe).
func (g *engine) absenceKnown(t trace.Time) bool {
	if g.closed {
		return true
	}
	return g.opts.seal && g.sorted && g.watermark > t
}

// overhead returns the calibrated probe cost for the event kind.
func (g *engine) overhead(k trace.Kind) trace.Time {
	return g.cal.Overheads.ForKind(k)
}

// step resolves processor p's queue head, or parks p on what the head
// waits for and reports false.
func (g *engine) step(p int) bool {
	ps := &g.ps[p]
	pe := &ps.queue[ps.qhead]
	taBase, tmBase, wait := g.basis(p)
	if wait != nil {
		g.park(p, wait, false, 0)
		return false
	}
	note := resolveNote{ev: pe.ev}
	if wait, abs, ok := g.resolveHead(pe, taBase, tmBase, &note); !ok {
		g.park(p, wait, abs, pe.ev.Time)
		return false
	}
	g.commit(p, pe, note)
	return true
}

// resolveHead applies the resolution rules to a queue head whose basis
// (taBase, tmBase) is available, filling note. When a dependency is still
// missing it reports ok == false with the record to wait for and whether
// the head also waits for an absence decision.
func (g *engine) resolveHead(pe *pend, taBase, tmBase trace.Time, note *resolveNote) (wait *rec, abs, ok bool) {
	e := pe.ev
	cal := g.cal
	if g.opts.mode == ModeTimeBased {
		g.resolveDefault(e, taBase, tmBase, note)
		return nil, false, true
	}

	switch e.Kind {
	case trace.KindAwaitE:
		taAwaitB := taBase // predecessor of awaitE is its awaitB
		r := pe.link
		paired := r.fed > 0
		if paired && !r.done {
			return r, false, false // blocked on the advance
		}
		if !paired && !g.absenceKnown(e.Time) {
			return r, true, false // the advance may still arrive
		}
		if !paired && !g.closed {
			r.sealed = true
		}
		taA := r.ta
		// Classify against the measured behaviour (Figure 2): the
		// await waited in the measurement iff its measured gap
		// exceeds the no-wait processing plus probe cost.
		measuredGap := e.Time - tmBase
		waitedMeasured := measuredGap > cal.SNoWait+cal.Overheads.AwaitE+cal.SNoWait/2
		if !paired && g.opts.degraded && e.Iter >= 0 {
			// Conservative placeholder: the advance was dropped.
			wait := placeholderWait(cal, taAwaitB, tmBase, e.Time)
			note.ta = taAwaitB + wait
			note.impaired = true
			g.confFor(e.Proc).Placeholders++
			waitedApprox := wait > cal.SNoWait
			if waitedMeasured && waitedApprox {
				note.kept = 1
			} else if waitedMeasured {
				note.removed = 1
			} else if waitedApprox {
				note.introduced = 1
			}
			note.waiting = waitAbove(note.ta, taAwaitB, cal.SNoWait)
			return nil, false, true
		}
		waitedApprox := paired && taA > taAwaitB
		if waitedApprox {
			note.ta = taA + cal.SWait
			note.kept = 1
		} else {
			note.ta = taAwaitB + cal.SNoWait
		}
		if waitedMeasured && !waitedApprox {
			note.removed = 1
		} else if !waitedMeasured && waitedApprox {
			note.introduced = 1
		}
		note.waiting = waitAbove(note.ta, taAwaitB, cal.SNoWait)

	case trace.KindLockAcq:
		taReq := taBase // predecessor of lock-acq is its lock-req
		r := pe.link
		held := r != nil
		var taRel trace.Time
		if held {
			if !r.done {
				return r, false, false // blocked on the previous holder's release
			}
			taRel = r.ta
		}
		waitedApprox := held && taRel > taReq
		if waitedApprox {
			note.ta = taRel + cal.SWait
			note.kept = 1
		} else {
			note.ta = taReq + cal.SNoWait
		}
		measuredGap := e.Time - tmBase
		waitedMeasured := measuredGap > cal.SNoWait+cal.Overheads.ForKind(e.Kind)+cal.SNoWait/2
		if waitedMeasured && !waitedApprox {
			note.removed = 1
		} else if !waitedMeasured && waitedApprox {
			note.introduced = 1
		}
		note.waiting = waitAbove(note.ta, taReq, cal.SNoWait)

	case trace.KindBarrierRelease:
		r := pe.link
		if !g.absenceKnown(e.Time) {
			return nil, true, false // more participants may still arrive
		}
		if r.resolved < r.fed {
			return r, false, false // a fed participant is still unresolved
		}
		if !g.closed {
			r.sealed = true
		}
		note.ta = r.ta + cal.Barrier
		note.waiting = waitAbove(note.ta, taBase, cal.Barrier)

	default:
		g.resolveDefault(e, taBase, tmBase, note)
	}
	return nil, false, true
}

// waitAbove is the window accumulator's waiting attribution: the part of
// the event's approximated gap from its basis that exceeds the
// operation's no-contention cost.
func waitAbove(ta, taBase, cost trace.Time) trace.Time {
	w := ta - taBase - cost
	if w < 0 {
		return 0
	}
	return w
}

// resolveDefault applies the execution-timing rule: the approximated time
// is the basis plus the measured gap minus the event's probe overhead.
func (g *engine) resolveDefault(e trace.Event, taBase, tmBase trace.Time, note *resolveNote) {
	gap := e.Time - tmBase - g.overhead(e.Kind)
	if gap < 0 {
		// Calibration error can slightly exceed a short measured gap;
		// clamp so approximated per-thread time stays monotonic.
		gap = 0
	}
	note.ta = taBase + gap
}

// commit finalizes a resolution: records the approximated time, resolves
// the event's dependency record (waking the heads parked on it), advances
// the processor frontier and accumulates the event into its windows.
func (g *engine) commit(p int, pe *pend, note resolveNote) {
	e := pe.ev
	ta := note.ta

	if g.opts.retain {
		g.taAll[pe.seq] = ta
	}
	if r := pe.link; r != nil {
		switch e.Kind {
		case trace.KindAdvance, trace.KindLockRel, trace.KindLoopBegin:
			r.ta, r.done = ta, true
			g.publish(r)
		case trace.KindBarrierArrive:
			r.resolved++
			r.ta = max(r.ta, ta)
			if r.resolved == r.fed { // a release needs every fed arrival
				g.publish(r)
			}
		}
	}
	g.stats.kept += note.kept
	g.stats.removed += note.removed
	g.stats.introduced += note.introduced
	if ta > g.maxTA {
		g.maxTA = ta
	}

	if g.windowed {
		g.foldWindow(&note)
	}

	ps := &g.ps[p]
	ps.prevSeq = pe.seq
	ps.taPrev = ta
	ps.tmPrev = e.Time
	ps.qhead++
	// Reset an emptied queue; compact one whose resolved prefix
	// dominates, keeping amortized O(1) pops without unbounded growth.
	if ps.qhead == len(ps.queue) {
		ps.queue, ps.qhead = ps.queue[:0], 0
	} else if ps.qhead > 32 && ps.qhead*2 >= len(ps.queue) {
		n := copy(ps.queue, ps.queue[ps.qhead:])
		ps.queue = ps.queue[:n]
		ps.qhead = 0
	}
	g.remaining--
}

// enqueue marks processor p runnable.
func (g *engine) enqueue(p int) {
	g.ps[p].queued = true
	g.runq = append(g.runq, int32(p))
}

// park records what processor p's head waits for: record wait (nil for
// none) and, with abs, an absence decision at measured time at.
func (g *engine) park(p int, wait *rec, abs bool, at trace.Time) {
	ps := &g.ps[p]
	ps.parked, ps.wait, ps.waitAbs, ps.waitAt = true, wait, abs, at
	if wait != nil {
		ps.prevW, ps.nextW = 0, wait.waiters
		if wait.waiters != 0 {
			g.ps[wait.waiters-1].prevW = int32(p + 1)
		}
		wait.waiters = int32(p + 1)
	}
	if abs {
		ps.absIdx = len(g.absParked)
		g.absParked = append(g.absParked, int32(p))
		g.absMin = min(g.absMin, at)
	}
}

// wake takes parked processor p off what it waits for and makes it
// runnable.
func (g *engine) wake(p int) {
	ps := &g.ps[p]
	if r := ps.wait; r != nil {
		if ps.prevW != 0 {
			g.ps[ps.prevW-1].nextW = ps.nextW
		} else {
			r.waiters = ps.nextW
		}
		if ps.nextW != 0 {
			g.ps[ps.nextW-1].prevW = ps.prevW
		}
	}
	if ps.waitAbs {
		last := len(g.absParked) - 1
		moved := g.absParked[last]
		g.absParked[ps.absIdx] = moved
		g.ps[moved].absIdx = ps.absIdx
		g.absParked = g.absParked[:last]
	}
	ps.parked, ps.wait, ps.waitAbs = false, nil, false
	g.enqueue(p)
}

// publish wakes every processor parked on record r, which just resolved
// or had its last fed participant resolve.
func (g *engine) publish(r *rec) {
	for r.waiters != 0 {
		g.wake(int(r.waiters - 1))
	}
}

// wakeAbsent wakes every processor parked on an absence decision that is
// now known, and recomputes absMin over the rest.
func (g *engine) wakeAbsent() {
	g.absMin = math.MaxInt64
	for i := 0; i < len(g.absParked); {
		p := int(g.absParked[i])
		if at := g.ps[p].waitAt; !g.absenceKnown(at) {
			g.absMin = min(g.absMin, at)
			i++
		} else {
			g.wake(p) // moves the last entry to i
		}
	}
}

// run drains the runnable processors: each resolves its queue until the
// queue empties or its head parks. Parked processors cost nothing until
// what they wait for resolves.
func (g *engine) run(ctx context.Context) error {
	for len(g.runq) > 0 {
		last := len(g.runq) - 1
		p := int(g.runq[last])
		g.runq = g.runq[:last]
		g.ps[p].queued = false
		for g.ps[p].qhead < len(g.ps[p].queue) {
			if !g.step(p) {
				break
			}
			if g.sinceCheck++; g.sinceCheck >= cancel.CheckEvery {
				g.sinceCheck = 0
				if err := cancel.Err(ctx); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// foldWindow accumulates a resolved event into every window containing
// its measured time.
func (g *engine) foldWindow(note *resolveNote) {
	e := note.ev
	kmin, kmax := g.winRange(e.Time)
	ps := &g.ps[e.Proc]
	if kmin > ps.wfirst { // forget the windows the processor has left
		drop := min(kmin-ps.wfirst, len(ps.wslot))
		ps.wslot = ps.wslot[:copy(ps.wslot, ps.wslot[drop:])]
		ps.wfirst = kmin
	}
	for k := kmin; k <= kmax; k++ {
		w := g.win(k)
		w.pending--
		if k < g.winNext {
			w.amended = true
		}
		w.events++
		w.waiting += note.waiting
		if note.impaired {
			w.impaired++
		}
		if k-ps.wfirst == len(ps.wslot) { // the processor's first event here
			ps.wslot = append(ps.wslot, len(w.procs))
			w.procs = append(w.procs, winProcAcc{
				proc:  e.Proc,
				minTM: e.Time, maxTM: e.Time,
				minTA: note.ta, maxTA: note.ta,
			})
		}
		pa := &w.procs[ps.wslot[k-ps.wfirst]]
		pa.events++
		pa.waiting += note.waiting
		pa.minTM = min(pa.minTM, e.Time)
		pa.maxTM = max(pa.maxTM, e.Time)
		pa.minTA = min(pa.minTA, note.ta)
		pa.maxTA = max(pa.maxTA, note.ta)
	}
}

// emitWindows moves every finished window, in index order, from the
// accumulators to the output queue. A window is finished when no fed
// event that can fall in it is unresolved and (mid-stream) the sorted
// feed's watermark has passed its end, so no future event can fall in it
// either. Empty windows are skipped, not emitted: a run of indices no
// event falls in is passed over in one step, up to the next window that
// holds events or, mid-stream, the first window a future event could
// still fall in — so sparse events under a fine window cost nothing per
// empty index.
//
// The accumulators stay alive after emission: a feed that turns
// out-of-order after a sorted prefix can deliver events into a window
// that was already emitted on the watermark's evidence. Such late events
// keep folding, the window is marked amended, and close re-emits its
// corrected content (emitAmended).
func (g *engine) emitWindows() {
	for g.winNext <= g.winMaxIdx {
		k := g.winNext
		var w *winAcc
		if g.winHead < len(g.wins) && g.wins[g.winHead].index == k {
			w = &g.wins[g.winHead]
		}
		if w != nil && w.pending > 0 {
			return
		}
		if !g.closed && !(g.sorted && g.watermark >= g.winEnd(k)) {
			return
		}
		if w == nil {
			next := g.winMaxIdx + 1
			if g.winHead < len(g.wins) {
				next = g.wins[g.winHead].index
			}
			if !g.closed { // windows ending after the watermark stay open
				next = min(next, int(floorDiv(g.watermark-g.window, g.slide))+1)
			}
			g.winNext = next
			continue
		}
		if w.events > 0 {
			g.winQ = append(g.winQ, g.buildWindow(w))
		}
		g.winHead++
		g.winNext++
	}
}

// emitAmended re-emits, at close, every window that received events after
// its emission — possible only when the feed violated global time order
// after a sorted prefix. The re-emission carries the window's complete
// corrected content; for a given Index, the latest emission supersedes
// earlier ones.
func (g *engine) emitAmended() {
	for i := range g.wins {
		if w := &g.wins[i]; w.amended {
			w.amended = false
			g.winQ = append(g.winQ, g.buildWindow(w))
		}
	}
}

// buildWindow assembles the WindowResult for a window from its
// accumulator.
func (g *engine) buildWindow(acc *winAcc) WindowResult {
	k := acc.index
	w := WindowResult{
		Index:       k,
		Start:       trace.Time(k) * g.slide,
		End:         g.winEnd(k),
		Events:      acc.events,
		ActiveProcs: len(acc.procs),
		Waiting:     acc.waiting,
		Confidence:  1,
		Procs:       make([]WindowProc, 0, len(acc.procs)),
	}
	if g.window <= 0 {
		w.Start = 0
		w.End = 0
		if g.watermark > 0 {
			w.End = g.watermark
		}
	}
	var busy trace.Time
	minTA, maxTA := trace.Time(math.MaxInt64), trace.Time(math.MinInt64)
	for _, pa := range acc.procs {
		w.Procs = append(w.Procs, WindowProc{
			Proc:          pa.proc,
			Events:        pa.events,
			MeasuredStart: pa.minTM,
			MeasuredEnd:   pa.maxTM,
			ApproxStart:   pa.minTA,
			ApproxEnd:     pa.maxTA,
			Waiting:       pa.waiting,
		})
		if b := pa.maxTA - pa.minTA - pa.waiting; b > 0 {
			busy += b
		}
		minTA = min(minTA, pa.minTA)
		maxTA = max(maxTA, pa.maxTA)
	}
	slices.SortFunc(w.Procs, func(a, b WindowProc) int { return cmp.Compare(a.Proc, b.Proc) })
	if span := maxTA - minTA; span > 0 {
		w.AvgParallelism = float64(busy) / float64(span)
	} else {
		w.AvgParallelism = float64(len(acc.procs))
	}
	if g.opts.degraded && acc.events > 0 {
		w.Confidence = max(0, 1-float64(acc.impaired)/float64(acc.events))
	}
	return w
}

// drainWindows hands out the finished windows emitted since the last
// drain, in index order.
func (g *engine) drainWindows() []WindowResult {
	if len(g.winQ) == 0 {
		return nil
	}
	out := g.winQ
	g.winQ = nil
	if g.opts.retain { // only a redo, which needs retention, reads them
		for _, w := range out {
			g.drainedWin[w.Index] = w
		}
	}
	return out
}

// windowEqual reports whether two emissions carry identical content.
func windowEqual(a, b WindowResult) bool {
	if a.Index != b.Index || a.Start != b.Start || a.End != b.End ||
		a.Events != b.Events || a.ActiveProcs != b.ActiveProcs ||
		a.Waiting != b.Waiting || a.AvgParallelism != b.AvgParallelism ||
		a.Confidence != b.Confidence || len(a.Procs) != len(b.Procs) {
		return false
	}
	for i := range a.Procs {
		if a.Procs[i] != b.Procs[i] {
			return false
		}
	}
	return true
}

// confFor returns the degraded-mode impairment record for proc,
// allocating the table on first use.
func (g *engine) confFor(proc int) *ProcConfidence {
	for proc >= len(g.conf) {
		g.conf = append(g.conf, ProcConfidence{Proc: len(g.conf)})
	}
	return &g.conf[proc]
}

// close finishes the analysis: every event has arrived, so absence
// decisions are final, stalls are broken (degraded mode) or reported, and
// a contradiction-flagged run is re-resolved exactly from the retained
// events.
func (g *engine) close(ctx context.Context) (*Approximation, error) {
	g.closed = true
	g.wakeAbsent()
	if err := g.run(ctx); err != nil {
		return nil, err
	}
	for g.remaining > 0 {
		if err := cancel.Err(ctx); err != nil {
			return nil, err
		}
		if g.opts.mode == ModeTimeBased {
			// Unreachable for validated input: the default rule's
			// dependency graph strictly decreases arrival position.
			return nil, ErrUnresolvable
		}
		if !g.opts.degraded {
			return nil, fmt.Errorf("%w: %d events unresolved (missing advance pair or barrier participant?)",
				ErrUnresolvable, g.remaining)
		}
		// Stall-breaking: force-resolve the first blocked event in
		// processor order with the execution-timing rule, so a
		// dependency cycle degrades one event instead of failing the
		// whole analysis. Deterministic: lowest processor id wins.
		p := 0
		for p < len(g.ps) && g.ps[p].qhead == len(g.ps[p].queue) {
			p++
		}
		if p == len(g.ps) || !g.ps[p].parked {
			return nil, fmt.Errorf("%w: %d events unresolved", ErrUnresolvable, g.remaining)
		}
		g.wake(p)
		ps := &g.ps[p]
		pe := &ps.queue[ps.qhead]
		taBase, tmBase, wait := g.basis(p)
		if wait != nil {
			// Basis itself unresolved (cross-processor fence in the
			// cycle): anchor at the measured time.
			taBase, tmBase = pe.ev.Time, pe.ev.Time
		}
		note := resolveNote{ev: pe.ev, impaired: true}
		g.resolveDefault(pe.ev, taBase, tmBase, &note)
		g.confFor(p).Forced++
		g.commit(p, pe, note)
		if err := g.run(ctx); err != nil {
			return nil, err
		}
	}

	if g.needRedo {
		return g.redo(ctx)
	}
	if g.windowed {
		g.mergeLate()
		g.emitWindows()
		g.emitAmended()
	}
	return g.finish(), nil
}

// redo re-resolves the retained events with sealing disabled: every
// absence decision waits for close, where knowledge is complete, so the
// result is exactly the fixpoint over the whole trace. Reached only when
// a partner event arrived after its absence had optimistically been
// decided — possible only for feeds that violate causal order (a partner
// completing after its dependent), which no measured execution produces.
// The window queue is rebuilt from the exact run's emissions; any window
// already drained with content the exact run confirms is not repeated,
// while a corrected window is re-emitted and supersedes the drained one.
func (g *engine) redo(ctx context.Context) (*Approximation, error) {
	if !g.opts.retain {
		return nil, fmt.Errorf("%w: synchronization partner arrived after its absence was decided; low-memory streaming cannot re-resolve (retain events or sort the feed)", ErrUnsupported)
	}
	opts := g.opts
	opts.seal = false
	g2 := newIncEngine(g.procs(), g.cal, opts)
	g2.growProcs(g.procs()) // keep a discovered processor count
	if g.windowed {
		g2.setWindows(g.window, g.slide)
	}
	g2.all, g2.taAll = g.all, make([]trace.Time, len(g.all))
	if err := g2.feed(ctx, g.all); err != nil {
		return nil, err
	}
	a, err := g2.close(ctx)
	if err != nil {
		return nil, err
	}
	// Adopt the exact run's state so callers observing the engine after
	// close (windows, duration, confidence) see consistent values.
	g.stats = g2.stats
	g.conf = g2.conf
	g.maxTA = g2.maxTA
	g.taAll = g2.taAll
	g.winQ = g.winQ[:0]
	for _, w := range g2.winQ {
		if prev, ok := g.drainedWin[w.Index]; ok && windowEqual(prev, w) {
			continue
		}
		g.winQ = append(g.winQ, w)
	}
	return a, nil
}

// finish assembles the Approximation. With retention the events are
// re-timed and put in canonical order, with Times aligned with arrival
// order; without, it carries the summary only.
func (g *engine) finish() *Approximation {
	a := &Approximation{
		WaitsKept:       g.stats.kept,
		WaitsRemoved:    g.stats.removed,
		WaitsIntroduced: g.stats.introduced,
	}
	if g.opts.degraded {
		conf := make([]ProcConfidence, g.procs())
		for p := range conf {
			conf[p].Proc = p
			conf[p].Events = g.ps[p].events
		}
		for p := range g.conf {
			conf[p].Placeholders = g.conf[p].Placeholders
			conf[p].Forced = g.conf[p].Forced
		}
		scoreConfidence(conf)
		a.Confidence = conf
	}
	if !g.opts.retain {
		a.Duration = g.maxTA
		return a
	}
	// No renormalization: the basis rule anchors each thread at the
	// execution origin (time zero), so approximated times are already in
	// actual-execution coordinates.
	a.Times = g.taAll
	a.Trace = &trace.Trace{Procs: g.procs(), Events: mergeRuns(g.all, g.taAll, g.procs())}
	if n := len(a.Trace.Events); n > 0 {
		a.Duration = a.Trace.Events[n-1].Time // canonical order is by time
	}
	return a
}

// mergeRuns re-times events with ta and puts them in the canonical (Time,
// Proc, Stmt) order with arrival-order tie-breaking — exactly the
// permutation Trace.Sort's stable sort produces — by merging the
// per-processor runs. Runs never share a processor, so the merge orders
// run heads by (time, proc) alone, in a heap of the processors with events
// left: O(log procs) per event. Within a run, arrival order is the
// tie-breaking wherever (time, stmt) does not decrease; a run where it
// does is stable-sorted first.
func mergeRuns(events []trace.Event, ta []trace.Time, procs int) []trace.Event {
	// next links each event to the next one of its run.
	next := make([]int, len(events))
	head := make([]int, procs)
	for p := range head {
		head[p] = -1
	}
	for i := len(events) - 1; i >= 0; i-- {
		p := events[i].Proc
		next[i], head[p] = head[p], i
	}
	before := func(a, b int) bool { // a sorts strictly before b
		return ta[a] < ta[b] || ta[a] == ta[b] && events[a].Stmt < events[b].Stmt
	}
	var run []int
	for p, h := range head {
		i := h
		for i >= 0 && next[i] >= 0 && !before(next[i], i) {
			i = next[i]
		}
		if i < 0 || next[i] < 0 {
			continue // sorted
		}
		run = run[:0]
		for i := h; i >= 0; i = next[i] {
			run = append(run, i)
		}
		slices.SortStableFunc(run, func(a, b int) int {
			return cmp.Or(cmp.Compare(ta[a], ta[b]), cmp.Compare(events[a].Stmt, events[b].Stmt))
		})
		head[p] = run[0]
		for k, i := range run[:len(run)-1] {
			next[i] = run[k+1]
		}
		next[run[len(run)-1]] = -1
	}
	h := procHeap{ta: ta, head: head}
	for p, i := range head {
		if i >= 0 {
			h.procs = append(h.procs, p)
		}
	}
	for k := len(h.procs)/2 - 1; k >= 0; k-- {
		h.down(k)
	}
	out := make([]trace.Event, 0, len(events))
	for len(h.procs) > 0 {
		p := h.procs[0]
		i := head[p]
		e := events[i]
		e.Time = ta[i]
		out = append(out, e)
		if head[p] = next[i]; head[p] < 0 { // run exhausted
			last := len(h.procs) - 1
			h.procs[0] = h.procs[last]
			h.procs = h.procs[:last]
		}
		h.down(0)
	}
	return out
}

// procHeap is a binary min-heap of processors ordered by the time of their
// run's head event, ties toward the lower processor.
type procHeap struct {
	procs []int
	ta    []trace.Time
	head  []int // run head event per processor
}

func (h *procHeap) less(a, b int) bool {
	pa, pb := h.procs[a], h.procs[b]
	ta, tb := h.ta[h.head[pa]], h.ta[h.head[pb]]
	return ta < tb || ta == tb && pa < pb
}

// down restores the heap order below position k.
func (h *procHeap) down(k int) {
	n := len(h.procs)
	for {
		c := 2*k + 1
		if c >= n {
			return
		}
		if c+1 < n && h.less(c+1, c) {
			c++
		}
		if !h.less(c, k) {
			return
		}
		h.procs[k], h.procs[c] = h.procs[c], h.procs[k]
		k = c
	}
}

// StreamOptions configures a streaming analysis session.
type StreamOptions struct {
	// Mode selects the analysis family: ModeEventBased (default) or
	// ModeTimeBased. ModeLiberal re-derives the whole schedule from the
	// loop's dependence structure and is inherently batch; NewStream
	// rejects it.
	Mode Mode

	// Repair buffers the feed and sanitizes it with trace.Repair at
	// Close, then analyzes in degraded mode — the streaming counterpart
	// of Options.Repair. Windows are all emitted at Close, since repair
	// needs the complete feed. Incompatible with LowMemory.
	Repair bool

	// LowMemory drops resolved events instead of retaining them: Close
	// returns a summary-only Approximation (Duration, wait statistics,
	// Confidence; nil Trace and Times), and memory stays proportional to
	// the synchronization state in flight instead of the trace length.
	LowMemory bool

	// Procs fixes the processor count, like Trace.Procs. Zero discovers
	// the processor set from the events.
	Procs int

	// Window and Slide define the measured-time windows (nanoseconds)
	// over which intermediate results are emitted: window k covers
	// [k*Slide, k*Slide+Window). Slide == 0 means tumbling windows
	// (Slide = Window); Window == 0 disables intermediate windows — the
	// session emits one unbounded window at Close. An event falls in up
	// to ceil(Window/Slide) windows; NewStream rejects a geometry above
	// MaxWindowsPerEvent.
	Window trace.Time
	Slide  trace.Time
}

// MaxWindowsPerEvent caps how many sliding windows one event may fall in.
// Every event is folded into each of its windows, so without a cap a
// window/slide ratio like 1e12 would stall a session on its first event.
const MaxWindowsPerEvent = 1000

// Stream is an incremental analysis session: feed measured events in
// arrival order, collect finished windows as they resolve, close to
// obtain the final Approximation — which is identical to what the batch
// Analyze computes over the same events, because both run the same
// engine.
//
// Stream is not safe for concurrent use; the facade's StreamAnalyzer
// adds locking.
type Stream struct {
	cal    instr.Calibration
	opts   StreamOptions
	g      *engine      // nil in repair mode until Close
	buf    *trace.Trace // repair mode: the buffered feed
	closed bool
	result *Approximation
}

// NewStream starts a streaming analysis session.
func NewStream(cal instr.Calibration, opts StreamOptions) (*Stream, error) {
	switch opts.Mode {
	case ModeEventBased, ModeTimeBased:
	case ModeLiberal:
		return nil, fmt.Errorf("%w: liberal analysis re-derives the whole schedule and cannot run incrementally", ErrUnsupported)
	default:
		return nil, fmt.Errorf("core: unknown analysis mode")
	}
	if opts.Repair && opts.LowMemory {
		return nil, fmt.Errorf("%w: repair needs the complete feed buffered; it cannot run low-memory", ErrUnsupported)
	}
	if opts.Window > 0 && opts.Slide > 0 && (opts.Window-1)/opts.Slide >= MaxWindowsPerEvent {
		return nil, fmt.Errorf("%w: window %d with slide %d puts each event in more than %d windows",
			ErrUnsupported, opts.Window, opts.Slide, MaxWindowsPerEvent)
	}
	s := &Stream{cal: cal, opts: opts}
	if opts.Repair {
		s.buf = trace.New(opts.Procs)
	} else {
		g := newIncEngine(opts.Procs, cal, engineOptions{
			mode:       opts.Mode,
			degraded:   false,
			retain:     !opts.LowMemory,
			seal:       true,
			fixedProcs: opts.Procs > 0,
		})
		g.setWindows(opts.Window, opts.Slide)
		s.g = g
	}
	return s, nil
}

// Feed ingests the next events of the stream, in arrival order. Events
// are validated and resolved one at a time, so results never depend on
// how the stream is chunked. Feeding after Close is an error.
func (s *Stream) Feed(ctx context.Context, events []trace.Event) error {
	if s.closed {
		return fmt.Errorf("core: stream session is closed")
	}
	if s.buf != nil {
		// Repair mode: defer everything to Close — the sanitizer needs
		// the complete feed.
		s.buf.Grow(len(events))
		for _, e := range events {
			s.buf.Append(e)
		}
		return cancel.Err(ctx)
	}
	return s.g.feed(ctx, events)
}

// Windows returns the finished windows emitted since the last call, in
// window-index order, without blocking. Windows become available as the
// feed's watermark passes them (sorted feeds only) and after Close.
func (s *Stream) Windows() []WindowResult {
	if s.g == nil {
		return nil
	}
	return s.g.drainWindows()
}

// Close ends the stream and returns the final Approximation — identical
// to batch Analyze over the same events. Remaining windows become
// available via Windows afterwards. Close is idempotent: repeated calls
// return the same result.
func (s *Stream) Close(ctx context.Context) (*Approximation, error) {
	if s.closed {
		if s.result == nil {
			return nil, fmt.Errorf("core: stream session is closed")
		}
		return s.result, nil
	}
	s.closed = true
	var repaired *trace.Trace
	var rep *trace.RepairReport
	if s.buf != nil {
		// Repair mode: sanitize the buffered feed, then run the engine
		// in degraded mode over the repaired trace — exactly
		// AnalyzeContext's repair path. The feed order is preserved (no
		// sort): it is the trace order batch Analyze would see.
		if s.buf.Procs == 0 {
			for _, e := range s.buf.Events {
				if e.Proc >= s.buf.Procs {
					s.buf.Procs = e.Proc + 1
				}
			}
		}
		repaired, rep = trace.Repair(s.buf)
		s.g = batchEngine(repaired, s.cal, s.opts.Mode, s.opts.Mode == ModeEventBased)
		s.g.setWindows(s.opts.Window, s.opts.Slide)
	}
	defer s.g.flushTelemetry()
	if repaired != nil {
		if err := s.g.feed(ctx, repaired.Events); err != nil {
			return nil, err
		}
	}
	a, err := s.g.close(ctx)
	if err != nil {
		return nil, err
	}
	if rep != nil {
		a.Repair = rep
		attachDefects(a, rep, repaired.Procs)
	}
	s.result = a
	return a, nil
}

// Procs reports the processor count seen so far: the fixed count when
// StreamOptions.Procs was set, the discovered count otherwise.
func (s *Stream) Procs() int {
	if s.g != nil {
		return s.g.procs()
	}
	if s.buf == nil {
		return s.opts.Procs
	}
	procs := s.buf.Procs
	for _, e := range s.buf.Events {
		if e.Proc >= procs {
			procs = e.Proc + 1
		}
	}
	return procs
}

// Events reports how many events have been fed so far.
func (s *Stream) Events() int {
	if s.g != nil {
		return s.g.n
	}
	if s.buf == nil {
		return 0
	}
	return s.buf.Len()
}

// Abort tears the session down without computing a result: engine state,
// buffered feeds and pending windows are all discarded, deterministically
// and immediately. Feed, Close and Windows on an aborted session fail or
// return nothing. Use when the feed's source died mid-stream — there is
// no watermark worth sealing, and keeping partial windows around would
// leak the session's memory for the connection's lifetime.
func (s *Stream) Abort() {
	s.closed = true
	s.result = nil
	s.g = nil
	s.buf = nil
}
