package trace

import (
	"fmt"
	"sort"
	"strings"
)

// This file implements the trace sanitizer: classification of the defects
// real tracing systems introduce under buffer pressure (dropped events,
// truncated processor streams, duplicated records, skewed clocks,
// intra-processor reordering) and the structural repairs that let the
// perturbation analyses degrade gracefully instead of erroring or silently
// mis-reconstructing.
//
// Repair fixes what is structurally decidable from the trace alone:
// duplicate records are removed, inverted synchronization brackets are
// re-ordered, missing bracket halves and barrier sides are synthesized
// next to their surviving partner, and clock skew between processors is
// estimated from advance/await causality violations and subtracted.
// Semantic gaps — an await whose advance was dropped entirely — are only
// classified; reconstructing the lost waiting needs the analysis'
// calibrated cost model, so the event-based analysis handles them in its
// degraded mode (see internal/core).

// SynthStmt is the statement id of events the sanitizer synthesizes. It is
// distinct from every simulator-emitted id (statements are >= 0, loop
// markers -1, barrier markers -2) so synthesized placeholders are
// identifiable in profiles and can never collide with a measured event.
const SynthStmt = -3

// DefectClass classifies one kind of trace defect.
type DefectClass uint8

const (
	// DefectInvalidEvent is an event no analysis can interpret: an
	// undefined kind, a negative processor, or a synchronization event
	// without a variable. Repair drops it.
	DefectInvalidEvent DefectClass = iota
	// DefectDuplicate is an exact copy of another event. Repair keeps the
	// first occurrence.
	DefectDuplicate
	// DefectReordered is a synchronization bracket recorded out of order
	// on its processor (awaitE before its awaitB, lock-acq before its
	// lock-req), the signature of in-buffer reordering. Repair swaps the
	// two timestamps.
	DefectReordered
	// DefectClockSkew is a per-processor clock offset, detected when
	// several advance/await pairs on the same processor violate
	// causality by a consistent margin. Repair shifts the processor's
	// events by the estimated offset.
	DefectClockSkew
	// DefectCausality is a residual awaitE timestamped before its paired
	// advance. Repair clamps the awaitE to the advance time.
	DefectCausality
	// DefectOrphanAwaitE is an awaitE whose awaitB is missing from its
	// processor. Repair synthesizes the awaitB just before it.
	DefectOrphanAwaitE
	// DefectDanglingAwaitB is an awaitB with no matching awaitE. Repair
	// synthesizes the awaitE just after it.
	DefectDanglingAwaitB
	// DefectOrphanLockAcq is a lock-acq with no preceding lock-req on its
	// processor. Repair synthesizes the lock-req.
	DefectOrphanLockAcq
	// DefectDanglingLockReq is a lock-req never followed by its lock-acq.
	// Repair synthesizes the lock-acq.
	DefectDanglingLockReq
	// DefectMissingArrival is a barrier release on a processor that has
	// no arrival for the same barrier. Repair synthesizes the arrival at
	// the processor's preceding event.
	DefectMissingArrival
	// DefectMissingRelease is a barrier arrival on a processor that has
	// no release for the same barrier. Repair synthesizes the release at
	// the barrier's common release time.
	DefectMissingRelease
	// DefectTruncatedTail is a processor whose event stream ends before a
	// barrier the other processors completed — the tail of its trace
	// buffer was lost. Repair synthesizes the barrier participation; the
	// truncated work itself is unrecoverable.
	DefectTruncatedTail
	// DefectDroppedProbe is a computation event missing from one loop
	// iteration while nearly every other iteration has it — the signature
	// of a probe record lost to a full buffer. Repair synthesizes the
	// event between its surviving neighbours: the analyses subtract probe
	// overhead per event present, so a missing record would silently leave
	// its overhead in the approximated timeline.
	DefectDroppedProbe
	// DefectUnmatchedAwait is an await pair whose advance is missing from
	// the whole trace. It is structurally unrepairable (the advance's
	// time lives on another processor); the event-based analysis resolves
	// it with a conservative placeholder in degraded mode.
	DefectUnmatchedAwait

	numDefectClasses
)

var defectNames = [...]string{
	DefectInvalidEvent:    "invalid-event",
	DefectDuplicate:       "duplicate",
	DefectReordered:       "reordered",
	DefectClockSkew:       "clock-skew",
	DefectCausality:       "causality",
	DefectOrphanAwaitE:    "orphan-awaitE",
	DefectDanglingAwaitB:  "dangling-awaitB",
	DefectOrphanLockAcq:   "orphan-lock-acq",
	DefectDanglingLockReq: "dangling-lock-req",
	DefectMissingArrival:  "missing-arrival",
	DefectMissingRelease:  "missing-release",
	DefectTruncatedTail:   "truncated-tail",
	DefectDroppedProbe:    "dropped-probe",
	DefectUnmatchedAwait:  "unmatched-await",
}

func (c DefectClass) String() string {
	if int(c) < len(defectNames) {
		return defectNames[c]
	}
	return fmt.Sprintf("defect(%d)", uint8(c))
}

// Err returns the sentinel error the defect class corresponds to, for use
// with errors.Is.
func (c DefectClass) Err() error {
	switch c {
	case DefectOrphanAwaitE, DefectDanglingAwaitB, DefectOrphanLockAcq,
		DefectDanglingLockReq, DefectMissingArrival, DefectMissingRelease,
		DefectUnmatchedAwait:
		return ErrUnmatchedSync
	case DefectTruncatedTail:
		return ErrTruncatedTrace
	default:
		return ErrMalformedTrace
	}
}

// Action says what Repair did about a defect.
type Action uint8

const (
	// ActionFlagged: classified only; the trace was not modified.
	ActionFlagged Action = iota
	// ActionDropped: the offending event was removed.
	ActionDropped
	// ActionSynthesized: a placeholder event (Stmt == SynthStmt) was
	// added to restore the structure the analyses need.
	ActionSynthesized
	// ActionRetimed: one or more timestamps were adjusted.
	ActionRetimed
)

var actionNames = [...]string{
	ActionFlagged:     "flagged",
	ActionDropped:     "dropped",
	ActionSynthesized: "synthesized",
	ActionRetimed:     "retimed",
}

func (a Action) String() string {
	if int(a) < len(actionNames) {
		return actionNames[a]
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// Defect is one classified trace defect.
type Defect struct {
	Class  DefectClass
	Action Action
	// Proc is the processor the defect is attributed to (-1 if none).
	Proc int
	// Key is the synchronization pairing key for sync defects.
	Key PairKey
	// Detail is a human-readable elaboration.
	Detail string
}

func (d Defect) String() string {
	s := fmt.Sprintf("%v (%v)", d.Class, d.Action)
	if d.Proc >= 0 {
		s += fmt.Sprintf(" proc %d", d.Proc)
	}
	if d.Detail != "" {
		s += ": " + d.Detail
	}
	return s
}

// RepairReport is the structured outcome of a Repair pass.
type RepairReport struct {
	// Defects lists every classified defect in detection order.
	Defects []Defect
	// Removed, Synthesized and Retimed count the repair modifications:
	// events dropped, placeholder events added, timestamps adjusted.
	Removed, Synthesized, Retimed int
	// PerProc counts defects attributed to each processor, keyed by
	// processor id (absent means zero defects).
	PerProc map[int]int
}

// Clean reports whether no defects at all were found.
func (r *RepairReport) Clean() bool { return len(r.Defects) == 0 }

// Modified reports whether the repair changed the trace.
func (r *RepairReport) Modified() bool {
	return r.Removed > 0 || r.Synthesized > 0 || r.Retimed > 0
}

// CountClass returns how many defects of the given class were found.
func (r *RepairReport) CountClass(c DefectClass) int {
	n := 0
	for _, d := range r.Defects {
		if d.Class == c {
			n++
		}
	}
	return n
}

// Summary renders a one-line per-class defect summary, e.g.
// "7 defects: duplicate x3, unmatched-await x4".
func (r *RepairReport) Summary() string {
	if r.Clean() {
		return "clean"
	}
	var counts [numDefectClasses]int
	for _, d := range r.Defects {
		if int(d.Class) < len(counts) {
			counts[d.Class]++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d defects:", len(r.Defects))
	first := true
	for c, n := range counts {
		if n == 0 {
			continue
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, " %v x%d", DefectClass(c), n)
	}
	return b.String()
}

// Audit classifies the trace's defects without modifying it.
func Audit(t *Trace) []Defect {
	_, rep := Repair(t)
	return rep.Defects
}

// Repair returns a sanitized copy of the trace together with a structured
// report of every defect found and what was done about it. The input is
// never modified. The output always passes Validate, and repairing an
// already-repaired trace performs no further modifications (repair is
// idempotent on its own output).
//
// Unmatched awaits (advance dropped entirely) are classified but left in
// place: restoring the lost waiting requires the analysis' cost model, so
// the event-based analysis resolves them with conservative placeholders
// when run in degraded mode.
func Repair(t *Trace) (*Trace, *RepairReport) {
	r := &repairer{rep: &RepairReport{}}
	out := r.run(t)
	r.rep.PerProc = make(map[int]int)
	for _, d := range r.rep.Defects {
		if d.Proc >= 0 {
			r.rep.PerProc[d.Proc]++
		}
	}
	return out, r.rep
}

type repairer struct {
	rep *RepairReport
}

func (r *repairer) note(d Defect) {
	r.rep.Defects = append(r.rep.Defects, d)
	switch d.Action {
	case ActionDropped:
		r.rep.Removed++
	case ActionSynthesized:
		r.rep.Synthesized++
	case ActionRetimed:
		r.rep.Retimed++
	}
}

func (r *repairer) run(t *Trace) *Trace {
	w := &Trace{Procs: t.Procs, Events: make([]Event, 0, len(t.Events))}
	if w.Procs < 0 {
		w.Procs = 0
	}

	// Pass 1: drop events no analysis can interpret; grow the processor
	// count to cover every named processor (as Normalize does).
	for _, e := range t.Events {
		switch {
		case e.Proc < 0:
			r.note(Defect{Class: DefectInvalidEvent, Action: ActionDropped, Proc: -1,
				Detail: fmt.Sprintf("negative processor in %v", e)})
			continue
		case !e.Kind.Valid():
			r.note(Defect{Class: DefectInvalidEvent, Action: ActionDropped, Proc: e.Proc,
				Detail: fmt.Sprintf("undefined kind in %v", e)})
			continue
		}
		switch e.Kind {
		case KindAdvance, KindAwaitB, KindAwaitE, KindLockReq, KindLockAcq, KindLockRel:
			if e.Var == NoVar {
				r.note(Defect{Class: DefectInvalidEvent, Action: ActionDropped, Proc: e.Proc,
					Detail: fmt.Sprintf("sync event without variable in %v", e)})
				continue
			}
		}
		if e.Proc >= w.Procs {
			w.Procs = e.Proc + 1
		}
		w.Events = append(w.Events, e)
	}
	w.Sort()

	r.dedup(w)
	r.fixInversions(w)
	r.fixClockSkew(w)
	r.clampCausality(w)
	r.completeBrackets(w)
	r.completeBarriers(w)
	r.completeIterations(w)
	r.flagUnmatchedAwaits(w)
	w.Sort()
	return w
}

// dedup removes exact duplicates, keeping the first occurrence. The trace
// is sorted, so duplicates share a (Time, Proc, Stmt) tie group.
func (r *repairer) dedup(w *Trace) {
	evs := w.Events
	out := evs[:0]
	for i := 0; i < len(evs); {
		j := i + 1
		for j < len(evs) && evs[j].Time == evs[i].Time &&
			evs[j].Proc == evs[i].Proc && evs[j].Stmt == evs[i].Stmt {
			j++
		}
		// Within the tie group, keep each distinct event once.
		for k := i; k < j; k++ {
			dup := false
			for m := i; m < k; m++ {
				if evs[m] == evs[k] {
					dup = true
					break
				}
			}
			if dup {
				r.note(Defect{Class: DefectDuplicate, Action: ActionDropped,
					Proc: evs[k].Proc, Key: evs[k].Pair(),
					Detail: fmt.Sprintf("duplicate of %v", evs[k])})
				continue
			}
			out = append(out, evs[k])
		}
		i = j
	}
	w.Events = out
}

// bracketKey groups bracket events of one family on one processor.
type bracketKey struct {
	key  PairKey
	open Kind
}

// brackets collects, for the given processor event list, the positions of
// opening and closing bracket events grouped by pairing key, for both the
// await and lock families.
func brackets(w *Trace, list []int) map[bracketKey]*bracketSet {
	sets := make(map[bracketKey]*bracketSet)
	get := func(k bracketKey) *bracketSet {
		s := sets[k]
		if s == nil {
			s = &bracketSet{}
			sets[k] = s
		}
		return s
	}
	for pos, idx := range list {
		e := w.Events[idx]
		switch e.Kind {
		case KindAwaitB:
			s := get(bracketKey{e.Pair(), KindAwaitB})
			s.opens = append(s.opens, pos)
		case KindAwaitE:
			s := get(bracketKey{e.Pair(), KindAwaitB})
			s.closes = append(s.closes, pos)
		case KindLockReq:
			s := get(bracketKey{e.Pair(), KindLockReq})
			s.opens = append(s.opens, pos)
		case KindLockAcq:
			s := get(bracketKey{e.Pair(), KindLockReq})
			s.closes = append(s.closes, pos)
		}
	}
	return sets
}

type bracketSet struct{ opens, closes []int }

// sortedBracketKeys returns the map's keys in a deterministic order so
// defect reports do not depend on map iteration.
func sortedBracketKeys(sets map[bracketKey]*bracketSet) []bracketKey {
	keys := make([]bracketKey, 0, len(sets))
	for k := range sets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.open != b.open {
			return a.open < b.open
		}
		if a.key.Var != b.key.Var {
			return a.key.Var < b.key.Var
		}
		return a.key.Iter < b.key.Iter
	})
	return keys
}

// fixInversions repairs synchronization brackets recorded out of order on
// their processor: an awaitE whose paired awaitB carries a later timestamp
// (or a lock-acq before its lock-req) has the two timestamps swapped,
// restoring the bracket order the analyses assume. Equal-time brackets are
// left alone regardless of their tie-break order.
func (r *repairer) fixInversions(w *Trace) {
	procs, lists := procLists(w)
	swapped := false
	for _, proc := range procs {
		sets := brackets(w, lists[proc])
		list := lists[proc]
		for _, bk := range sortedBracketKeys(sets) {
			s := sets[bk]
			n := len(s.opens)
			if len(s.closes) < n {
				n = len(s.closes)
			}
			for i := 0; i < n; i++ {
				o := &w.Events[list[s.opens[i]]]
				c := &w.Events[list[s.closes[i]]]
				if c.Time < o.Time {
					o.Time, c.Time = c.Time, o.Time
					r.note(Defect{Class: DefectReordered, Action: ActionRetimed,
						Proc: o.Proc, Key: bk.key,
						Detail: fmt.Sprintf("%v recorded before its %v", c.Kind, o.Kind)})
					swapped = true
				}
			}
		}
	}
	if swapped {
		w.Sort()
	}
}

// fixClockSkew estimates per-processor clock offsets from advance/await
// causality violations (an awaitE timestamped before the advance it
// consumed) and shifts the implicated processor. A processor is only
// shifted when at least two independent pairs implicate it — a single
// violation is clamped by clampCausality instead — and each processor is
// shifted at most once, which bounds the pass and makes it idempotent.
func (r *repairer) fixClockSkew(w *Trace) {
	shifted := make(map[int]bool)
	procs, _ := procLists(w)
	for round := 0; round < len(procs); round++ {
		adv := advanceIndex(w)
		// back[p]: largest violation whose advance is on p (p's clock
		// runs ahead; shift p back). fwd[p]: largest violation whose
		// awaitE is on p (p's clock runs behind; shift p forward).
		back := make(map[int]Time)
		fwd := make(map[int]Time)
		backN := make(map[int]int)
		fwdN := make(map[int]int)
		for _, e := range w.Events {
			if e.Kind != KindAwaitE {
				continue
			}
			ai := *adv.Slot(e.Pair()) - 1
			if ai < 0 {
				continue
			}
			a := w.Events[ai]
			if a.Proc == e.Proc || a.Time <= e.Time {
				continue
			}
			v := a.Time - e.Time
			if v > back[a.Proc] {
				back[a.Proc] = v
			}
			backN[a.Proc]++
			if v > fwd[e.Proc] {
				fwd[e.Proc] = v
			}
			fwdN[e.Proc]++
		}
		// Pick the strongest consistently-implicated processor,
		// preferring to shift the advancing side back (it keeps await
		// gaps, which the degraded analysis interprets as waiting).
		bestProc, bestShift, bestPairs := -1, Time(0), 0
		for _, p := range procs {
			if shifted[p] {
				continue
			}
			if backN[p] >= 2 && back[p] > bestShift {
				bestProc, bestShift, bestPairs = p, back[p], backN[p]
			}
		}
		if bestProc >= 0 {
			r.shiftProc(w, bestProc, -bestShift, bestPairs)
			shifted[bestProc] = true
			continue
		}
		for _, p := range procs {
			if shifted[p] {
				continue
			}
			if fwdN[p] >= 2 && fwd[p] > bestShift {
				bestProc, bestShift, bestPairs = p, fwd[p], fwdN[p]
			}
		}
		if bestProc < 0 {
			return
		}
		r.shiftProc(w, bestProc, bestShift, bestPairs)
		shifted[bestProc] = true
	}
}

func (r *repairer) shiftProc(w *Trace, proc int, delta Time, pairs int) {
	for i := range w.Events {
		if w.Events[i].Proc == proc {
			w.Events[i].Time += delta
		}
	}
	r.note(Defect{Class: DefectClockSkew, Action: ActionRetimed, Proc: proc,
		Detail: fmt.Sprintf("clock offset %dns estimated from %d causality violations", int64(-delta), pairs)})
	w.Sort()
}

// clampCausality removes residual causality violations: every awaitE with
// a paired advance is moved to no earlier than the advance. Advance times
// are never changed, so one pass suffices and the result is stable.
func (r *repairer) clampCausality(w *Trace) {
	adv := advanceIndex(w)
	clamped := false
	for i := range w.Events {
		e := &w.Events[i]
		if e.Kind != KindAwaitE {
			continue
		}
		ai := *adv.Slot(e.Pair()) - 1
		if ai < 0 {
			continue
		}
		a := w.Events[ai]
		if a.Proc == e.Proc || a.Time <= e.Time {
			continue
		}
		r.note(Defect{Class: DefectCausality, Action: ActionRetimed, Proc: e.Proc, Key: e.Pair(),
			Detail: fmt.Sprintf("awaitE at %d before its advance at %d", int64(e.Time), int64(a.Time))})
		e.Time = a.Time
		clamped = true
	}
	if clamped {
		w.Sort()
	}
}

// completeBrackets synthesizes the missing half of broken synchronization
// brackets: an awaitE without its awaitB gets an awaitB just before it, an
// awaitB never closed gets an awaitE just after it, and likewise for
// lock-req/lock-acq.
func (r *repairer) completeBrackets(w *Trace) {
	var synth []Event
	adv := advanceIndex(w)
	procs, lists := procLists(w)
	for _, proc := range procs {
		list := lists[proc]
		sets := brackets(w, list)
		for _, bk := range sortedBracketKeys(sets) {
			s := sets[bk]
			closeKind := KindAwaitE
			orphanClass, danglingClass := DefectOrphanAwaitE, DefectDanglingAwaitB
			if bk.open == KindLockReq {
				closeKind = KindLockAcq
				orphanClass, danglingClass = DefectOrphanLockAcq, DefectDanglingLockReq
			}
			n := len(s.opens)
			if len(s.closes) < n {
				n = len(s.closes)
			}
			// Closers beyond the matched prefix are orphans: synthesize
			// their opening bracket just before each.
			for _, pos := range s.closes[n:] {
				e := w.Events[list[pos]]
				synth = append(synth, r.synthBefore(w, list, pos, bk.open, e))
				r.note(Defect{Class: orphanClass, Action: ActionSynthesized,
					Proc: proc, Key: bk.key,
					Detail: fmt.Sprintf("%v synthesized for %v", bk.open, e)})
			}
			// Openers beyond the matched prefix are dangling: synthesize
			// the closing bracket just after each. A synthesized awaitE
			// must not precede its paired advance, or the next pass's
			// causality clamp would move it.
			for _, pos := range s.opens[n:] {
				e := w.Events[list[pos]]
				se := r.synthAfter(w, list, pos, closeKind, e)
				if closeKind == KindAwaitE {
					if ai := *adv.Slot(bk.key) - 1; ai >= 0 && w.Events[ai].Proc != se.Proc &&
						w.Events[ai].Time > se.Time {
						se.Time = w.Events[ai].Time
					}
				}
				synth = append(synth, se)
				r.note(Defect{Class: danglingClass, Action: ActionSynthesized,
					Proc: proc, Key: bk.key,
					Detail: fmt.Sprintf("%v synthesized for %v", closeKind, e)})
			}
		}
	}
	r.insert(w, synth)
}

// synthBefore builds the opening-bracket placeholder for the event at
// position pos of the processor's list: timestamped just after the
// previous same-processor event (the arrival approximation), capped at the
// orphan's own time.
func (r *repairer) synthBefore(w *Trace, list []int, pos int, kind Kind, e Event) Event {
	t := e.Time
	if pos > 0 {
		if pt := w.Events[list[pos-1]].Time + 1; pt < t {
			t = pt
		}
	}
	return Event{Time: t, Stmt: SynthStmt, Proc: e.Proc, Kind: kind, Iter: e.Iter, Var: e.Var}
}

// synthAfter builds the closing-bracket placeholder: timestamped just
// before the next same-processor event, floored at the opener's own time.
func (r *repairer) synthAfter(w *Trace, list []int, pos int, kind Kind, e Event) Event {
	t := e.Time
	if pos+1 < len(list) {
		if nt := w.Events[list[pos+1]].Time - 1; nt > t {
			t = nt
		}
	}
	return Event{Time: t, Stmt: SynthStmt, Proc: e.Proc, Kind: kind, Iter: e.Iter, Var: e.Var}
}

// completeBarriers makes every barrier's participant set consistent: a
// processor with a release but no arrival gets the arrival synthesized at
// its preceding event; a processor with an arrival but no release gets the
// release synthesized at the barrier's common release time; a processor
// that participated in the phase but has neither — the truncated-tail
// signature — gets both.
func (r *repairer) completeBarriers(w *Trace) {
	type barrier struct {
		key        PairKey
		arrive     map[int]bool
		release    map[int]bool
		maxRelease Time
		minArrive  Time
		haveTimes  bool
	}
	byKey := make(map[PairKey]*barrier)
	var order []*barrier
	for _, e := range w.Events {
		if e.Kind != KindBarrierArrive && e.Kind != KindBarrierRelease {
			continue
		}
		b := byKey[e.Pair()]
		if b == nil {
			b = &barrier{key: e.Pair(), arrive: map[int]bool{}, release: map[int]bool{}}
			byKey[e.Pair()] = b
			order = append(order, b)
		}
		if e.Kind == KindBarrierArrive {
			b.arrive[e.Proc] = true
			if !b.haveTimes || e.Time < b.minArrive {
				b.minArrive = e.Time
			}
		} else {
			b.release[e.Proc] = true
			if e.Time > b.maxRelease {
				b.maxRelease = e.Time
			}
		}
		b.haveTimes = true
	}

	var synth []Event
	procs, lists := procLists(w)
	// lastBefore returns the time of proc's latest event strictly before
	// limit, or -1 if none.
	lastBefore := func(proc int, limit Time) Time {
		last := Time(-1)
		for _, idx := range lists[proc] {
			if w.Events[idx].Time >= limit {
				break
			}
			last = w.Events[idx].Time
		}
		return last
	}
	sorted := func(m map[int]bool) []int {
		ps := make([]int, 0, len(m))
		for p := range m {
			ps = append(ps, p)
		}
		sort.Ints(ps)
		return ps
	}

	for _, b := range order {
		// Arrival missing on a processor that was released.
		for _, p := range sorted(b.release) {
			if !b.arrive[p] {
				t := b.maxRelease
				if lt := lastBefore(p, b.maxRelease); lt >= 0 && lt+1 < t {
					t = lt + 1
				}
				synth = append(synth, Event{Time: t, Stmt: SynthStmt, Proc: p,
					Kind: KindBarrierArrive, Iter: b.key.Iter, Var: b.key.Var})
				r.note(Defect{Class: DefectMissingArrival, Action: ActionSynthesized,
					Proc: p, Key: b.key, Detail: "barrier arrival synthesized"})
			}
		}
		// Release missing on a processor that arrived.
		if len(b.release) > 0 {
			for _, p := range sorted(b.arrive) {
				if !b.release[p] {
					synth = append(synth, Event{Time: b.maxRelease, Stmt: SynthStmt, Proc: p,
						Kind: KindBarrierRelease, Iter: b.key.Iter, Var: b.key.Var})
					r.note(Defect{Class: DefectMissingRelease, Action: ActionSynthesized,
						Proc: p, Key: b.key, Detail: "barrier release synthesized"})
				}
			}
		}
		// Truncated tails: a processor with phase work before the barrier
		// but no participation at all.
		if len(b.release) == 0 {
			continue
		}
		for _, p := range procs {
			if b.arrive[p] || b.release[p] {
				continue
			}
			if !r.workedBefore(w, lists[p], b.maxRelease) {
				continue
			}
			t := b.maxRelease
			if lt := lastBefore(p, b.maxRelease); lt >= 0 && lt+1 < t {
				t = lt + 1
			}
			synth = append(synth,
				Event{Time: t, Stmt: SynthStmt, Proc: p, Kind: KindBarrierArrive,
					Iter: b.key.Iter, Var: b.key.Var},
				Event{Time: b.maxRelease, Stmt: SynthStmt, Proc: p, Kind: KindBarrierRelease,
					Iter: b.key.Iter, Var: b.key.Var})
			r.note(Defect{Class: DefectTruncatedTail, Action: ActionSynthesized,
				Proc: p, Key: b.key,
				Detail: "processor stream ends before the barrier; participation synthesized"})
		}
	}
	r.insert(w, synth)
}

// workedBefore reports whether the processor has loop-body work (an event
// with an iteration number) before the given time — the evidence that it
// participated in the phase the barrier closes.
func (r *repairer) workedBefore(w *Trace, list []int, limit Time) bool {
	for _, idx := range list {
		e := w.Events[idx]
		if e.Time >= limit {
			return false
		}
		if e.Iter >= 0 && e.Kind != KindBarrierArrive && e.Kind != KindBarrierRelease {
			return true
		}
	}
	return false
}

// completeIterations detects computation probe records dropped from loop
// iterations and synthesizes them back. The analyses subtract one probe
// overhead per event present, so a dropped computation record silently
// leaves its overhead in the approximated timeline — unlike sync drops,
// nothing downstream can notice it.
//
// Detection is a roster vote: within one loop phase (segmented by the
// loop-begin markers), every iteration executes the same statement set, so
// a statement present in nearly all iterations but missing from a few
// marks those iterations as damaged. The vote is deliberately
// conservative — a statement must appear in at least minRosterIters
// iterations and be missing from at most a tenth of them — so
// heterogeneous or adversarial traces are left alone.
//
// The synthesized event carries the real statement id (the roster is then
// complete on a second pass, keeping repair idempotent) and is placed
// midway between its surviving in-iteration neighbours: the analyses'
// overhead subtraction telescopes across the split gap, so any placement
// that avoids the negative-gap clamp reconstructs the same total.
func (r *repairer) completeIterations(w *Trace) {
	const minRosterIters = 8

	// Segment boundaries: the loop phase markers, in time order.
	var bounds []Time
	for _, e := range w.Events {
		if e.Kind == KindLoopBegin {
			bounds = append(bounds, e.Time)
		}
	}
	segment := func(t Time) int {
		return sort.Search(len(bounds), func(i int) bool { return bounds[i] > t })
	}

	// Roster per (segment, iteration): which statements ran, and who owns
	// the iteration (the processor with the most computes there).
	type iterKey struct{ seg, iter int }
	type roster struct {
		stmts     map[int]bool
		procCount map[int]int
	}
	rosters := make(map[iterKey]*roster)
	segIters := make(map[int][]int) // distinct iterations per segment
	for _, e := range w.Events {
		if e.Kind != KindCompute || e.Iter < 0 || e.Stmt < 0 {
			continue
		}
		k := iterKey{segment(e.Time), e.Iter}
		ro := rosters[k]
		if ro == nil {
			ro = &roster{stmts: map[int]bool{}, procCount: map[int]int{}}
			rosters[k] = ro
			segIters[k.seg] = append(segIters[k.seg], k.iter)
		}
		ro.stmts[e.Stmt] = true
		ro.procCount[e.Proc]++
	}

	var segs []int
	for s := range segIters {
		segs = append(segs, s)
	}
	sort.Ints(segs)

	var synth []Event
	_, lists := procLists(w)
	for _, seg := range segs {
		iters := segIters[seg]
		if len(iters) < minRosterIters {
			continue
		}
		sort.Ints(iters)
		// Vote: statements present in at least 90% of the segment's
		// iterations belong to the roster.
		present := make(map[int]int)
		for _, it := range iters {
			for s := range rosters[iterKey{seg, it}].stmts {
				present[s]++
			}
		}
		var rosterStmts []int
		for s, n := range present {
			if missing := len(iters) - n; missing > 0 && missing*10 <= len(iters) {
				rosterStmts = append(rosterStmts, s)
			}
		}
		sort.Ints(rosterStmts)

		for _, s := range rosterStmts {
			for _, it := range iters {
				ro := rosters[iterKey{seg, it}]
				if ro.stmts[s] {
					continue
				}
				owner, best := -1, 0
				for p, n := range ro.procCount {
					if n > best || (n == best && (owner < 0 || p < owner)) {
						owner, best = p, n
					}
				}
				if owner < 0 {
					continue
				}
				if e, ok := r.placeDroppedProbe(w, lists[owner], seg, segment, it, s, owner); ok {
					synth = append(synth, e)
					r.note(Defect{Class: DefectDroppedProbe, Action: ActionSynthesized,
						Proc:   owner,
						Detail: fmt.Sprintf("computation probe stmt %d missing from iteration %d; record synthesized", s, it)})
				}
			}
		}
	}
	r.insert(w, synth)
}

// placeDroppedProbe picks a timestamp for the synthesized computation:
// midway through the processor's timeline gap immediately preceding the
// dropped statement's in-iteration successor (the next larger-statement
// compute or the advance). Statements execute in order within an
// iteration, so the dropped record sat directly before its successor in
// the processor's stream; splitting that specific gap telescopes through
// the analyses' overhead subtraction. Placing anywhere wider — say
// midway between the surviving in-iteration neighbours — can land the
// record inside an await's wait interval that separates them, which the
// analyses would misread as that much computation.
func (r *repairer) placeDroppedProbe(w *Trace, list []int, seg int, segment func(Time) int, iter, stmt, proc int) (Event, bool) {
	// The in-iteration successor: the earliest same-iteration event known
	// to execute after the dropped statement.
	hi, haveHi := Time(-1), false
	for _, idx := range list {
		e := w.Events[idx]
		if e.Iter != iter || segment(e.Time) != seg {
			continue
		}
		if (e.Kind == KindCompute && e.Stmt > stmt) || e.Kind == KindAdvance {
			if !haveHi || e.Time < hi {
				hi, haveHi = e.Time, true
			}
		}
	}
	if !haveHi {
		// No successor survived: fall back to just after the latest
		// same-iteration predecessor.
		lo, haveLo := Time(-1), false
		for _, idx := range list {
			e := w.Events[idx]
			if e.Iter != iter || segment(e.Time) != seg {
				continue
			}
			if (e.Kind == KindCompute && e.Stmt >= 0 && e.Stmt < stmt) || e.Kind == KindAwaitE {
				if !haveLo || e.Time > lo {
					lo, haveLo = e.Time, true
				}
			}
		}
		if !haveLo {
			return Event{}, false
		}
		return Event{Time: lo + 1, Stmt: stmt, Proc: proc, Kind: KindCompute, Iter: iter, Var: NoVar}, true
	}
	// The processor's latest event strictly before the successor bounds
	// the gap the dropped record lived in.
	lo, haveLo := Time(-1), false
	for _, idx := range list {
		e := w.Events[idx]
		if e.Time >= hi {
			break
		}
		lo, haveLo = e.Time, true
	}
	if !haveLo {
		lo = hi - 2
	}
	t := lo + (hi-lo)/2
	if t <= lo {
		t = lo + 1
	}
	return Event{Time: t, Stmt: stmt, Proc: proc, Kind: KindCompute, Iter: iter, Var: NoVar}, true
}

// advanceIndex maps each pairing key to the index in w of the first
// advance with that key, plus one: a key without an advance reads 0.
func advanceIndex(w *Trace) *PairTable[int] {
	adv := new(PairTable[int])
	for i, e := range w.Events {
		if e.Kind == KindAdvance {
			if c := adv.Slot(e.Pair()); *c == 0 {
				*c = i + 1
			}
		}
	}
	return adv
}

// flagUnmatchedAwaits classifies awaits whose advance is missing from the
// entire trace. Awaits of pre-advanced iterations (negative iteration
// numbers, the DOACROSS warm-up) legitimately have no advance event and
// are not defects.
func (r *repairer) flagUnmatchedAwaits(w *Trace) {
	adv := advanceIndex(w)
	seen := make(map[PairKey]bool)
	for _, e := range w.Events {
		if e.Kind != KindAwaitE || e.Iter < 0 {
			continue
		}
		if *adv.Slot(e.Pair()) != 0 {
			continue
		}
		if seen[e.Pair()] {
			continue
		}
		seen[e.Pair()] = true
		r.note(Defect{Class: DefectUnmatchedAwait, Action: ActionFlagged,
			Proc: e.Proc, Key: e.Pair(),
			Detail: fmt.Sprintf("no advance for %v anywhere in the trace", e)})
	}
}

// insert merges synthesized events into the trace and re-sorts. Each
// synthesized event is nudged until it differs from every existing event:
// an exact duplicate of a measured event would be removed by the next
// repair pass's dedup, breaking idempotence.
func (r *repairer) insert(w *Trace, synth []Event) {
	if len(synth) == 0 {
		return
	}
	seen := make(map[Event]bool, len(w.Events)+len(synth))
	for _, e := range w.Events {
		seen[e] = true
	}
	for _, e := range synth {
		for seen[e] {
			switch e.Kind {
			case KindAwaitB, KindLockReq, KindBarrierArrive:
				e.Time-- // opening side: move earlier
			default:
				e.Time++ // closing side: move later
			}
		}
		seen[e] = true
		w.Events = append(w.Events, e)
	}
	w.Sort()
}

// procLists returns the processors that actually have events, in
// ascending order, and each one's event indices in trace order. Repair
// scales with the events present, never with the trace's claimed
// processor count (a corrupt header can claim billions).
func procLists(w *Trace) ([]int, map[int][]int) {
	lists := make(map[int][]int)
	var procs []int
	for i, e := range w.Events {
		if _, ok := lists[e.Proc]; !ok {
			procs = append(procs, e.Proc)
		}
		lists[e.Proc] = append(lists[e.Proc], i)
	}
	sort.Ints(procs)
	return procs, lists
}
