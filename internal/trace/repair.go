package trace

import (
	"cmp"
	"fmt"
	"iter"
	"maps"
	"slices"
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
//
// The passes read one index of each processor's events, int32 positions
// in the trace, which stays sorted between passes; it is built when a
// pass first needs it and dropped when a pass re-sorts. No rule reads an
// absolute time, so Repair commutes with a time shift: repairing a trace
// shifted by d gives its repair shifted by d, short of overflow.

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
	// lock-req, barrier release before its arrival), the signature of
	// in-buffer reordering. Repair swaps the two timestamps.
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
	r.run(t)
	r.rep.PerProc = make(map[int]int)
	for _, d := range r.rep.Defects {
		if d.Proc >= 0 {
			r.rep.PerProc[d.Proc]++
		}
	}
	return r.w, r.rep
}

// repairer holds the trace under repair, sorted between passes, and the
// index of each processor's events in it.
type repairer struct {
	rep *RepairReport
	w   *Trace
	// procs lists the processors that have events, ascending; no pass
	// changes the set. Processor procs[k]'s events are w.Events[i] for i
	// in at[off[k]:off[k+1]], in trace order. off is nil until a pass
	// needs the index, and sort drops it.
	procs   []int
	off, at []int32
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

// index builds the processor index unless it is current. It scales with
// the events present, never with the trace's claimed processor count (a
// corrupt header can claim billions).
func (r *repairer) index() {
	if r.off != nil {
		return
	}
	evs := r.w.Events
	r.off = make([]int32, len(r.procs)+1)
	for _, e := range evs {
		r.off[r.slot(e.Proc)+1]++
	}
	for k := range r.procs {
		r.off[k+1] += r.off[k]
	}
	r.at = slices.Grow(r.at[:0], len(evs))[:len(evs)]
	fill := slices.Clone(r.off)
	for i, e := range evs {
		k := r.slot(e.Proc)
		r.at[fill[k]], fill[k] = int32(i), fill[k]+1
	}
}

// slot returns the position in procs of processor p, which has events.
func (r *repairer) slot(p int) int {
	k, _ := slices.BinarySearch(r.procs, p)
	return k
}

// list returns the trace indices of processor procs[k]'s events.
func (r *repairer) list(k int) []int32 {
	r.index()
	return r.at[r.off[k]:r.off[k+1]]
}

// before returns the prefix of list whose events come before limit.
func (r *repairer) before(list []int32, limit Time) []int32 {
	return list[:sort.Search(len(list), func(i int) bool { return r.w.Events[list[i]].Time >= limit })]
}

// sort restores the trace order after a pass changed it; the index goes.
func (r *repairer) sort() {
	r.w.Sort()
	r.off = nil
}

func (r *repairer) run(t *Trace) {
	w := &Trace{Procs: t.Procs, Events: make([]Event, 0, len(t.Events))}
	r.procs = make([]int, 0, len(t.Events))
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
		r.procs = append(r.procs, e.Proc)
	}
	slices.Sort(r.procs)
	r.procs = slices.Compact(r.procs)
	r.w = w
	r.sort()

	// Every pass leaves the trace sorted.
	r.dedup()
	r.fixInversions()
	r.fixClockSkew()
	r.clampCausality()
	r.completeBrackets()
	r.completeBarriers()
	r.orderBarriers()
	r.completeIterations()
	r.flagUnmatchedAwaits()
}

// dedup removes exact duplicates, keeping the first occurrence. The trace
// is sorted, so duplicates share a (Time, Proc, Stmt) tie group.
func (r *repairer) dedup() {
	evs := r.w.Events
	out := evs[:0]
	for i := 0; i < len(evs); {
		j := i + 1
		for j < len(evs) && evs[j].Time == evs[i].Time &&
			evs[j].Proc == evs[i].Proc && evs[j].Stmt == evs[i].Stmt {
			j++
		}
		// Within the tie group, keep each distinct event once.
		var seen map[Event]bool
		if j-i > 1 {
			seen = make(map[Event]bool, j-i)
		}
		for _, e := range evs[i:j] {
			if seen[e] {
				r.note(Defect{Class: DefectDuplicate, Action: ActionDropped,
					Proc: e.Proc, Key: e.Pair(),
					Detail: fmt.Sprintf("duplicate of %v", e)})
				continue
			}
			if seen != nil {
				seen[e] = true
			}
			out = append(out, e)
		}
		i = j
	}
	r.w.Events = out
}

// bracketGroup is one processor's bracket events of one family and
// pairing key. opens and closes hold their positions in list, the
// processor's trace indices, each in trace order.
type bracketGroup struct {
	list          []int32
	open          Kind // the family's opening kind
	key           PairKey
	opens, closes []int32
}

// opener returns the opening kind of the bracket family k belongs to:
// awaitB, barrier-arrive or lock-req, each an even kind one below its
// closing kind; KindCompute if k is no bracket side.
func opener(k Kind) Kind {
	if k < KindAwaitB || k > KindLockAcq {
		return KindCompute
	}
	return k &^ 1
}

// brackets yields the await, lock and barrier bracket groups of each
// processor, processors ascending and each one's groups in (family, Var,
// Iter) order, so defect reports depend on the trace alone. A group's
// slices are valid until the next group is yielded.
func (r *repairer) brackets() iter.Seq[bracketGroup] {
	return func(yield func(bracketGroup) bool) {
		var pos []int32
		for k := range r.procs {
			list := r.list(k)
			ev := func(p int32) *Event { return &r.w.Events[list[p]] }
			pos = pos[:0]
			for p, i := range list {
				if opener(r.w.Events[i].Kind) != KindCompute {
					pos = append(pos, int32(p))
				}
			}
			slices.SortFunc(pos, func(a, b int32) int {
				x, y := ev(a), ev(b)
				if c := cmp.Compare(opener(x.Kind), opener(y.Kind)); c != 0 {
					return c
				}
				if c := cmp.Compare(x.Var, y.Var); c != 0 {
					return c
				}
				if c := cmp.Compare(x.Iter, y.Iter); c != 0 {
					return c
				}
				return cmp.Or(cmp.Compare(x.Kind, y.Kind), cmp.Compare(a, b)) // opens first
			})
			for s := 0; s < len(pos); {
				g := bracketGroup{list: list, open: opener(ev(pos[s]).Kind), key: ev(pos[s]).Pair()}
				m, e := s, s
				for ; e < len(pos) && opener(ev(pos[e]).Kind) == g.open && ev(pos[e]).Pair() == g.key; e++ {
					if ev(pos[e]).Kind == g.open {
						m = e + 1
					}
				}
				g.opens, g.closes = pos[s:m], pos[m:e]
				if !yield(g) {
					return
				}
				s = e
			}
		}
	}
}

// fixInversions repairs synchronization brackets recorded out of order on
// their processor: an awaitE whose paired awaitB carries a later timestamp
// (or a lock-acq before its lock-req, or a barrier release before its
// arrival) has the two timestamps swapped, restoring the bracket order the
// analyses assume. Equal-time brackets are left alone regardless of their
// tie-break order.
func (r *repairer) fixInversions() {
	swapped := false
	for g := range r.brackets() {
		for i := range min(len(g.opens), len(g.closes)) {
			o, c := &r.w.Events[g.list[g.opens[i]]], &r.w.Events[g.list[g.closes[i]]]
			if c.Time < o.Time {
				o.Time, c.Time = c.Time, o.Time
				r.note(Defect{Class: DefectReordered, Action: ActionRetimed,
					Proc: o.Proc, Key: g.key,
					Detail: fmt.Sprintf("%v recorded before its %v", c.Kind, o.Kind)})
				swapped = true
			}
		}
	}
	if swapped {
		r.sort()
	}
}

// skew gathers the causality violations that implicate one processor:
// how many, and the largest.
type skew struct {
	n   int
	max Time
}

// fixClockSkew estimates per-processor clock offsets from advance/await
// causality violations (an awaitE timestamped before the advance it
// consumed) and shifts the implicated processor. A processor is only
// shifted when at least two independent pairs implicate it — a single
// violation is clamped by clampCausality instead — and each processor is
// shifted at most once, which bounds the pass and makes it idempotent.
func (r *repairer) fixClockSkew() {
	shifted := make([]bool, len(r.procs))
rounds:
	for range r.procs {
		// by[0][k]: violations whose advance is on procs[k] (its clock
		// runs ahead; shift it back). by[1][k]: violations whose awaitE
		// is on procs[k] (its clock runs behind; shift it forward).
		by := [2][]skew{make([]skew, len(r.procs)), make([]skew, len(r.procs))}
		for e, a := range r.violations() {
			for side, p := range [2]int{a.Proc, e.Proc} {
				s := &by[side][r.slot(p)]
				s.n++
				s.max = max(s.max, a.Time-e.Time)
			}
		}
		// Shift the strongest consistently-implicated processor,
		// preferring to shift the advancing side back (it keeps await
		// gaps, which the degraded analysis interprets as waiting).
		for side, sign := range [2]Time{-1, 1} {
			best, top := -1, Time(0)
			for k, s := range by[side] {
				if !shifted[k] && s.n >= 2 && s.max > top {
					best, top = k, s.max
				}
			}
			if best >= 0 {
				r.shiftProc(best, sign*top, by[side][best].n)
				shifted[best] = true
				continue rounds
			}
		}
		return
	}
}

func (r *repairer) shiftProc(k int, delta Time, pairs int) {
	for _, i := range r.list(k) {
		r.w.Events[i].Time += delta
	}
	r.note(Defect{Class: DefectClockSkew, Action: ActionRetimed, Proc: r.procs[k],
		Detail: fmt.Sprintf("clock offset %dns estimated from %d causality violations", int64(-delta), pairs)})
	r.sort()
}

// violations yields each awaitE timed before the advance it consumed,
// the first with its pairing key, on another processor, and the advance.
func (r *repairer) violations() iter.Seq2[*Event, Event] {
	return func(yield func(*Event, Event) bool) {
		adv := advanceIndex(r.w)
		for i := range r.w.Events {
			if e := &r.w.Events[i]; e.Kind == KindAwaitE {
				if ai := *adv.Slot(e.Pair()) - 1; ai >= 0 {
					if a := r.w.Events[ai]; a.Proc != e.Proc && a.Time > e.Time && !yield(e, a) {
						return
					}
				}
			}
		}
	}
}

// clampCausality removes residual causality violations: every awaitE with
// a paired advance is moved to no earlier than the advance. Advance times
// are never changed, so one pass suffices and the result is stable.
func (r *repairer) clampCausality() {
	clamped := false
	for e, a := range r.violations() {
		r.note(Defect{Class: DefectCausality, Action: ActionRetimed, Proc: e.Proc, Key: e.Pair(),
			Detail: fmt.Sprintf("awaitE at %d before its advance at %d", int64(e.Time), int64(a.Time))})
		e.Time = a.Time
		clamped = true
	}
	if clamped {
		r.sort()
	}
}

// completeBrackets synthesizes the missing half of broken synchronization
// brackets: an awaitE without its awaitB gets an awaitB just before it, an
// awaitB never closed gets an awaitE just after it, and likewise for
// lock-req/lock-acq.
func (r *repairer) completeBrackets() {
	var synth []Event
	adv := advanceIndex(r.w)
	for g := range r.brackets() {
		if g.open == KindBarrierArrive {
			continue // completeBarriers completes barriers
		}
		closeKind := g.open + 1
		orphanClass, danglingClass := DefectOrphanAwaitE, DefectDanglingAwaitB
		if g.open == KindLockReq {
			orphanClass, danglingClass = DefectOrphanLockAcq, DefectDanglingLockReq
		}
		n := min(len(g.opens), len(g.closes))
		// Closers beyond the matched prefix are orphans: synthesize
		// their opening bracket just before each.
		for _, pos := range g.closes[n:] {
			e := r.w.Events[g.list[pos]]
			synth = append(synth, r.synthBefore(g.list, pos, g.open, e))
			r.note(Defect{Class: orphanClass, Action: ActionSynthesized,
				Proc: e.Proc, Key: g.key,
				Detail: fmt.Sprintf("%v synthesized for %v", g.open, e)})
		}
		// Openers beyond the matched prefix are dangling: synthesize
		// the closing bracket just after each. A synthesized awaitE
		// must not precede its paired advance, or the next pass's
		// causality clamp would move it.
		for _, pos := range g.opens[n:] {
			e := r.w.Events[g.list[pos]]
			se := r.synthAfter(g.list, pos, closeKind, e)
			if ai := *adv.Slot(g.key) - 1; closeKind == KindAwaitE && ai >= 0 && r.w.Events[ai].Proc != se.Proc {
				se.Time = max(se.Time, r.w.Events[ai].Time)
			}
			synth = append(synth, se)
			r.note(Defect{Class: danglingClass, Action: ActionSynthesized,
				Proc: e.Proc, Key: g.key,
				Detail: fmt.Sprintf("%v synthesized for %v", closeKind, e)})
		}
	}
	r.insert(synth)
}

// synthBefore builds the opening-bracket placeholder for the event at
// position pos of the processor's list: timestamped just after the
// previous same-processor event (the arrival approximation), capped at the
// orphan's own time.
func (r *repairer) synthBefore(list []int32, pos int32, kind Kind, e Event) Event {
	t := e.Time
	if pos > 0 {
		t = min(t, r.w.Events[list[pos-1]].Time+1)
	}
	return Event{Time: t, Stmt: SynthStmt, Proc: e.Proc, Kind: kind, Iter: e.Iter, Var: e.Var}
}

// synthAfter builds the closing-bracket placeholder: timestamped just
// before the next same-processor event, floored at the opener's own time.
func (r *repairer) synthAfter(list []int32, pos int32, kind Kind, e Event) Event {
	t := e.Time
	if int(pos)+1 < len(list) {
		t = max(t, r.w.Events[list[pos+1]].Time-1)
	}
	return Event{Time: t, Stmt: SynthStmt, Proc: e.Proc, Kind: kind, Iter: e.Iter, Var: e.Var}
}

// completeBarriers makes every barrier's participant set consistent: a
// processor with a release but no arrival gets the arrival synthesized at
// its preceding event; a processor with an arrival but no release gets the
// release synthesized at the barrier's common release time, never before
// its latest arrival; a processor that participated in the phase but has
// neither — the truncated-tail signature — gets both.
//
// Truncated tails assume phase barriers that every processor joins, and
// such a trace records an arrival and a release for each processor and
// barrier. So where barriers × processors exceeds twice the recorded
// events (those not synthesized), the trace is not of that shape, and no
// tail is synthesized: tails add at most 4 events per recorded event.
// Repair adds no recorded event, so repairing the output synthesizes no
// tail that the first repair left out.
func (r *repairer) completeBarriers() {
	type barrier struct {
		key                   PairKey
		arrive, release       map[int]bool
		maxRelease, maxArrive Time
	}
	var barriers []barrier
	var byKey PairTable[int] // a key's position in barriers, plus one
	recorded := 0
	for _, e := range r.w.Events {
		if e.Stmt != SynthStmt {
			recorded++
		}
		if e.Kind != KindBarrierArrive && e.Kind != KindBarrierRelease {
			continue
		}
		at := byKey.Slot(e.Pair())
		if *at == 0 { // the barrier's earliest event: no side is later
			barriers = append(barriers, barrier{key: e.Pair(), arrive: map[int]bool{}, release: map[int]bool{},
				maxArrive: e.Time, maxRelease: e.Time})
			*at = len(barriers)
		}
		b := &barriers[*at-1]
		if e.Kind == KindBarrierArrive {
			b.arrive[e.Proc] = true
			b.maxArrive = max(b.maxArrive, e.Time)
		} else {
			b.release[e.Proc] = true
			b.maxRelease = max(b.maxRelease, e.Time)
		}
	}

	// work[k] is the position in procs[k]'s list of its first loop-body
	// event (one with an iteration number, barrier sides aside): the
	// evidence that it took part in the phases closed after it.
	work := make([]int, len(r.procs))
	for k := range r.procs {
		list := r.list(k)
		work[k] = slices.IndexFunc(list, func(i int32) bool {
			e := &r.w.Events[i]
			return e.Iter >= 0 && e.Kind != KindBarrierArrive && e.Kind != KindBarrierRelease
		})
	}
	// arriveAt times a synthesized arrival on a processor before limit:
	// just after its latest event before, or at limit if it has none.
	arriveAt := func(prefix []int32, limit Time) Time {
		if n := len(prefix); n > 0 {
			return r.w.Events[prefix[n-1]].Time + 1
		}
		return limit
	}
	tails := len(barriers)*len(r.procs) <= 2*recorded
	var synth []Event
	for _, b := range barriers {
		// The barrier's common release time: its latest release, or just
		// after its latest arrival when every release was lost or came
		// before that arrival.
		release := b.maxRelease
		if len(b.release) == 0 || b.maxRelease < b.maxArrive {
			release = b.maxArrive + 1
		}
		// Arrival missing on a processor that was released.
		for _, p := range slices.Sorted(maps.Keys(b.release)) {
			if !b.arrive[p] {
				synth = append(synth, Event{Time: arriveAt(r.before(r.list(r.slot(p)), b.maxRelease), b.maxRelease),
					Stmt: SynthStmt, Proc: p, Kind: KindBarrierArrive, Iter: b.key.Iter, Var: b.key.Var})
				r.note(Defect{Class: DefectMissingArrival, Action: ActionSynthesized,
					Proc: p, Key: b.key, Detail: "barrier arrival synthesized"})
			}
		}
		// Release missing on a processor that arrived.
		for _, p := range slices.Sorted(maps.Keys(b.arrive)) {
			if !b.release[p] {
				synth = append(synth, Event{Time: release, Stmt: SynthStmt, Proc: p,
					Kind: KindBarrierRelease, Iter: b.key.Iter, Var: b.key.Var})
				r.note(Defect{Class: DefectMissingRelease, Action: ActionSynthesized,
					Proc: p, Key: b.key, Detail: "barrier release synthesized"})
			}
		}
		if !tails {
			continue
		}
		// Truncated tails: a processor with phase work before the barrier
		// but no participation at all.
		for k, p := range r.procs {
			if b.arrive[p] || b.release[p] {
				continue
			}
			prefix := r.before(r.list(k), release)
			if work[k] < 0 || work[k] >= len(prefix) {
				continue
			}
			synth = append(synth,
				Event{Time: arriveAt(prefix, release), Stmt: SynthStmt, Proc: p, Kind: KindBarrierArrive,
					Iter: b.key.Iter, Var: b.key.Var},
				Event{Time: release, Stmt: SynthStmt, Proc: p, Kind: KindBarrierRelease,
					Iter: b.key.Iter, Var: b.key.Var})
			r.note(Defect{Class: DefectTruncatedTail, Action: ActionSynthesized,
				Proc: p, Key: b.key,
				Detail: "processor stream ends before the barrier; participation synthesized"})
		}
	}
	r.insert(synth)
}

// orderBarriers leaves each processor one arrival, then one release, of
// each barrier, and its loop-end after the release: the engine times a
// release from the arrivals alone, so an event between them in program
// order could be timed after it. A reorder fault swaps the times of two
// adjacent records; each fix swaps two records' places back (records of
// equal time are left in Sort's order). An arrival after the last
// release, a duplicate the reorder hid from dedup, swaps with it; every
// arrival but the first and release but the last is then dropped as a
// duplicate; a loop-end between the two swaps with the release.
func (r *repairer) orderBarriers() {
	var drop []int32 // trace indices
	defects := len(r.rep.Defects)
	for g := range r.brackets() {
		if g.open != KindBarrierArrive || len(g.opens) == 0 || len(g.closes) == 0 {
			continue
		}
		arrivals, releases, list := g.opens, g.closes, g.list
		rel := &releases[len(releases)-1]
		if last := &arrivals[len(arrivals)-1]; *last > *rel && r.w.Events[list[*last]].Time > r.w.Events[list[*rel]].Time {
			r.swapPlaces(list[*rel], list[*last], g.key, "barrier release recorded before an arrival")
			*last, *rel = *rel, *last
			slices.Sort(arrivals)
		}
		for _, extra := range [2][]int32{arrivals[1:], releases[:len(releases)-1]} {
			for _, pos := range extra {
				e := r.w.Events[list[pos]]
				drop = append(drop, list[pos])
				r.note(Defect{Class: DefectDuplicate, Action: ActionDropped, Proc: e.Proc, Key: g.key,
					Detail: fmt.Sprintf("second %v of its barrier", e)})
			}
		}
		for pos := arrivals[0] + 1; pos < *rel; pos++ {
			if e := r.w.Events[list[pos]]; e.Kind == KindLoopEnd && e.Time < r.w.Events[list[*rel]].Time {
				r.swapPlaces(list[pos], list[*rel], g.key, "loop-end recorded before its barrier release")
				break
			}
		}
	}
	if len(r.rep.Defects) == defects { // nothing swapped or dropped
		return
	}
	slices.Sort(drop)
	out := r.w.Events[:0]
	for i, e := range r.w.Events {
		if len(drop) > 0 && int(drop[0]) == i {
			drop = drop[1:]
			continue
		}
		out = append(out, e)
	}
	r.w.Events = out
	r.sort()
}

// swapPlaces exchanges two same-processor events' places in the trace,
// each taking the other's time, and notes the reorder of barrier key it
// undoes.
func (r *repairer) swapPlaces(i, j int32, key PairKey, detail string) {
	a, b := &r.w.Events[i], &r.w.Events[j]
	a.Time, b.Time = b.Time, a.Time
	*a, *b = *b, *a
	r.note(Defect{Class: DefectReordered, Action: ActionRetimed, Proc: a.Proc, Key: key, Detail: detail})
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
func (r *repairer) completeIterations() {
	const minRosterIters = 8

	// Segment boundaries: the loop phase markers, in time order.
	var bounds []Time
	for _, e := range r.w.Events {
		if e.Kind == KindLoopBegin {
			bounds = append(bounds, e.Time)
		}
	}

	// Roster per (segment, iteration) with computes: its computes say
	// which statements ran and who owns the iteration (the processor
	// with the most computes there); they and its advances and awaitEs
	// bound where a dropped record sat.
	type roster struct {
		seg, iter int
		events    []int32 // trace indices: computes by statement, then the rest
		computes  int
	}
	var rosters []roster
	var at PairTable[int32] // a (segment, iteration)'s position in rosters, plus one
	evs := r.w.Events
	for i, e := range evs {
		if e.Iter < 0 || (e.Kind != KindCompute || e.Stmt < 0) && e.Kind != KindAdvance && e.Kind != KindAwaitE {
			continue
		}
		seg := sort.Search(len(bounds), func(j int) bool { return bounds[j] > e.Time })
		slot := at.Slot(PairKey{Var: seg, Iter: e.Iter})
		if *slot == 0 {
			rosters = append(rosters, roster{seg: seg, iter: e.Iter})
			*slot = int32(len(rosters))
		}
		ro := &rosters[*slot-1]
		ro.events = append(ro.events, int32(i))
	}
	for k := range rosters {
		ro := &rosters[k]
		slices.SortFunc(ro.events, func(a, b int32) int { // KindCompute sorts first
			return cmp.Or(cmp.Compare(evs[a].Kind, evs[b].Kind), cmp.Compare(evs[a].Stmt, evs[b].Stmt))
		})
		ro.computes = sort.Search(len(ro.events), func(j int) bool { return evs[ro.events[j]].Kind != KindCompute })
	}
	rosters = slices.DeleteFunc(rosters, func(ro roster) bool { return ro.computes == 0 })
	slices.SortFunc(rosters, func(a, b roster) int {
		return cmp.Or(cmp.Compare(a.seg, b.seg), cmp.Compare(a.iter, b.iter))
	})
	byStmt := func(i int32, s int) int { return cmp.Compare(evs[i].Stmt, s) }

	var synth []Event
	for len(rosters) > 0 {
		n := 1
		for n < len(rosters) && rosters[n].seg == rosters[0].seg {
			n++
		}
		iters := rosters[:n]
		rosters = rosters[n:]
		if len(iters) < minRosterIters {
			continue
		}
		// Vote: statements present in at least 90% of the segment's
		// iterations belong to the roster.
		present := make(map[int]int)
		for _, ro := range iters {
			for j, i := range ro.events[:ro.computes] {
				if j == 0 || evs[i].Stmt != evs[ro.events[j-1]].Stmt {
					present[evs[i].Stmt]++
				}
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
			for k := range iters {
				ro := &iters[k]
				if _, ran := slices.BinarySearchFunc(ro.events[:ro.computes], s, byStmt); ran {
					continue
				}
				count := make(map[int]int) // computes per processor
				for _, i := range ro.events[:ro.computes] {
					count[evs[i].Proc]++
				}
				owner, best := -1, 0
				for p, n := range count {
					if n > best || n == best && p < owner {
						owner, best = p, n
					}
				}
				if e, ok := r.placeDroppedProbe(ro.events, ro.iter, s, owner); ok {
					synth = append(synth, e)
					r.note(Defect{Class: DefectDroppedProbe, Action: ActionSynthesized,
						Proc:   owner,
						Detail: fmt.Sprintf("computation probe stmt %d missing from iteration %d; record synthesized", s, ro.iter)})
				}
			}
		}
	}
	r.insert(synth)
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
// analyses would misread as that much computation. iterEvents are the
// iteration's computes, advances and awaitEs.
func (r *repairer) placeDroppedProbe(iterEvents []int32, iter, stmt, proc int) (Event, bool) {
	// The in-iteration successor is the earliest same-iteration event
	// known to execute after the dropped statement; the latest one known
	// to execute before it is the fallback when no successor survived.
	var hi, lo Time
	haveHi, haveLo := false, false
	for _, i := range iterEvents {
		e := r.w.Events[i]
		if e.Proc != proc {
			continue
		}
		if (e.Kind == KindCompute && e.Stmt > stmt) || e.Kind == KindAdvance {
			if !haveHi || e.Time < hi {
				hi, haveHi = e.Time, true
			}
		}
		if (e.Kind == KindCompute && e.Stmt < stmt) || e.Kind == KindAwaitE {
			if !haveLo || e.Time > lo {
				lo, haveLo = e.Time, true
			}
		}
	}
	if !haveHi {
		if !haveLo {
			return Event{}, false
		}
		return Event{Time: lo + 1, Stmt: stmt, Proc: proc, Kind: KindCompute, Iter: iter, Var: NoVar}, true
	}
	// The processor's latest event strictly before the successor bounds
	// the gap the dropped record lived in.
	lo = hi - 2
	if before := r.before(r.list(r.slot(proc)), hi); len(before) > 0 {
		lo = r.w.Events[before[len(before)-1]].Time
	}
	return Event{Time: max(lo+(hi-lo)/2, lo+1), Stmt: stmt, Proc: proc, Kind: KindCompute, Iter: iter, Var: NoVar}, true
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
func (r *repairer) flagUnmatchedAwaits() {
	adv := advanceIndex(r.w)
	for _, e := range r.w.Events {
		if e.Kind != KindAwaitE || e.Iter < 0 {
			continue
		}
		// A key without an advance is flagged once; its slot then reads -1.
		if a := adv.Slot(e.Pair()); *a == 0 {
			*a = -1
			r.note(Defect{Class: DefectUnmatchedAwait, Action: ActionFlagged,
				Proc: e.Proc, Key: e.Pair(),
				Detail: fmt.Sprintf("no advance for %v anywhere in the trace", e)})
		}
	}
}

// insert merges synthesized events into the trace and re-sorts. Each
// synthesized event is nudged until it differs from every existing event:
// an exact duplicate of a measured event would be removed by the next
// repair pass's dedup, breaking idempotence. A nudge changes only Time,
// so only events equal to a synthesized one in every other field can
// block it; the set holds just those.
func (r *repairer) insert(synth []Event) {
	if len(synth) == 0 {
		return
	}
	timeless := func(e Event) Event {
		e.Time = 0
		return e
	}
	var kinds uint16
	shapes := make(map[Event]bool, len(synth))
	for _, e := range synth {
		kinds |= 1 << e.Kind
		shapes[timeless(e)] = true
	}
	seen := make(map[Event]bool, len(synth))
	for _, e := range r.w.Events {
		if kinds>>e.Kind&1 != 0 && shapes[timeless(e)] {
			seen[e] = true
		}
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
		r.w.Events = append(r.w.Events, e)
	}
	r.sort()
}
