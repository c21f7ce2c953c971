package trace

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Trace is a sequence of events together with the number of processors that
// participated in the execution. The canonical representation is sorted by
// (Time, Proc, Stmt); producers that emit events per processor should call
// Sort (or Normalize) before handing the trace to analysis.
type Trace struct {
	Procs  int
	Events []Event
}

// New returns an empty trace for the given processor count.
func New(procs int) *Trace {
	return &Trace{Procs: procs}
}

// NewWithCap returns an empty trace for the given processor count whose
// event buffer is preallocated to hold capacity events. Producers that know
// (or can bound) their event count ahead of time should use it so hot
// append loops never reallocate.
func NewWithCap(procs, capacity int) *Trace {
	if capacity < 0 {
		capacity = 0
	}
	return &Trace{Procs: procs, Events: make([]Event, 0, capacity)}
}

// Grow ensures space for at least n additional events without another
// allocation, like the append-doubling escape hatch of bytes.Buffer.Grow.
func (t *Trace) Grow(n int) {
	if n <= 0 || len(t.Events)+n <= cap(t.Events) {
		return
	}
	grown := make([]Event, len(t.Events), len(t.Events)+n)
	copy(grown, t.Events)
	t.Events = grown
}

// Append adds an event to the trace.
func (t *Trace) Append(e Event) { t.Events = append(t.Events, e) }

// Len returns the number of events.
func (t *Trace) Len() int { return len(t.Events) }

// Clone returns a deep copy of the trace.
func (t *Trace) Clone() *Trace {
	c := &Trace{Procs: t.Procs, Events: make([]Event, len(t.Events))}
	copy(c.Events, t.Events)
	return c
}

// Sort orders the events by time, breaking ties by processor and then by
// statement id so that traces have a canonical total order (the paper's
// "total ordering of measured events consistent with the happened-before
// relation"). The sort is stable.
func (t *Trace) Sort() {
	sort.SliceStable(t.Events, func(i, j int) bool {
		a, b := t.Events[i], t.Events[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		return a.Stmt < b.Stmt
	})
}

// Normalize sorts the trace and recomputes Procs as one past the largest
// processor id seen, if events name a processor outside [0, Procs).
func (t *Trace) Normalize() {
	t.Sort()
	for _, e := range t.Events {
		if e.Proc >= t.Procs {
			t.Procs = e.Proc + 1
		}
	}
}

// Start returns the earliest event time, or zero for an empty trace.
func (t *Trace) Start() Time {
	if len(t.Events) == 0 {
		return 0
	}
	min := t.Events[0].Time
	for _, e := range t.Events[1:] {
		if e.Time < min {
			min = e.Time
		}
	}
	return min
}

// End returns the latest event time, or zero for an empty trace.
func (t *Trace) End() Time {
	if len(t.Events) == 0 {
		return 0
	}
	max := t.Events[0].Time
	for _, e := range t.Events[1:] {
		if e.Time > max {
			max = e.Time
		}
	}
	return max
}

// Duration returns End() - Start(): the execution time spanned by the trace.
func (t *Trace) Duration() Time { return t.End() - t.Start() }

// ByProc splits the trace into per-processor event sequences, each in trace
// order. The result has Procs entries (none when Procs is negative, a
// trace Validate refuses); processors with no events get a nil slice, and
// events naming a processor outside [0, Procs) are dropped. The
// events are copied, once, into one backing array shared by the
// sequences; each sequence is capped at its own length, so appending to one
// never overwrites another.
func (t *Trace) ByProc() [][]Event {
	end := make([]int, max(t.Procs, 0)) // counts, then each sequence's fill position
	for _, e := range t.Events {
		if e.Proc >= 0 && e.Proc < len(end) {
			end[e.Proc]++
		}
	}
	total := 0
	for p, c := range end {
		total += c
		end[p] = total - c
	}
	all := make([]Event, total)
	start := append([]int(nil), end...)
	for _, e := range t.Events {
		if e.Proc >= 0 && e.Proc < len(end) {
			all[end[e.Proc]] = e
			end[e.Proc]++
		}
	}
	per := make([][]Event, len(end))
	for p, a := range start {
		if b := end[p]; b > a {
			per[p] = all[a:b:b]
		}
	}
	return per
}

// Filter returns a new trace containing only events for which keep returns
// true, preserving order.
func (t *Trace) Filter(keep func(Event) bool) *Trace {
	out := New(t.Procs)
	for _, e := range t.Events {
		if keep(e) {
			out.Append(e)
		}
	}
	return out
}

// CountKind returns the number of events of the given kind.
func (t *Trace) CountKind(k Kind) int {
	n := 0
	for _, e := range t.Events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// Typed trace errors. ErrMalformedTrace is the umbrella sentinel: every
// structural defect reported by Validate, the codecs and the sanitizer
// wraps it, so callers can gate on errors.Is(err, ErrMalformedTrace)
// without enumerating the specific defect classes.
var (
	// ErrMalformedTrace reports that a trace violates a structural
	// invariant (bad processor, bad kind, unordered times, missing sync
	// metadata) or that an encoding could not be decoded.
	ErrMalformedTrace = errors.New("trace: malformed trace")
	// ErrUnmatchedSync reports a synchronization event whose partner is
	// absent: an await with no paired advance, a bracket event (awaitB/
	// awaitE, lock-req/lock-acq) missing its other half, or a barrier
	// side missing for a participating processor.
	ErrUnmatchedSync = errors.New("trace: unmatched synchronization event")
	// ErrTruncatedTrace reports that a processor's event stream ends
	// before the execution it participates in does — the buffer-overrun
	// failure mode of production tracers.
	ErrTruncatedTrace = errors.New("trace: truncated processor event stream")
)

// Validation errors returned by Validate. Each wraps ErrMalformedTrace.
var (
	ErrNonMonotonic = fmt.Errorf("%w: per-processor event times are not non-decreasing", ErrMalformedTrace)
	ErrBadProc      = fmt.Errorf("%w: event names a processor outside [0, Procs)", ErrMalformedTrace)
	ErrBadKind      = fmt.Errorf("%w: event has an undefined kind", ErrMalformedTrace)
	ErrSyncNoVar    = fmt.Errorf("%w: advance/await event lacks a synchronization variable", ErrMalformedTrace)
)

// Validate checks structural trace invariants:
//
//   - Procs is not negative;
//   - every event's processor is within [0, Procs), or, when Procs is 0,
//     non-negative: a trace without a processor count leaves it to be
//     discovered from the events, as the event-based analysis does (the
//     statistics that size per-processor tables by Procs reject such
//     events; see NewBoundedValidator);
//   - every event kind is defined;
//   - per-processor timestamps are non-decreasing in trace order;
//   - synchronization events carry the pairing information the event-based
//     analysis needs (an iteration id, and for advance/await a variable id).
//
// It returns nil if the trace is well formed, or an error describing the
// first violation found (wrapping one of the Err* sentinel values).
func (t *Trace) Validate() error {
	v, err := NewEventValidator(t.Procs)
	if err != nil {
		return err
	}
	for _, e := range t.Events {
		if err := v.Check(e); err != nil {
			return err
		}
	}
	return nil
}

// EventValidator checks the invariants of Trace.Validate incrementally,
// one event at a time in arrival order. The streaming analysis session
// validates with it, since it sees events before any whole trace exists,
// and so does each whole-trace statistic, in the pass that reads the
// events. Check reports violations with the same errors (and the same
// messages, indexed by arrival position) Validate would report for the
// same events as a trace.
type EventValidator struct {
	n int
	// last holds each processor's latest time, math.MinInt64 before its
	// first event. Its length bounds the processor ids unless grow is set.
	last []Time
	grow bool // processors are discovered: any non-negative id is admitted
}

// NewEventValidator returns a validator for events on processors
// [0, procs). procs == 0 leaves the processor range unbounded (any
// non-negative id), for streams whose processor count is discovered from
// the events themselves. A negative procs is refused as
// NewBoundedValidator refuses it.
func NewEventValidator(procs int) (*EventValidator, error) {
	if procs == 0 {
		return &EventValidator{grow: true}, nil
	}
	return NewBoundedValidator(procs)
}

// NewBoundedValidator returns a validator for events on processors
// [0, procs) that never discovers processors: with procs == 0 it admits
// no event. Analyses that size per-processor tables by a trace's Procs
// validate with it, so an event beyond their tables fails with ErrBadProc;
// they create it before sizing anything by Procs, since a negative procs
// is refused here, with an error wrapping ErrMalformedTrace.
func NewBoundedValidator(procs int) (*EventValidator, error) {
	if procs < 0 {
		return nil, fmt.Errorf("%w: negative processor count %d", ErrMalformedTrace, procs)
	}
	v := &EventValidator{last: make([]Time, procs)}
	for p := range v.last {
		v.last[p] = math.MinInt64
	}
	return v, nil
}

// syncVarKinds has bit k set for each kind k whose events must carry a
// synchronization variable.
const syncVarKinds uint16 = 1<<KindAdvance | 1<<KindAwaitB | 1<<KindAwaitE |
	1<<KindLockReq | 1<<KindLockAcq | 1<<KindLockRel

// Check validates the next event of the stream. An event on a known
// processor, of a defined kind, with a variable where its kind needs one
// and no earlier than its processor's last event passes in one chain of
// comparisons; every other event takes check.
func (v *EventValidator) Check(e Event) error {
	if p := uint(e.Proc); p < uint(len(v.last)) && e.Kind < numKinds &&
		(e.Var != NoVar || syncVarKinds>>e.Kind&1 == 0) && e.Time >= v.last[p] {
		v.last[p] = e.Time
		v.n++
		return nil
	}
	return v.check(e)
}

// check is Check for an event off its fast path: it reports the event's
// first violation in Validate's order, or admits a discovered processor.
func (v *EventValidator) check(e Event) error {
	i := v.n
	v.n++
	if e.Proc < 0 || !v.grow && e.Proc >= len(v.last) {
		return fmt.Errorf("event %d (%v): %w", i, e, ErrBadProc)
	}
	if !e.Kind.Valid() {
		return fmt.Errorf("event %d (%v): %w", i, e, ErrBadKind)
	}
	// Await events record the paper's await(A, i) argument as Iter:
	// the iteration being waited for, which may be negative for the
	// first iterations of a distance-d DOACROSS loop (the advance
	// history is pre-advanced for iterations before the first).
	if e.Var == NoVar && syncVarKinds>>e.Kind&1 != 0 {
		return fmt.Errorf("event %d (%v): %w", i, e, ErrSyncNoVar)
	}
	for len(v.last) <= e.Proc { // append grows geometrically: O(1) per new processor
		v.last = append(v.last, math.MinInt64)
	}
	if e.Time < v.last[e.Proc] {
		return fmt.Errorf("event %d (%v) precedes time %d on proc %d: %w",
			i, e, int64(v.last[e.Proc]), e.Proc, ErrNonMonotonic)
	}
	v.last[e.Proc] = e.Time
	return nil
}
