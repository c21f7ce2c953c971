package trace

import (
	"errors"
	"fmt"
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
// order. The result has Procs entries; processors with no events get an
// empty (nil) slice. Events are shared with the receiver, not copied.
func (t *Trace) ByProc() [][]Event {
	per := make([][]Event, t.Procs)
	for _, e := range t.Events {
		if e.Proc >= 0 && e.Proc < t.Procs {
			per[e.Proc] = append(per[e.Proc], e)
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

// Merge combines several traces into one sorted trace. The processor count
// of the result is the maximum of the inputs'. The output buffer is sized
// exactly in one allocation; the inputs are never modified.
func Merge(traces ...*Trace) *Trace {
	procs, total := 0, 0
	for _, t := range traces {
		if t == nil {
			continue
		}
		if t.Procs > procs {
			procs = t.Procs
		}
		total += len(t.Events)
	}
	out := NewWithCap(procs, total)
	for _, t := range traces {
		if t == nil {
			continue
		}
		out.Events = append(out.Events, t.Events...)
	}
	out.Sort()
	return out
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
//   - every event's processor is within [0, Procs);
//   - every event kind is defined;
//   - per-processor timestamps are non-decreasing in trace order;
//   - synchronization events carry the pairing information the event-based
//     analysis needs (an iteration id, and for advance/await a variable id).
//
// It returns nil if the trace is well formed, or an error describing the
// first violation found (wrapping one of the Err* sentinel values).
func (t *Trace) Validate() error {
	v := NewEventValidator(t.Procs)
	for _, e := range t.Events {
		if err := v.Check(e); err != nil {
			return err
		}
	}
	return nil
}

// EventValidator checks the invariants of Trace.Validate incrementally,
// one event at a time in arrival order — the validation mode of the
// streaming analysis session, which sees events before any whole trace
// exists. Check reports violations with the same errors (and the same
// messages, indexed by arrival position) Validate would report for the
// same events as a trace.
type EventValidator struct {
	procs int // 0 = unbounded: processor ids only need to be non-negative
	n     int
	last  []Time
	seen  []bool
}

// NewEventValidator returns a validator for events on processors
// [0, procs). procs <= 0 leaves the processor range unbounded (any
// non-negative id), for streams whose processor count is discovered from
// the events themselves.
func NewEventValidator(procs int) *EventValidator {
	if procs < 0 {
		procs = 0
	}
	v := &EventValidator{procs: procs}
	if procs > 0 {
		v.last = make([]Time, procs)
		v.seen = make([]bool, procs)
	}
	return v
}

// Check validates the next event of the stream.
func (v *EventValidator) Check(e Event) error {
	i := v.n
	v.n++
	if e.Proc < 0 || (v.procs > 0 && e.Proc >= v.procs) {
		return fmt.Errorf("event %d (%v): %w", i, e, ErrBadProc)
	}
	if !e.Kind.Valid() {
		return fmt.Errorf("event %d (%v): %w", i, e, ErrBadKind)
	}
	// Await events record the paper's await(A, i) argument as Iter:
	// the iteration being waited for, which may be negative for the
	// first iterations of a distance-d DOACROSS loop (the advance
	// history is pre-advanced for iterations before the first).
	switch e.Kind {
	case KindAdvance, KindAwaitB, KindAwaitE, KindLockReq, KindLockAcq, KindLockRel:
		if e.Var == NoVar {
			return fmt.Errorf("event %d (%v): %w", i, e, ErrSyncNoVar)
		}
	}
	if e.Proc >= len(v.last) { // append grows geometrically: O(1) per new processor
		v.last = append(v.last, make([]Time, e.Proc+1-len(v.last))...)
		v.seen = append(v.seen, make([]bool, e.Proc+1-len(v.seen))...)
	}
	if v.seen[e.Proc] && e.Time < v.last[e.Proc] {
		return fmt.Errorf("event %d (%v) precedes time %d on proc %d: %w",
			i, e, int64(v.last[e.Proc]), e.Proc, ErrNonMonotonic)
	}
	v.last[e.Proc] = e.Time
	v.seen[e.Proc] = true
	return nil
}

// PairIndex maps every advance event's pairing key to its index in the
// trace, for use by analyses that must locate the advance matching an await.
// Duplicate advances for the same key keep the first occurrence.
func (t *Trace) PairIndex() map[PairKey]int {
	idx := make(map[PairKey]int)
	for i, e := range t.Events {
		if e.Kind == KindAdvance {
			k := e.Pair()
			if _, dup := idx[k]; !dup {
				idx[k] = i
			}
		}
	}
	return idx
}
