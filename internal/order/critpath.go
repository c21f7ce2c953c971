package order

import (
	"fmt"

	"perturb/internal/trace"
)

// Path is a critical path through an execution: a chain of dependent
// events whose gaps sum to the span from the first event to the last.
type Path struct {
	// Steps are the path's events as indices into the trace's Events,
	// first to last. Step k > 0 took Events[Steps[k]].Time -
	// Events[Steps[k-1]].Time from its binding predecessor, step k-1,
	// and is a synchronization hop when the two events' processors
	// differ; the first step has no predecessor and a gap of 0.
	Steps []int32
	// SyncGap is the portion of the path spent on synchronization hops;
	// Total is the full path length (equal to the trace span up to the
	// earliest-event offset).
	SyncGap, Total trace.Time
	// ProcTime is time attributed to each processor's program-order hops.
	ProcTime []trace.Time
}

// CriticalPath extracts a critical path of the trace: starting from the
// latest event (the last in trace order among equals), it repeatedly
// follows the binding predecessor (see the package comment), the
// dependence that actually determined the event's time, until an event
// has none. The result explains what the execution's duration was spent
// on: per-processor computation and cross-processor synchronization. Its
// Steps are indices into t.Events, so the path costs 4 bytes per step.
//
// The walk is O(path) after the O(n) index build, which validates the
// trace (see Build). Binding predecessors can form a cycle in a valid
// trace only through equal times (two awaitEs, each released by an
// advance the other processor records at the same time); such a trace
// has no critical path, and the walk reports the first event it would
// revisit, with an error wrapping trace.ErrMalformedTrace.
//
// The trace must be in canonical sorted order with valid times (an actual
// or approximated trace; measured traces work too and include probe time).
func CriticalPath(t *trace.Trace) (*Path, error) {
	r, err := Build(t)
	if err != nil {
		return nil, err
	}
	p := &Path{ProcTime: make([]trace.Time, t.Procs)}
	ev := t.Events
	if len(ev) == 0 {
		return p, nil
	}
	end := 0
	for i, e := range ev {
		if e.Time >= ev[end].Time {
			end = i
		}
	}
	// One walk finds each binding predecessor. It never returns to an
	// event it has left (a revisit is the cycle error), and binding reads
	// only the index slots of the event it is given, so the walk records
	// each event's binding predecessor in its prev slot; Steps is then
	// allocated once, at its length, and filled from the record. One bit
	// per event marks the events walked.
	seen := make([]uint64, (len(ev)+63)/64)
	n := 0
	for cur := end; cur >= 0; n++ {
		if seen[cur/64]&(1<<(cur%64)) != 0 {
			return nil, fmt.Errorf("order: critical path revisits event %d (%v), a dependence cycle: %w",
				cur, ev[cur], trace.ErrMalformedTrace)
		}
		seen[cur/64] |= 1 << (cur % 64)
		best := r.binding(cur)
		r.prev[cur] = int32(best)
		cur = best
	}
	p.Steps = make([]int32, n)
	for cur := int32(end); ; {
		n--
		p.Steps[n] = cur
		best := r.prev[cur]
		if best < 0 {
			break
		}
		e := &ev[cur]
		gap := e.Time - ev[best].Time
		if ev[best].Proc != e.Proc {
			p.SyncGap += gap
		} else {
			p.ProcTime[e.Proc] += gap
		}
		p.Total += gap
		cur = best
	}
	return p, nil
}

// binding returns event v's binding predecessor, or -1 when v has no
// predecessor timed at or before it: the latest-timed one, then one on
// v's own processor, then the lowest index.
func (r *Relation) binding(v int) int {
	ev, own, at := r.tr.Events, r.tr.Events[v].Proc, r.tr.Events[v].Time
	prev, fork, dep, arrivals := r.preds(v)
	best := prev // timed no later than v: Build validates per-processor order
	for _, u := range [2]int32{fork, dep} {
		if u >= 0 && ev[u].Time <= at && (best < 0 || binds(ev, own, u, best)) {
			best = u
		}
	}
	for _, u := range arrivals {
		if ev[u].Time <= at && (best < 0 || binds(ev, own, u, best)) {
			best = u
		}
	}
	return int(best)
}

// binds reports whether event u binds an event on processor own more
// tightly than event best does: u is later, or as late and on own while
// best is not, or neither or both are on own and u comes first.
func binds(ev []trace.Event, own int, u, best int32) bool {
	a, b := &ev[u], &ev[best]
	return a.Time > b.Time || a.Time == b.Time &&
		(a.Proc == own && b.Proc != own || (a.Proc == own) == (b.Proc == own) && u < best)
}

// String summarizes the path.
func (p *Path) String() string {
	return fmt.Sprintf("critical path: %d steps, total %d ns, sync %d ns (%.1f%%)",
		len(p.Steps), int64(p.Total), int64(p.SyncGap),
		100*safeDiv(float64(p.SyncGap), float64(p.Total)))
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
