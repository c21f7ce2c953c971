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
// One pass over the trace validates it (see Build) and records each
// event's binding predecessor, 4 bytes per event, and the latest event;
// the walk back from there reads only those records. Binding predecessors
// can form a cycle in a valid trace only through equal times (two
// awaitEs, each released by an advance the other processor records at the
// same time); such a trace has no critical path, and the walk reports the
// first event it would revisit, wrapping trace.ErrMalformedTrace.
//
// The trace must be in canonical sorted order with valid times (an actual
// or approximated trace; measured traces work too and include probe time).
func CriticalPath(t *trace.Trace) (*Path, error) {
	x, err := newIndex(t)
	if err != nil {
		return nil, err
	}
	ev := t.Events
	bind := make([]int32, len(ev))
	end := int32(-1) // the latest event
	for i := range ev {
		prev, fork, dep, err := x.step(i)
		if err != nil {
			return nil, err
		}
		// prev is timed no later than i: the step validates per-processor order.
		bind[i] = tighter(ev, int32(i), tighter(ev, int32(i), prev, fork), dep)
		if end < 0 || ev[i].Time >= ev[end].Time {
			end = int32(i)
		}
	}
	for _, i := range x.late {
		bind[i] = tighter(ev, i, bind[i], x.firstAdvance(i))
	}
	off, flat := x.groups()
	for k := 0; k < len(x.releases); k += 2 {
		i, g := x.releases[k], x.releases[k+1]
		for _, u := range flat[off[g]:off[g+1]] {
			bind[i] = tighter(ev, i, bind[i], u)
		}
	}
	// The walk marks each event it passes with a bit and sums the path;
	// Steps is then allocated at its length and filled from bind alone.
	p := &Path{ProcTime: make([]trace.Time, t.Procs)}
	seen := make([]uint64, (len(ev)+63)/64)
	n := 0
	for cur := end; cur >= 0; cur = bind[cur] {
		if seen[cur/64]&(1<<(cur%64)) != 0 {
			return nil, fmt.Errorf("order: critical path revisits event %d (%v), a dependence cycle: %w",
				cur, ev[cur], trace.ErrMalformedTrace)
		}
		seen[cur/64] |= 1 << (cur % 64)
		n++
		if u := bind[cur]; u >= 0 {
			gap := ev[cur].Time - ev[u].Time
			if p.Total += gap; ev[u].Proc != ev[cur].Proc {
				p.SyncGap += gap
			} else {
				p.ProcTime[ev[cur].Proc] += gap
			}
		}
	}
	if n > 0 {
		p.Steps = make([]int32, n)
	}
	for cur := end; cur >= 0; cur = bind[cur] {
		n--
		p.Steps[n] = cur
	}
	return p, nil
}

// tighter returns whichever of best (timed no later than v, or -1) and
// predecessor u binds event v by the package comment's rule; u never
// binds when it is -1 or timed after v.
func tighter(ev []trace.Event, v, best, u int32) int32 {
	if u < 0 || ev[u].Time > ev[v].Time {
		return best
	}
	if best < 0 {
		return u
	}
	a, b, own := &ev[u], &ev[best], ev[v].Proc
	if a.Time > b.Time || a.Time == b.Time &&
		(a.Proc == own && b.Proc != own || (a.Proc == own) == (b.Proc == own) && u < best) {
		return u
	}
	return best
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
