package core

import "perturb/internal/trace"

// Edges exposes the dependency graph the event-based engine resolves
// over, for consumers (trace slicing) that must follow exactly the edges
// the analysis will: per-event basis (same-processor predecessor or fork
// fence), the extra dependency index (paired advance for awaitE, previous
// holder's release for lock-acq, -1 when absent), and the barrier
// participation sets keyed by release event index. The slices are aligned
// with m.Events; m must be valid and is not modified.
//
// The pairing rules are the engine's: advance pairing is
// first-occurrence-wins per (variable, iteration) key, lock serialization
// follows the measured acquisition order, and barrier participants are
// grouped by pairing key.
func Edges(m *trace.Trace) (basis, dep []int, parts map[int][]int) {
	n := m.Len()
	basis, dep = make([]int, n), make([]int, n)
	advance := make(map[trace.PairKey]int)
	arrives := make(map[trace.PairKey][]int)
	lastRel := make(map[int]int)
	last := make([]int, m.Procs) // latest event per processor
	for p := range last {
		last[p] = -1
	}
	var fences, releases []int
	for i, e := range m.Events {
		// The basis is the same-processor predecessor, unless a fork
		// fence on another processor lies between the two in trace
		// order: then the latest such fence anchors the event.
		basis[i] = last[e.Proc]
		for k := len(fences) - 1; k >= 0 && fences[k] > last[e.Proc]; k-- {
			if f := fences[k]; m.Events[f].Proc != e.Proc {
				basis[i] = f
				break
			}
		}
		last[e.Proc] = i
		dep[i] = -1
		switch e.Kind {
		case trace.KindLoopBegin:
			fences = append(fences, i)
		case trace.KindAdvance:
			if _, dup := advance[e.Pair()]; !dup {
				advance[e.Pair()] = i
			}
		case trace.KindBarrierArrive:
			arrives[e.Pair()] = append(arrives[e.Pair()], i)
		case trace.KindLockAcq:
			if ri, ok := lastRel[e.Var]; ok {
				dep[i] = ri
			}
		case trace.KindLockRel:
			lastRel[e.Var] = i
		case trace.KindBarrierRelease:
			releases = append(releases, i)
		}
	}
	// An awaitE pairs with its key's first advance anywhere in the
	// trace, which may come after the await.
	for i, e := range m.Events {
		if e.Kind == trace.KindAwaitE {
			if ai, ok := advance[e.Pair()]; ok {
				dep[i] = ai
			}
		}
	}
	if len(releases) > 0 {
		parts = make(map[int][]int, len(releases))
		for _, i := range releases {
			parts[i] = arrives[m.Events[i].Pair()]
		}
	}
	return basis, dep, parts
}
