package order_test

import (
	"perturb/internal/order"
	"perturb/internal/trace"
)

// The reference implementations below are the ones the flat index
// replaced, kept as test oracles: the successor-list relation with its
// Check and critical path, and the engine-edge builder trace slicing used
// to read from package core. The successor lists hold the engine's fork
// and barrier edges, as refEdges builds them, except that a barrier
// release has no fork edge.

// refRelation is the happened-before relation as one successor list per
// event.
type refRelation struct {
	tr   *trace.Trace
	succ [][]int
}

func refBuild(t *trace.Trace) (*refRelation, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	r := &refRelation{tr: t, succ: make([][]int, t.Len())}
	addEdge := func(from, to int) {
		r.succ[from] = append(r.succ[from], to)
	}
	lastOnProc := make([]int, t.Procs)
	for p := range lastOnProc {
		lastOnProc[p] = -1
	}
	advIdx := make(map[trace.PairKey]int)    // first advance per key
	arrives := make(map[trace.PairKey][]int) // every arrival per key
	for i, e := range t.Events {
		if _, dup := advIdx[e.Pair()]; e.Kind == trace.KindAdvance && !dup {
			advIdx[e.Pair()] = i
		}
		if e.Kind == trace.KindBarrierArrive {
			arrives[e.Pair()] = append(arrives[e.Pair()], i)
		}
	}
	lastRel := make(map[int]int)
	var fences []int

	for i, e := range t.Events {
		prev := lastOnProc[e.Proc]
		if prev >= 0 {
			addEdge(prev, i)
		}
		// The latest fence between the event and its predecessor forks
		// it, unless it is a barrier release, which its arrivals time.
		for k := len(fences) - 1; k >= 0 && fences[k] > prev && e.Kind != trace.KindBarrierRelease; k-- {
			if f := fences[k]; t.Events[f].Proc != e.Proc {
				addEdge(f, i)
				break
			}
		}
		lastOnProc[e.Proc] = i
		switch e.Kind {
		case trace.KindLoopBegin:
			fences = append(fences, i)
		case trace.KindAwaitE:
			if ai, ok := advIdx[e.Pair()]; ok {
				addEdge(ai, i)
			}
		case trace.KindLockAcq:
			if ri, ok := lastRel[e.Var]; ok {
				addEdge(ri, i)
			}
		case trace.KindLockRel:
			lastRel[e.Var] = i
		case trace.KindBarrierRelease:
			for _, ai := range arrives[e.Pair()] {
				if ai != i {
					addEdge(ai, i)
				}
			}
		}
	}
	return r, nil
}

// check is the reference Check; candidate events are aligned with
// order.Align, which both implementations share.
func (r *refRelation) check(candidate *trace.Trace) error {
	match, err := order.Align(r.tr, candidate)
	if err != nil {
		return err
	}
	for from, succs := range r.succ {
		for _, to := range succs {
			tf := candidate.Events[match[from]].Time
			tt := candidate.Events[match[to]].Time
			if tf > tt {
				return order.Violation{From: candidate.Events[match[from]], To: candidate.Events[match[to]]}
			}
		}
	}
	return nil
}

// refCriticalPath is the reference critical path. It never returns on a
// dependence cycle, so it stops after as many steps as the trace has
// events and reports cyclic = true instead.
func refCriticalPath(t *trace.Trace) (p *order.Path, cyclic bool, err error) {
	rel, err := refBuild(t)
	if err != nil {
		return nil, false, err
	}
	n := t.Len()
	if n == 0 {
		return &order.Path{ProcTime: make([]trace.Time, t.Procs)}, false, nil
	}
	preds := make([][]int, n)
	for u, succs := range rel.succ {
		for _, v := range succs {
			preds[v] = append(preds[v], u)
		}
	}
	end := 0
	for i, e := range t.Events {
		if e.Time >= t.Events[end].Time {
			end = i
		}
	}
	p = &order.Path{ProcTime: make([]trace.Time, t.Procs)}
	cur := end
	for {
		if len(p.Steps) > n {
			return nil, true, nil
		}
		e := t.Events[cur]
		p.Steps = append(p.Steps, int32(cur))
		best := -1
		for _, u := range preds[cur] {
			ue := t.Events[u]
			if ue.Time > e.Time {
				continue // a violated edge never binds
			}
			if best < 0 {
				best = u
				continue
			}
			be := t.Events[best]
			if ue.Time > be.Time || (ue.Time == be.Time && ue.Proc == e.Proc && be.Proc != e.Proc) {
				best = u
			}
		}
		if best < 0 {
			break
		}
		gap := e.Time - t.Events[best].Time
		if t.Events[best].Proc != e.Proc {
			p.SyncGap += gap
		} else {
			p.ProcTime[e.Proc] += gap
		}
		p.Total += gap
		cur = best
	}
	for i, j := 0, len(p.Steps)-1; i < j; i, j = i+1, j-1 {
		p.Steps[i], p.Steps[j] = p.Steps[j], p.Steps[i]
	}
	return p, false, nil
}

// refEdges is the engine-view reference: per-event basis (same-processor
// predecessor or fork fence), dependency index (paired advance for
// awaitE, previous holder's release for lock-acq, -1 when absent), and
// the barrier participation sets keyed by release event index.
func refEdges(m *trace.Trace) (basis, dep []int, parts map[int][]int) {
	n := m.Len()
	basis, dep = make([]int, n), make([]int, n)
	advance := make(map[trace.PairKey]int)
	arrives := make(map[trace.PairKey][]int)
	lastRel := make(map[int]int)
	last := make([]int, m.Procs)
	for p := range last {
		last[p] = -1
	}
	var fences, releases []int
	for i, e := range m.Events {
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
