// Package order implements the happened-before partial order over trace
// events (Lamport) restricted to the dependence edges that synchronization
// operations create, a feasibility checker for approximated executions,
// and the critical path.
//
// The paper (§4.1) requires a conservative approximation to be a feasible
// execution: the total ordering of dependent events present in the measured
// execution must be maintained in the approximation.
//
// # The flat index
//
// Build makes one pass over the trace in trace order, validating each
// event as it indexes it, and stores, per event, two 32-bit indices:
//
//   - prev, the same-processor predecessor (-1 for a processor's first
//     event);
//   - dep, the cross-processor dependence: for an awaitE the first advance
//     of its pairing key anywhere in the trace, for a lock-acq the
//     previous release of its lock in trace order, for a barrier release
//     its barrier's arrival group; -1 otherwise.
//
// The loop-begin fences and the barrier arrivals sit in one CSR array
// (one flat array plus offsets): group 0 holds the fences, each further
// group the arrivals with one barrier pairing key, all in trace order.
// Advances are found through the event-based engine's pairing table
// (trace.PairTable): per-variable tables indexed by iteration, and a map
// for keys too sparse for a table.
//
// # Two views
//
// The index serves two rule sets, which differ on fences and barriers.
// The feasibility view (Check, CriticalPath) has these edges:
//
//   - program order: prev happens before the event;
//   - synchronization order: an advance happens before the awaitE it
//     releases;
//   - lock order: each lock release happens before the next acquisition
//     of the same lock;
//   - barrier order: every arrival happens before each release of the same
//     barrier pairing key that follows it in trace order;
//   - fork order: only the first loop-begin forks; it happens before the
//     first event of every other processor.
//
// The engine view (Basis, Dep, Arrivals; read by trace slicing) has the
// edges the event-based engine resolves over: an event's basis is the
// latest loop-begin between the event and its same-processor predecessor,
// else that predecessor; dep as above; and a barrier release depends on
// every arrival with its pairing key, before or after it.
//
// # The binding rule
//
// CriticalPath follows, from the latest event, each event's binding
// predecessor in the feasibility view: the predecessor with the latest
// time, then one on the event's own processor, then the lowest index.
// The path it returns holds the events it passes as 32-bit indices into
// the trace, like the index itself.
package order

import (
	"fmt"
	"math"
	"slices"

	"perturb/internal/trace"
)

// Relation is the happened-before relation of a trace, as the flat index
// the package comment describes.
type Relation struct {
	tr   *trace.Trace
	prev []int32
	dep  []int32
	// Group g's members are flat[off[g]:off[g+1]]; group 0 holds the
	// loop-begin fences, the others barrier arrivals.
	off  []int32
	flat []int32
	fork int // the first loop-begin, -1 for none
}

// Build constructs the happened-before relation for the trace in one pass
// over it, which also validates it: it returns the error Validate would,
// except that every processor must lie in [0, Procs), also when Procs is
// 0 (see trace.NewBoundedValidator). The trace is not modified.
func Build(t *trace.Trace) (*Relation, error) {
	n := t.Len()
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("order: %d events exceed the index's limit of %d", n, math.MaxInt32)
	}
	v, err := trace.NewBoundedValidator(t.Procs)
	if err != nil {
		return nil, err
	}
	r := &Relation{tr: t, prev: make([]int32, n), dep: make([]int32, n)}
	last := make([]int32, t.Procs)
	for p := range last {
		last[p] = -1
	}
	var (
		adv     trace.PairTable[int32] // first advance, plus one
		late    []int32                // awaitEs before their key's first advance
		lastRel = make(map[int]int32)
		groups  = make(map[trace.PairKey]int32) // barrier key -> group
		members []int32                         // pairs of (arrival, group)
		count   = []int32{0}                    // members per group
	)
	for i, e := range t.Events {
		if err := v.Check(e); err != nil {
			return nil, err
		}
		i32 := int32(i)
		r.prev[i], last[e.Proc] = last[e.Proc], i32
		r.dep[i] = -1
		switch e.Kind {
		case trace.KindLoopBegin:
			members = append(members, i32, 0)
			count[0]++
		case trace.KindAdvance:
			if c := adv.Slot(e.Pair()); *c == 0 {
				*c = i32 + 1
			}
		case trace.KindAwaitE:
			if r.dep[i] = *adv.Slot(e.Pair()) - 1; r.dep[i] < 0 {
				late = append(late, i32)
			}
		case trace.KindLockAcq:
			if ri, ok := lastRel[e.Var]; ok {
				r.dep[i] = ri
			}
		case trace.KindLockRel:
			lastRel[e.Var] = i32
		case trace.KindBarrierArrive, trace.KindBarrierRelease:
			g, ok := groups[e.Pair()]
			if !ok {
				g = int32(len(count))
				groups[e.Pair()] = g
				count = append(count, 0)
			}
			if e.Kind == trace.KindBarrierRelease {
				r.dep[i] = g
			} else {
				members = append(members, i32, g)
				count[g]++
			}
		}
	}
	for _, i := range late {
		r.dep[i] = *adv.Slot(t.Events[i].Pair()) - 1
	}
	// Lay the groups out by a counting sort; members arrive in trace order.
	r.off = make([]int32, len(count)+1)
	for g, c := range count {
		r.off[g+1] = r.off[g] + c
	}
	r.flat = make([]int32, len(members)/2)
	fill := slices.Clone(r.off[:len(count)])
	for k := 0; k < len(members); k += 2 {
		g := members[k+1]
		r.flat[fill[g]] = members[k]
		fill[g]++
	}
	r.fork = -1
	if r.off[1] > 0 {
		r.fork = int(r.flat[0])
	}
	return r, nil
}

// group returns group g's members.
func (r *Relation) group(g int32) []int32 { return r.flat[r.off[g]:r.off[g+1]] }

// Basis returns the event the engine anchors event i on: the latest
// loop-begin strictly between i and its same-processor predecessor in
// trace order (necessarily on another processor), else the predecessor,
// else -1 for a processor's first event with no such fence.
func (r *Relation) Basis(i int) int {
	fences := r.group(0)
	if k, _ := slices.BinarySearch(fences, int32(i)); k > 0 && fences[k-1] > r.prev[i] {
		return int(fences[k-1])
	}
	return int(r.prev[i])
}

// Dep returns event i's cross-processor dependence: the first advance of
// an awaitE's pairing key, or the previous release of a lock-acq's lock;
// -1 when there is none or i is of another kind.
func (r *Relation) Dep(i int) int {
	switch r.tr.Events[i].Kind {
	case trace.KindAwaitE, trace.KindLockAcq:
		return int(r.dep[i])
	}
	return -1
}

// Arrivals returns, for a barrier release, every arrival with its pairing
// key in trace order; nil for other events. The slice is shared with the
// relation and must not be modified.
func (r *Relation) Arrivals(i int) []int32 {
	if r.tr.Events[i].Kind != trace.KindBarrierRelease {
		return nil
	}
	return r.group(r.dep[i])
}

// preds returns event v's feasibility-view predecessors except the fork
// edge: its same-processor predecessor and its dependence, each -1 when
// there is none, and for a barrier release the arrivals before it in
// trace order, shared with the relation.
func (r *Relation) preds(v int) (prev, dep int32, arrivals []int32) {
	prev, dep = r.prev[v], -1
	switch r.tr.Events[v].Kind {
	case trace.KindAwaitE, trace.KindLockAcq:
		dep = r.dep[v]
	case trace.KindBarrierRelease:
		arrivals = r.group(r.dep[v])
		k, _ := slices.BinarySearch(arrivals, int32(v))
		arrivals = arrivals[:k]
	}
	return prev, dep, arrivals
}

// Violation describes a happened-before edge whose endpoint times are out
// of order.
type Violation struct {
	From, To trace.Event
}

func (v Violation) Error() string {
	return fmt.Sprintf("order: %v must happen before %v but is timed later", v.From, v.To)
}

// Check verifies that the times in the given trace respect this relation's
// feasibility view. The candidate trace must contain the same events
// (identified by (Proc, Stmt, Kind, Iter, Var) and per-processor order)
// as the trace the relation was built from; typically it is an
// approximation produced by package core from that measured trace. It
// returns the first violation found, or nil: the one whose earlier event
// comes first in trace order, then, among its edges, program,
// synchronization, lock and barrier edges by later event before the fork
// edges by processor.
//
// Events related by happened-before must satisfy time(from) <= time(to):
// perturbation analysis removes probe costs but never reorders dependent
// events, so a violation means the approximation is not a feasible
// execution.
func (r *Relation) Check(candidate *trace.Trace) error {
	match, err := alignEvents(r.tr, candidate)
	if err != nil {
		return err
	}
	ev := candidate.Events
	from, to := -1, -1
	note := func(u, v int) {
		if ev[match[u]].Time > ev[match[v]].Time && (from < 0 || u < from) {
			from, to = u, v
		}
	}
	first := make([]int, r.tr.Procs)
	for v := range r.prev {
		prev, dep, arrivals := r.preds(v)
		for _, u := range [2]int32{prev, dep} {
			if u >= 0 {
				note(int(u), v)
			}
		}
		for _, u := range arrivals {
			note(int(u), v)
		}
		if r.prev[v] < 0 {
			first[r.tr.Events[v].Proc] = v + 1
		}
	}
	for p, v := range first {
		if v > 0 && r.fork >= 0 && p != r.tr.Events[r.fork].Proc {
			note(r.fork, v-1)
		}
	}
	if from < 0 {
		return nil
	}
	return Violation{From: ev[match[from]], To: ev[match[to]]}
}

// Align maps event indices of base to indices of cand by identity, for
// callers comparing an approximated trace against ground truth event by
// event (for example metrics.TimingError).
func Align(base, cand *trace.Trace) ([]int, error) { return alignEvents(base, cand) }

// alignEvents maps event indices of base to indices of cand by matching,
// per processor, the k-th occurrence of each event identity
// (Stmt, Kind, Iter, Var). Identity matching rather than positional
// matching is required because the candidate's canonical sort may permute
// events that received equal approximated times on one processor.
func alignEvents(base, cand *trace.Trace) ([]int, error) {
	if base.Len() != cand.Len() {
		return nil, fmt.Errorf("order: traces have different sizes: %d vs %d", base.Len(), cand.Len())
	}
	type ident struct {
		proc, stmt int
		kind       trace.Kind
		iter, v    int
	}
	queues := make(map[ident][]int)
	for i, e := range cand.Events {
		k := ident{e.Proc, e.Stmt, e.Kind, e.Iter, e.Var}
		queues[k] = append(queues[k], i)
	}
	match := make([]int, base.Len())
	for i, e := range base.Events {
		k := ident{e.Proc, e.Stmt, e.Kind, e.Iter, e.Var}
		q := queues[k]
		if len(q) == 0 {
			return nil, fmt.Errorf("order: candidate lacks an event matching %v", e)
		}
		match[i] = q[0]
		queues[k] = q[1:]
	}
	return match, nil
}

// CheckSelf verifies that the trace's own times respect its happened-before
// relation: a well-formed measured or actual trace always passes.
func CheckSelf(t *trace.Trace) error {
	r, err := Build(t)
	if err != nil {
		return err
	}
	return r.Check(t)
}
