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
// Build and CriticalPath read the trace once, in trace order, through one
// per-event step that validates each event and finds its edges among the
// events read so far. Build stores, per event, two 32-bit indices:
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
// # One edge set
//
// The relation has the edges the event-based engine resolves over, and
// Check, CriticalPath and trace slicing all read them:
//
//   - program order: prev happens before the event (Prev), and the
//     engine keeps every event no earlier than prev, also where its basis
//     is a fork fence;
//   - fork order: the latest loop-begin strictly between the event and
//     prev in trace order (necessarily on another processor) happens
//     before it; Basis returns that fence, else prev. A barrier release
//     has no fork edge: the engine times it by its arrivals alone, and in
//     an approximation the next phase's loop-begin can tie with the
//     releases and sort before them (Basis still returns that fence, from
//     which the engine measures the release's wait, and slicing follows
//     it);
//   - synchronization order: an advance happens before the awaitE it
//     releases (Dep);
//   - lock order: each lock release happens before the next acquisition
//     of the same lock (Dep);
//   - barrier order: every arrival with a release's barrier pairing key,
//     before or after it in trace order, happens before the release
//     (Arrivals).
//
// # The binding rule
//
// CriticalPath follows, from the latest event, each event's binding
// predecessor: among its predecessors timed no later than the event, the
// one with the latest time, then one on the event's own processor, then
// the lowest index. A predecessor timed after the event is a violation,
// which Check reports, and never binds. The step that indexes an event
// binds it, except an awaitE read before its key's first advance and a
// barrier release: a predecessor of theirs may follow them in trace order
// at an equal time, so they are bound after the pass.
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
	off       []int32
	flat      []int32
	lastFence int32 // the last loop-begin, -1 for none
}

// Build constructs the happened-before relation for the trace in one pass
// over it, which also validates it: it returns the error Validate would,
// except that every processor must lie in [0, Procs), also when Procs is
// 0 (see trace.NewBoundedValidator). The trace is not modified.
func Build(t *trace.Trace) (*Relation, error) {
	x, err := newIndex(t)
	if err != nil {
		return nil, err
	}
	r := &Relation{tr: t, prev: make([]int32, t.Len()), dep: make([]int32, t.Len())}
	for i := range t.Events {
		if r.prev[i], _, r.dep[i], err = x.step(i); err != nil {
			return nil, err
		}
	}
	for _, i := range x.late {
		r.dep[i] = x.firstAdvance(i)
	}
	for k := 0; k < len(x.releases); k += 2 {
		r.dep[x.releases[k]] = x.releases[k+1]
	}
	r.off, r.flat = x.groups()
	r.lastFence = x.lastFence
	return r, nil
}

// index is the per-event step Build and CriticalPath share: it validates
// the trace in trace order and finds each event's edges among the events
// read so far.
type index struct {
	ev        []trace.Event
	v         *trace.EventValidator
	last      []int32                 // each processor's last event, plus one
	lastFence int32                   // the last loop-begin, -1 for none
	adv       trace.PairTable[int32]  // first advance, plus one
	late      []int32                 // awaitEs before their key's first advance
	lastRel   map[int]int32           // each lock's last release, plus one
	byKey     map[trace.PairKey]int32 // barrier key -> group
	members   []int32                 // pairs of (arrival, group)
	releases  []int32                 // pairs of (barrier release, group)
	count     []int32                 // members per group
}

func newIndex(t *trace.Trace) (*index, error) {
	if n := t.Len(); n > math.MaxInt32 {
		return nil, fmt.Errorf("order: %d events exceed the index's limit of %d", n, math.MaxInt32)
	}
	v, err := trace.NewBoundedValidator(t.Procs)
	if err != nil {
		return nil, err
	}
	return &index{ev: t.Events, v: v, last: make([]int32, t.Procs), lastFence: -1,
		lastRel: make(map[int]int32), byKey: make(map[trace.PairKey]int32), count: []int32{0}}, nil
}

// step validates event i, the next in trace order, and returns its prev,
// fork edge (forkOf) and dependence: an awaitE's first advance (-1 while
// none has been read; it joins late), a lock-acq's previous release, else
// -1. A barrier release joins releases with its group.
func (x *index) step(i int) (prev, fork, dep int32, err error) {
	e := &x.ev[i]
	if err := x.v.Check(*e); err != nil {
		return 0, 0, 0, err
	}
	i32 := int32(i)
	prev, x.last[e.Proc] = x.last[e.Proc]-1, i32+1
	fork, dep = forkOf(x.lastFence, prev, e.Kind), -1
	switch e.Kind {
	case trace.KindLoopBegin:
		x.lastFence = i32
		x.members = append(x.members, i32, 0)
		x.count[0]++
	case trace.KindAdvance:
		if c := x.adv.Slot(e.Pair()); *c == 0 {
			*c = i32 + 1
		}
	case trace.KindAwaitE:
		if dep = x.firstAdvance(i32); dep < 0 {
			x.late = append(x.late, i32)
		}
	case trace.KindLockAcq:
		dep = x.lastRel[e.Var] - 1
	case trace.KindLockRel:
		x.lastRel[e.Var] = i32 + 1
	case trace.KindBarrierArrive, trace.KindBarrierRelease:
		g, ok := x.byKey[e.Pair()]
		if !ok {
			g = int32(len(x.count))
			x.byKey[e.Pair()] = g
			x.count = append(x.count, 0)
		}
		if e.Kind == trace.KindBarrierRelease {
			x.releases = append(x.releases, i32, g)
		} else {
			x.members = append(x.members, i32, g)
			x.count[g]++
		}
	}
	return prev, fork, dep, nil
}

// forkOf is the fork-edge rule: an event of kind k gets fence, the latest
// loop-begin before it in trace order, if that follows its prev and k is
// not a barrier release; else -1.
func forkOf(fence, prev int32, k trace.Kind) int32 {
	if fence > prev && k != trace.KindBarrierRelease {
		return fence
	}
	return -1
}

// firstAdvance returns the first advance of awaitE i's pairing key read so
// far, -1 for none.
func (x *index) firstAdvance(i int32) int32 { return *x.adv.Slot(x.ev[i].Pair()) - 1 }

// groups lays the fences and barrier groups out in CSR form, group g's
// members flat[off[g]:off[g+1]], by a counting sort; members arrive in
// trace order.
func (x *index) groups() (off, flat []int32) {
	off = make([]int32, len(x.count)+1)
	for g, c := range x.count {
		off[g+1] = off[g] + c
	}
	flat = make([]int32, len(x.members)/2)
	fill := slices.Clone(off[:len(x.count)])
	for k := 0; k < len(x.members); k += 2 {
		g := x.members[k+1]
		flat[fill[g]] = x.members[k]
		fill[g]++
	}
	return off, flat
}

// group returns group g's members.
func (r *Relation) group(g int32) []int32 { return r.flat[r.off[g]:r.off[g+1]] }

// Prev returns event i's same-processor predecessor, -1 for a
// processor's first event. The engine keeps every event no earlier than
// it, also when Basis is a fork fence.
func (r *Relation) Prev(i int) int { return int(r.prev[i]) }

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

// preds returns event v's predecessors (see the package comment): prev,
// its fork edge (forkOf) and its dependence (Dep), each -1 for none, and
// a barrier release's arrivals (Arrivals), shared with the relation.
func (r *Relation) preds(v int) (prev, fork, dep int32, arrivals []int32) {
	prev, fork, dep = r.prev[v], -1, -1
	k := r.tr.Events[v].Kind
	if r.lastFence > prev { // else no fence follows prev: one comparison
		fork = forkOf(int32(r.Basis(v)), prev, k)
	}
	switch k {
	case trace.KindAwaitE, trace.KindLockAcq:
		dep = r.dep[v]
	case trace.KindBarrierRelease:
		arrivals = r.group(r.dep[v])
	}
	return prev, fork, dep, arrivals
}

// Violation describes a happened-before edge whose endpoint times are out
// of order.
type Violation struct {
	From, To trace.Event
}

func (v Violation) Error() string {
	return fmt.Sprintf("order: %v must happen before %v but is timed later", v.From, v.To)
}

// Check verifies that the times in the given trace respect this relation.
// The candidate trace must contain the same events (identified by (Proc,
// Stmt, Kind, Iter, Var) and per-processor order) as the trace the
// relation was built from; typically it is an approximation produced by
// package core from that measured trace. It returns the first violation
// found, or nil: the one whose earlier event comes first in trace order,
// then, among its edges, the one whose later event does.
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
	note := func(u, v int) { // u < 0: no edge
		if u >= 0 && ev[match[u]].Time > ev[match[v]].Time && (from < 0 || u < from) {
			from, to = u, v
		}
	}
	for v := range r.prev {
		prev, fork, dep, arrivals := r.preds(v)
		for _, u := range [3]int32{prev, fork, dep} {
			note(int(u), v)
		}
		for _, u := range arrivals {
			note(int(u), v)
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
