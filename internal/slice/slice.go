// Package slice extracts causally sufficient sub-traces from event
// traces, after Smith & Korel's dynamic trace slicing: most questions
// asked of a large trace ("processor 3's waits in the second phase")
// touch only the events in the causal past of the events of interest, so
// analysis can run on that closure alone and still produce exactly the
// approximated times the full trace would.
//
// A Query names the events of interest (processor set, statement set,
// event-kind set, time window; unset dimensions match everything). Slice
// closes the selection backwards over precisely the dependency edges the
// event-based engine resolves over — same-processor program order and
// fork fences (the basis chain), advance→awaitE pairing, lock
// release→acquisition serialization, and barrier participation sets,
// read from package order's happened-before index (Prev, Basis, Dep,
// Arrivals): the edges Check and CriticalPath also follow, plus a barrier
// release's basis, which the engine reads only for the release's wait —
// so every value the engine reads when re-timing a sliced event is
// present in the slice. The engine keeps an event no earlier than its
// same-processor predecessor even when the basis is another processor's
// fence, so the predecessor is followed too, and slices are prefix-closed
// per processor: each included processor keeps its full history up to
// its last included event, which preserves the engine's measured-gap
// anchoring.
//
// Read slices straight from an encoded stream. For columnar input with a
// windowed query it pushes a block filter into the reader: blocks whose
// minimum time exceeds the window's end cannot hold a causal predecessor
// of any selected event (a feasible trace times every predecessor no
// later than its successor), so they are skipped without being decoded.
// Barrier-arrive blocks are exempt from skipping, since the engine groups
// all same-key arrivals regardless of time. The skip is exact for
// feasible, time-sorted traces whose barrier pairing keys each name a
// single barrier instance; traces that reuse a key across phases should
// be sliced in memory (Slice) instead.
package slice

import (
	"fmt"
	"io"
	"math"
	"sort"

	"perturb/internal/order"
	"perturb/internal/trace"
)

// Query selects the events of interest. The zero value matches every
// event (slicing is then the identity). Each set dimension constrains
// independently; an event must satisfy all of them.
type Query struct {
	// Procs, when non-empty, selects events on the listed processors.
	Procs []int
	// Stmts, when non-empty, selects events of the listed statement ids.
	Stmts []int
	// Kinds, when non-empty, selects events of the listed kinds.
	Kinds []trace.Kind
	// HasWindow gates the time constraint: events timed within [From, To].
	HasWindow bool
	From, To  trace.Time
}

// Match reports whether the query selects the event.
func (q *Query) Match(e trace.Event) bool {
	if q.HasWindow && (e.Time < q.From || e.Time > q.To) {
		return false
	}
	if len(q.Procs) > 0 && !containsInt(q.Procs, e.Proc) {
		return false
	}
	if len(q.Stmts) > 0 && !containsInt(q.Stmts, e.Stmt) {
		return false
	}
	if len(q.Kinds) > 0 {
		ok := false
		for _, k := range q.Kinds {
			if e.Kind == k {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func containsInt(set []int, v int) bool {
	for _, s := range set {
		if s == v {
			return true
		}
	}
	return false
}

// matcher is a Query compiled for per-event evaluation over large traces:
// set membership via bitmask / lookup tables instead of linear scans.
type matcher struct {
	q        *Query
	kindMask uint32
	procs    map[int]bool
	stmts    map[int]bool
}

func compile(q *Query) *matcher {
	m := &matcher{q: q}
	for _, k := range q.Kinds {
		if k < 32 {
			m.kindMask |= 1 << k
		}
	}
	if len(q.Procs) > 0 {
		m.procs = make(map[int]bool, len(q.Procs))
		for _, p := range q.Procs {
			m.procs[p] = true
		}
	}
	if len(q.Stmts) > 0 {
		m.stmts = make(map[int]bool, len(q.Stmts))
		for _, s := range q.Stmts {
			m.stmts[s] = true
		}
	}
	return m
}

func (m *matcher) match(e *trace.Event) bool {
	if m.q.HasWindow && (e.Time < m.q.From || e.Time > m.q.To) {
		return false
	}
	if m.procs != nil && !m.procs[e.Proc] {
		return false
	}
	if m.stmts != nil && !m.stmts[e.Stmt] {
		return false
	}
	if len(m.q.Kinds) > 0 && (e.Kind >= 32 || m.kindMask&(1<<e.Kind) == 0) {
		return false
	}
	return true
}

// Report describes what a slicing pass did.
type Report struct {
	// Total is the number of events examined (for Read, events decoded
	// after block skipping — a superset of the full-trace slice's needs).
	Total int
	// Selected is the number of events matching the query directly.
	Selected int
	// Kept is the number of events in the causally sufficient slice:
	// Selected plus the backward closure.
	Kept int
	// BlocksRead and BlocksSkipped report columnar block-skipping
	// effectiveness for Read; both are zero for in-memory slicing and
	// non-columnar input.
	BlocksRead, BlocksSkipped int64
	// Indices maps each slice event to its index in the examined trace
	// (for Read, the decoded superset), in slice order. Metamorphic tests
	// use it to align slice-analysis output with full-trace analysis
	// without guessing at event identity.
	Indices []int
}

// Slice extracts the causally sufficient sub-trace for the query: every
// event the query selects, closed backwards over the dependency edges the
// event-based analysis resolves over. Analyzing the result yields the
// same approximated times for the sliced events as analyzing t whole.
// The input is validated first and never modified; events are copied.
func Slice(t *trace.Trace, q Query) (*trace.Trace, *Report, error) {
	rel, err := order.Build(t)
	if err != nil {
		return nil, nil, err
	}
	m := compile(&q)
	n := t.Len()
	in := make([]bool, n)
	stack := make([]int, 0, 64)
	push := func(i int) {
		if i >= 0 && !in[i] {
			in[i] = true
			stack = append(stack, i)
		}
	}
	rep := &Report{Total: n}
	for i := range t.Events {
		if m.match(&t.Events[i]) {
			rep.Selected++
			push(i)
		}
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		push(rel.Prev(i))
		push(rel.Basis(i))
		push(rel.Dep(i))
		for _, ai := range rel.Arrivals(i) {
			push(int(ai))
		}
	}
	out := trace.New(t.Procs)
	for i := range in {
		if in[i] {
			rep.Indices = append(rep.Indices, i)
			out.Append(t.Events[i])
		}
	}
	rep.Kept = out.Len()
	return out, rep, nil
}

// Read decodes a trace from r (any codec, auto-detected) and slices it.
// Columnar input with a windowed query gets scan pushdown: blocks whose
// time range lies entirely past the window cannot hold causal
// predecessors of the selection and are skipped undecoded (barrier
// arrivals exempt; see the package comment for the exactness conditions).
func Read(r io.Reader, q Query) (*trace.Trace, *Report, error) {
	var (
		tr  trace.Reader
		cr  *trace.ColumnarReader
		err error
	)
	if q.HasWindow {
		// Only the To side prunes: predecessors extend arbitrarily far
		// before the window, so From stays a row-level constraint.
		f := trace.BlockFilter{
			HasWindow:  true,
			From:       math.MinInt64,
			To:         q.To,
			ForceKinds: []trace.Kind{trace.KindBarrierArrive},
		}
		tr, err = trace.NewFilteredReader(r, f)
		if err != nil {
			return nil, nil, err
		}
		cr, _ = tr.(*trace.ColumnarReader)
	} else {
		tr, err = trace.NewReader(r)
		if err != nil {
			return nil, nil, err
		}
	}
	decoded, err := trace.ReadAll(tr)
	if err != nil {
		return nil, nil, fmt.Errorf("slice: decoding trace: %w", err)
	}
	out, rep, err := Slice(decoded, q)
	if err != nil {
		return nil, nil, err
	}
	if cr != nil {
		rep.BlocksRead, rep.BlocksSkipped = cr.Blocks()
	}
	return out, rep, nil
}

// ParseQuery parses the CLI query syntax: whitespace-separated
// constraints of the form
//
//	procs=1,3  stmts=5,17  kinds=awaitE,advance  window=1000:2500
//
// Unknown constraint names, malformed values and unknown kind names are
// errors. An empty spec yields the match-everything query.
func ParseQuery(spec string) (Query, error) {
	var q Query
	for _, field := range splitFields(spec) {
		eq := -1
		for i := 0; i < len(field); i++ {
			if field[i] == '=' {
				eq = i
				break
			}
		}
		if eq < 0 {
			return Query{}, fmt.Errorf("slice: constraint %q is not name=value", field)
		}
		name, val := field[:eq], field[eq+1:]
		switch name {
		case "procs":
			ids, err := parseIntList(val)
			if err != nil {
				return Query{}, fmt.Errorf("slice: procs: %w", err)
			}
			q.Procs = ids
		case "stmts":
			ids, err := parseIntList(val)
			if err != nil {
				return Query{}, fmt.Errorf("slice: stmts: %w", err)
			}
			q.Stmts = ids
		case "kinds":
			for _, s := range splitList(val) {
				k, ok := trace.KindByName(s)
				if !ok {
					return Query{}, fmt.Errorf("slice: unknown event kind %q", s)
				}
				q.Kinds = append(q.Kinds, k)
			}
		case "window":
			var from, to int64
			if _, err := fmt.Sscanf(val, "%d:%d", &from, &to); err != nil {
				return Query{}, fmt.Errorf("slice: window %q is not from:to", val)
			}
			if from > to {
				return Query{}, fmt.Errorf("slice: window %q is empty (from > to)", val)
			}
			q.HasWindow = true
			q.From, q.To = trace.Time(from), trace.Time(to)
		default:
			return Query{}, fmt.Errorf("slice: unknown constraint %q", name)
		}
	}
	return q, nil
}

// String renders the query in ParseQuery's syntax (empty for the
// match-everything query).
func (q Query) String() string {
	var out []byte
	sep := func() {
		if len(out) > 0 {
			out = append(out, ' ')
		}
	}
	if len(q.Procs) > 0 {
		sep()
		out = append(out, "procs="...)
		out = appendIntList(out, q.Procs)
	}
	if len(q.Stmts) > 0 {
		sep()
		out = append(out, "stmts="...)
		out = appendIntList(out, q.Stmts)
	}
	if len(q.Kinds) > 0 {
		sep()
		out = append(out, "kinds="...)
		for i, k := range q.Kinds {
			if i > 0 {
				out = append(out, ',')
			}
			out = append(out, k.String()...)
		}
	}
	if q.HasWindow {
		sep()
		out = fmt.Appendf(out, "window=%d:%d", int64(q.From), int64(q.To))
	}
	return string(out)
}

func appendIntList(out []byte, ids []int) []byte {
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	for i, id := range sorted {
		if i > 0 {
			out = append(out, ',')
		}
		out = fmt.Appendf(out, "%d", id)
	}
	return out
}

func splitFields(s string) []string {
	var out []string
	start := -1
	for i := 0; i <= len(s); i++ {
		if i < len(s) && s[i] != ' ' && s[i] != '\t' {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			out = append(out, s[start:i])
			start = -1
		}
	}
	return out
}

func splitList(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}

func parseIntList(s string) ([]int, error) {
	var out []int
	for _, f := range splitList(s) {
		var v int
		if _, err := fmt.Sscanf(f, "%d", &v); err != nil || fmt.Sprintf("%d", v) != f {
			return nil, fmt.Errorf("bad integer %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}
