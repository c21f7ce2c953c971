package trace_test

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"perturb/internal/testgen"
	"perturb/internal/trace"
)

func ev(t trace.Time, proc, stmt int, k trace.Kind) trace.Event {
	return trace.Event{Time: t, Proc: proc, Stmt: stmt, Kind: k, Iter: trace.NoIter, Var: trace.NoVar}
}

func TestKindStrings(t *testing.T) {
	cases := map[trace.Kind]string{
		trace.KindCompute:        "compute",
		trace.KindLoopBegin:      "loopbegin",
		trace.KindLoopEnd:        "loopend",
		trace.KindAdvance:        "advance",
		trace.KindAwaitB:         "awaitB",
		trace.KindAwaitE:         "awaitE",
		trace.KindBarrierArrive:  "barrier-arrive",
		trace.KindBarrierRelease: "barrier-release",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
		if !k.Valid() {
			t.Errorf("Kind %v should be valid", k)
		}
	}
	if trace.Kind(99).Valid() {
		t.Error("Kind(99) should be invalid")
	}
	if got := trace.Kind(99).String(); got != "kind(99)" {
		t.Errorf("invalid kind string = %q", got)
	}
}

func TestKindIsSync(t *testing.T) {
	syncs := []trace.Kind{trace.KindAdvance, trace.KindAwaitB, trace.KindAwaitE,
		trace.KindBarrierArrive, trace.KindBarrierRelease}
	for _, k := range syncs {
		if !k.IsSync() {
			t.Errorf("%v should be sync", k)
		}
	}
	for _, k := range []trace.Kind{trace.KindCompute, trace.KindLoopBegin, trace.KindLoopEnd} {
		if k.IsSync() {
			t.Errorf("%v should not be sync", k)
		}
	}
}

func TestSortCanonicalOrder(t *testing.T) {
	tr := trace.New(2)
	tr.Append(ev(200, 1, 5, trace.KindCompute))
	tr.Append(ev(100, 0, 9, trace.KindCompute))
	tr.Append(ev(100, 0, 2, trace.KindCompute)) // same time+proc: stmt breaks tie
	tr.Append(ev(100, 1, 1, trace.KindCompute)) // same time: proc breaks tie
	tr.Sort()
	want := []struct {
		tm   trace.Time
		proc int
		stmt int
	}{{100, 0, 2}, {100, 0, 9}, {100, 1, 1}, {200, 1, 5}}
	for i, w := range want {
		e := tr.Events[i]
		if e.Time != w.tm || e.Proc != w.proc || e.Stmt != w.stmt {
			t.Fatalf("event %d = %v, want time=%d proc=%d stmt=%d", i, e, w.tm, w.proc, w.stmt)
		}
	}
}

func TestNormalizeExpandsProcs(t *testing.T) {
	tr := trace.New(1)
	tr.Append(ev(1, 3, 0, trace.KindCompute))
	tr.Normalize()
	if tr.Procs != 4 {
		t.Errorf("Procs = %d, want 4", tr.Procs)
	}
}

func TestSpanAndDuration(t *testing.T) {
	tr := trace.New(1)
	if tr.Start() != 0 || tr.End() != 0 || tr.Duration() != 0 {
		t.Error("empty trace should have zero span")
	}
	tr.Append(ev(50, 0, 0, trace.KindCompute))
	tr.Append(ev(20, 0, 1, trace.KindCompute))
	tr.Append(ev(90, 0, 2, trace.KindCompute))
	if tr.Start() != 20 || tr.End() != 90 || tr.Duration() != 70 {
		t.Errorf("span = [%d,%d] dur %d, want [20,90] 70", tr.Start(), tr.End(), tr.Duration())
	}
}

func TestByProcAndFilter(t *testing.T) {
	tr := trace.New(3)
	tr.Append(ev(1, 0, 0, trace.KindCompute))
	tr.Append(ev(2, 2, 1, trace.KindLoopBegin))
	tr.Append(ev(3, 0, 2, trace.KindCompute))
	per := tr.ByProc()
	if len(per) != 3 || len(per[0]) != 2 || len(per[1]) != 0 || len(per[2]) != 1 {
		t.Fatalf("ByProc sizes = %d/%d/%d", len(per[0]), len(per[1]), len(per[2]))
	}
	if per[1] != nil || per[0][1] != tr.Events[2] || per[2][0] != tr.Events[1] {
		t.Fatalf("ByProc = %v", per)
	}
	// The sequences share one backing array; each is capped at its own
	// length, so appending to one leaves the next intact.
	_ = append(per[0], ev(9, 0, 9, trace.KindCompute))
	if per[2][0] != tr.Events[1] {
		t.Fatalf("appending to proc 0's events overwrote proc 2's: %v", per[2])
	}
	tr.Procs = -1 // malformed (Validate refuses it): no sequences, no panic
	if per := tr.ByProc(); len(per) != 0 {
		t.Errorf("ByProc with Procs -1 = %v, want no sequences", per)
	}
	f := tr.Filter(func(e trace.Event) bool { return e.Kind == trace.KindCompute })
	if f.Len() != 2 {
		t.Errorf("filtered len = %d, want 2", f.Len())
	}
	if tr.CountKind(trace.KindLoopBegin) != 1 {
		t.Errorf("CountKind(loopbegin) = %d, want 1", tr.CountKind(trace.KindLoopBegin))
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := trace.New(1)
	a.Append(ev(1, 0, 0, trace.KindCompute))
	c := a.Clone()
	c.Events[0].Time = 99
	if a.Events[0].Time != 1 {
		t.Error("Clone shares event storage with the original")
	}
}

func TestValidateErrors(t *testing.T) {
	mk := func(events ...trace.Event) *trace.Trace {
		tr := trace.New(2)
		tr.Events = events
		return tr
	}
	cases := []struct {
		name string
		tr   *trace.Trace
		want error
	}{
		{"bad proc", mk(ev(1, 7, 0, trace.KindCompute)), trace.ErrBadProc},
		{"negative proc", mk(ev(1, -1, 0, trace.KindCompute)), trace.ErrBadProc},
		{"bad kind", mk(trace.Event{Time: 1, Proc: 0, Kind: trace.Kind(42)}), trace.ErrBadKind},
		{"non-monotonic", mk(ev(5, 0, 0, trace.KindCompute), ev(3, 0, 1, trace.KindCompute)), trace.ErrNonMonotonic},
		{"sync without var", mk(trace.Event{Time: 1, Proc: 0, Kind: trace.KindAdvance, Iter: 0, Var: trace.NoVar}), trace.ErrSyncNoVar},
	}
	for _, c := range cases {
		err := c.tr.Validate()
		if !errors.Is(err, c.want) {
			t.Errorf("%s: Validate() = %v, want %v", c.name, err, c.want)
		}
	}
	ok := mk(ev(1, 0, 0, trace.KindCompute), ev(1, 0, 1, trace.KindCompute))
	if err := ok.Validate(); err != nil {
		t.Errorf("equal-time events on one proc should validate, got %v", err)
	}
}

func TestValidateAllowsNegativeAwaitTarget(t *testing.T) {
	tr := trace.New(1)
	tr.Append(trace.Event{Time: 1, Proc: 0, Kind: trace.KindAwaitB, Iter: -1, Var: 0})
	tr.Append(trace.Event{Time: 2, Proc: 0, Kind: trace.KindAwaitE, Iter: -1, Var: 0})
	if err := tr.Validate(); err != nil {
		t.Errorf("pre-advanced await target should validate, got %v", err)
	}
}

func TestRandomTracesValidate(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		tr := testgen.Trace(r)
		if err := tr.Validate(); err != nil {
			t.Fatalf("random trace %d invalid: %v", i, err)
		}
	}
}

func TestEventString(t *testing.T) {
	e := trace.Event{Time: 1500, Proc: 2, Stmt: 7, Kind: trace.KindAdvance, Iter: 4, Var: 1}
	if got, want := e.String(), "1500 p2 s7 advance i4 v1"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestNewWithCapPreallocates(t *testing.T) {
	tr := trace.NewWithCap(4, 128)
	if tr.Procs != 4 || tr.Len() != 0 {
		t.Fatalf("NewWithCap shape: procs=%d len=%d", tr.Procs, tr.Len())
	}
	if cap(tr.Events) != 128 {
		t.Fatalf("cap = %d, want 128", cap(tr.Events))
	}
	base := &tr.Events[:1][0]
	for i := 0; i < 128; i++ {
		tr.Append(trace.Event{Time: trace.Time(i), Kind: trace.KindCompute})
	}
	if &tr.Events[0] != base {
		t.Fatal("appending within capacity reallocated the buffer")
	}
	// Negative capacity degrades to an empty buffer rather than panicking.
	if tr := trace.NewWithCap(1, -5); cap(tr.Events) != 0 {
		t.Fatalf("negative capacity: cap = %d, want 0", cap(tr.Events))
	}
}

func TestGrowReservesSpace(t *testing.T) {
	tr := trace.New(2)
	tr.Append(trace.Event{Time: 1, Kind: trace.KindCompute})
	tr.Grow(64)
	if cap(tr.Events) < 65 {
		t.Fatalf("cap = %d, want >= 65", cap(tr.Events))
	}
	base := &tr.Events[0]
	for i := 0; i < 64; i++ {
		tr.Append(trace.Event{Time: trace.Time(i + 2), Kind: trace.KindCompute})
	}
	if &tr.Events[0] != base {
		t.Fatal("appending within grown capacity reallocated the buffer")
	}
	tr.Grow(0)
	tr.Grow(-3) // no-ops must not shrink or panic
	if tr.Len() != 65 {
		t.Fatalf("len = %d, want 65", tr.Len())
	}
}

// TestByProcCopiesOnce: ByProc copies the events once, into one backing
// array, and allocates little beyond that copy.
func TestByProcCopiesOnce(t *testing.T) {
	tr := testgen.BackwardWave(8, 25000)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	per := tr.ByProc()
	runtime.ReadMemStats(&after)
	size := float64(tr.Len()) * float64(unsafe.Sizeof(trace.Event{}))
	if got := float64(after.TotalAlloc - before.TotalAlloc); got > 1.1*size {
		t.Errorf("ByProc allocated %.0f B for %.0f B of events, want at most 1.1x", got, size)
	}
	for p, evs := range per {
		want := tr.Filter(func(e trace.Event) bool { return e.Proc == p }).Events
		if !reflect.DeepEqual(evs, want) {
			t.Fatalf("proc %d: ByProc differs from a filter of the trace", p)
		}
	}
}

// TestPairTable: keys far outside a variable's table go to the sparse
// map, and keep their values once the table grows over them, upward or
// downward.
func TestPairTable(t *testing.T) {
	var pt trace.PairTable[int]
	slot := func(k trace.PairKey) *int { return pt.Slot(k) }
	keys := []trace.PairKey{
		{Var: 0, Iter: 0},
		{Var: 0, Iter: 100_000},           // far above the table
		{Var: 0, Iter: -50_000},           // far below it
		{Var: 1, Iter: 7},                 // another variable
		{Var: 0, Iter: math.MaxInt32 + 9}, // beyond int32 iterations
	}
	for i, k := range keys {
		*slot(k) = i + 1
	}
	// Walk outward from the table, so it grows over both sparse keys.
	for _, step := range []int{1, -1} {
		for it := 0; it >= -50_000 && it <= 100_000; it += step {
			want := slices.Index(keys, trace.PairKey{Var: 0, Iter: it}) + 1
			if got := *slot(trace.PairKey{Var: 0, Iter: it}); got != want {
				t.Fatalf("iteration %d holds %d, want %d", it, got, want)
			}
		}
	}
	for i, k := range keys {
		if got := *slot(k); got != i+1 {
			t.Errorf("%v holds %d, want %d", k, got, i+1)
		}
	}
}

// TestPairTableGrowthAllocation: a variable's table grows to at least
// twice its capacity, so filling 1<<20 ascending iterations allocates
// about twice the final table, where growing by a quarter allocated
// about five times it. The test is not parallel, so TotalAlloc counts
// only the calls it brackets.
func TestPairTableGrowthAllocation(t *testing.T) {
	const n = 1 << 20
	var pt trace.PairTable[int32]
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for it := 0; it < n; it++ {
		*pt.Slot(trace.PairKey{Var: 3, Iter: it}) = int32(it) + 1
	}
	runtime.ReadMemStats(&after)
	final := uint64(n * unsafe.Sizeof(int32(0)))
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d B allocated, %.2fx the final table's %d B", got, float64(got)/float64(final), final)
	if got > final*5/2 {
		t.Errorf("filling %d iterations allocated %d B, more than 2.5x the final table's %d B", n, got, final)
	}
}
