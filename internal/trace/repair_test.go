package trace_test

import (
	"errors"
	"slices"
	"testing"

	"perturb/internal/trace"
)

// sev builds a synchronization event for repair tests.
func sev(t trace.Time, proc, stmt int, k trace.Kind, iter, v int) trace.Event {
	return trace.Event{Time: t, Proc: proc, Stmt: stmt, Kind: k, Iter: iter, Var: v}
}

// doacrossPair emits the canonical healthy advance/await exchange:
// p0 computes and advances, p1 brackets an await that consumes it.
func doacrossPair(iter int, v int, base trace.Time) []trace.Event {
	return []trace.Event{
		sev(base+10, 0, 1, trace.KindCompute, iter, trace.NoVar),
		sev(base+20, 0, 2, trace.KindAdvance, iter, v),
		sev(base+12, 1, 3, trace.KindAwaitB, iter, v),
		sev(base+25, 1, 3, trace.KindAwaitE, iter, v),
		sev(base+40, 1, 4, trace.KindCompute, iter, trace.NoVar),
	}
}

func healthyTrace() *trace.Trace {
	tr := trace.New(2)
	for i := 0; i < 4; i++ {
		tr.Events = append(tr.Events, doacrossPair(i, 7, trace.Time(i)*100)...)
	}
	tr.Sort()
	return tr
}

func TestRepairCleanTraceIsNoOp(t *testing.T) {
	tr := healthyTrace()
	before := append([]trace.Event(nil), tr.Events...)
	out, rep := trace.Repair(tr)
	if !rep.Clean() {
		t.Fatalf("clean trace reported defects: %v", rep.Summary())
	}
	if rep.Modified() {
		t.Fatalf("clean trace was modified: %+v", rep)
	}
	if len(out.Events) != len(before) {
		t.Fatalf("event count changed: %d -> %d", len(before), len(out.Events))
	}
	for i := range before {
		if out.Events[i] != before[i] {
			t.Fatalf("event %d changed: %v -> %v", i, before[i], out.Events[i])
		}
	}
	// The input itself must never be modified.
	for i := range before {
		if tr.Events[i] != before[i] {
			t.Fatalf("Repair modified its input at %d", i)
		}
	}
}

func TestRepairDropsInvalidEvents(t *testing.T) {
	tr := healthyTrace()
	tr.Events = append(tr.Events,
		sev(50, -1, 0, trace.KindCompute, 0, trace.NoVar),    // negative proc
		trace.Event{Time: 60, Proc: 0, Kind: trace.Kind(99)}, // undefined kind
		sev(70, 0, 1, trace.KindAdvance, 9, trace.NoVar),     // sync without var
	)
	out, rep := trace.Repair(tr)
	if got := rep.CountClass(trace.DefectInvalidEvent); got != 3 {
		t.Fatalf("invalid-event defects = %d, want 3: %v", got, rep.Summary())
	}
	if rep.Removed != 3 {
		t.Fatalf("Removed = %d, want 3", rep.Removed)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("repaired trace fails Validate: %v", err)
	}
	if !errors.Is(trace.DefectInvalidEvent.Err(), trace.ErrMalformedTrace) {
		t.Fatal("DefectInvalidEvent.Err() should be ErrMalformedTrace")
	}
}

func TestRepairDedupsExactDuplicates(t *testing.T) {
	tr := healthyTrace()
	dup := tr.Events[3]
	tr.Events = append(tr.Events, dup, dup) // two extra copies
	tr.Sort()
	out, rep := trace.Repair(tr)
	if got := rep.CountClass(trace.DefectDuplicate); got != 2 {
		t.Fatalf("duplicate defects = %d, want 2: %v", got, rep.Summary())
	}
	n := 0
	for _, e := range out.Events {
		if e == dup {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("duplicate survived dedup: %d copies", n)
	}
}

// TestRepairDedupsAfterADrop: a copy is found across its tie group, also
// when a duplicate dropped earlier in the trace has moved the events kept
// so far. The two p0 advances share a time and statement but not an
// iteration, so they sit between the copies of the first.
func TestRepairDedupsAfterADrop(t *testing.T) {
	early := sev(1, 0, 1, trace.KindCompute, 0, trace.NoVar)
	a, b := sev(6, 0, 2, trace.KindAdvance, 0, 7), sev(6, 0, 2, trace.KindAdvance, 1, 7)
	tr := &trace.Trace{Procs: 1, Events: []trace.Event{early, early, a, b, a}}
	out, rep := trace.Repair(tr)
	if got := rep.CountClass(trace.DefectDuplicate); got != 2 {
		t.Errorf("duplicate defects = %d, want 2: %v", got, rep.Summary())
	}
	if want := []trace.Event{early, a, b}; !slices.Equal(out.Events, want) {
		t.Errorf("repaired events %v, want %v", out.Events, want)
	}
}

func TestRepairFixesInvertedBracket(t *testing.T) {
	tr := healthyTrace()
	// Swap the timestamps of one awaitB/awaitE pair so the awaitE is
	// recorded first, the in-buffer-reordering signature.
	var bi, ei = -1, -1
	for i, e := range tr.Events {
		if e.Iter != 2 {
			continue
		}
		if e.Kind == trace.KindAwaitB {
			bi = i
		}
		if e.Kind == trace.KindAwaitE {
			ei = i
		}
	}
	tr.Events[bi].Time, tr.Events[ei].Time = tr.Events[ei].Time, tr.Events[bi].Time
	tr.Sort()
	out, rep := trace.Repair(tr)
	if got := rep.CountClass(trace.DefectReordered); got != 1 {
		t.Fatalf("reordered defects = %d, want 1: %v", got, rep.Summary())
	}
	if rep.Synthesized != 0 {
		t.Fatalf("inversion must be repaired by retiming, not synthesis: %+v", rep)
	}
	// After repair the bracket must be ordered again.
	var bt, et trace.Time
	for _, e := range out.Events {
		if e.Iter == 2 && e.Kind == trace.KindAwaitB {
			bt = e.Time
		}
		if e.Iter == 2 && e.Kind == trace.KindAwaitE {
			et = e.Time
		}
	}
	if bt > et {
		t.Fatalf("bracket still inverted: awaitB@%d awaitE@%d", bt, et)
	}
}

func TestRepairSynthesizesMissingAwaitB(t *testing.T) {
	tr := healthyTrace()
	tr2 := tr.Filter(func(e trace.Event) bool {
		return !(e.Kind == trace.KindAwaitB && e.Iter == 1)
	})
	out, rep := trace.Repair(tr2)
	if got := rep.CountClass(trace.DefectOrphanAwaitE); got != 1 {
		t.Fatalf("orphan-awaitE defects = %d, want 1: %v", got, rep.Summary())
	}
	found := false
	for _, e := range out.Events {
		if e.Kind == trace.KindAwaitB && e.Iter == 1 {
			if e.Stmt != trace.SynthStmt {
				t.Fatalf("synthesized awaitB should carry SynthStmt, got %v", e)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("awaitB was not synthesized")
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("repaired trace fails Validate: %v", err)
	}
}

func TestRepairSynthesizesMissingAwaitE(t *testing.T) {
	tr := healthyTrace()
	tr2 := tr.Filter(func(e trace.Event) bool {
		return !(e.Kind == trace.KindAwaitE && e.Iter == 1)
	})
	out, rep := trace.Repair(tr2)
	if got := rep.CountClass(trace.DefectDanglingAwaitB); got != 1 {
		t.Fatalf("dangling-awaitB defects = %d, want 1: %v", got, rep.Summary())
	}
	n := 0
	for _, e := range out.Events {
		if e.Kind == trace.KindAwaitE && e.Iter == 1 {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("awaitE count after repair = %d, want 1", n)
	}
}

func TestRepairFlagsUnmatchedAwait(t *testing.T) {
	tr := healthyTrace()
	tr2 := tr.Filter(func(e trace.Event) bool {
		return !(e.Kind == trace.KindAdvance && e.Iter == 2)
	})
	out, rep := trace.Repair(tr2)
	if got := rep.CountClass(trace.DefectUnmatchedAwait); got != 1 {
		t.Fatalf("unmatched-await defects = %d, want 1: %v", got, rep.Summary())
	}
	// Flag-only: the await bracket stays, nothing is synthesized for it.
	if out.CountKind(trace.KindAdvance) != 3 {
		t.Fatalf("advance count = %d, want 3", out.CountKind(trace.KindAdvance))
	}
	if !errors.Is(trace.DefectUnmatchedAwait.Err(), trace.ErrUnmatchedSync) {
		t.Fatal("DefectUnmatchedAwait.Err() should be ErrUnmatchedSync")
	}
}

func TestRepairPreAdvancedAwaitsAreNotDefects(t *testing.T) {
	// Negative-iteration awaits (DOACROSS warm-up against pre-advanced
	// history) legitimately have no advance event.
	tr := trace.New(2)
	tr.Events = append(tr.Events,
		sev(5, 1, 3, trace.KindAwaitB, -1, 7),
		sev(6, 1, 3, trace.KindAwaitE, -1, 7),
	)
	tr.Sort()
	_, rep := trace.Repair(tr)
	if !rep.Clean() {
		t.Fatalf("pre-advanced await flagged as defect: %v", rep.Summary())
	}
}

func TestRepairCompletesBarrier(t *testing.T) {
	mkBarrier := func() *trace.Trace {
		tr := trace.New(3)
		for p := 0; p < 3; p++ {
			tr.Events = append(tr.Events,
				sev(trace.Time(10+p), p, 1, trace.KindCompute, 0, trace.NoVar),
				sev(trace.Time(20+p), p, -2, trace.KindBarrierArrive, 0, 0),
				sev(30, p, -2, trace.KindBarrierRelease, 0, 0),
			)
		}
		tr.Sort()
		return tr
	}

	t.Run("missing arrival", func(t *testing.T) {
		tr := mkBarrier().Filter(func(e trace.Event) bool {
			return !(e.Kind == trace.KindBarrierArrive && e.Proc == 1)
		})
		out, rep := trace.Repair(tr)
		if got := rep.CountClass(trace.DefectMissingArrival); got != 1 {
			t.Fatalf("missing-arrival = %d, want 1: %v", got, rep.Summary())
		}
		if out.CountKind(trace.KindBarrierArrive) != 3 {
			t.Fatalf("arrivals = %d, want 3", out.CountKind(trace.KindBarrierArrive))
		}
	})

	t.Run("missing release", func(t *testing.T) {
		tr := mkBarrier().Filter(func(e trace.Event) bool {
			return !(e.Kind == trace.KindBarrierRelease && e.Proc == 2)
		})
		out, rep := trace.Repair(tr)
		if got := rep.CountClass(trace.DefectMissingRelease); got != 1 {
			t.Fatalf("missing-release = %d, want 1: %v", got, rep.Summary())
		}
		// Synthesized release lands at the barrier's common release time.
		for _, e := range out.Events {
			if e.Kind == trace.KindBarrierRelease && e.Proc == 2 && e.Time != 30 {
				t.Fatalf("synthesized release at %d, want 30", e.Time)
			}
		}
	})

	t.Run("truncated tail", func(t *testing.T) {
		tr := mkBarrier().Filter(func(e trace.Event) bool {
			return !(e.Proc == 2 && e.Kind != trace.KindCompute)
		})
		out, rep := trace.Repair(tr)
		if got := rep.CountClass(trace.DefectTruncatedTail); got != 1 {
			t.Fatalf("truncated-tail = %d, want 1: %v", got, rep.Summary())
		}
		if !errors.Is(trace.DefectTruncatedTail.Err(), trace.ErrTruncatedTrace) {
			t.Fatal("DefectTruncatedTail.Err() should be ErrTruncatedTrace")
		}
		if out.CountKind(trace.KindBarrierArrive) != 3 || out.CountKind(trace.KindBarrierRelease) != 3 {
			t.Fatalf("barrier not completed: %d arrive / %d release",
				out.CountKind(trace.KindBarrierArrive), out.CountKind(trace.KindBarrierRelease))
		}
	})
}

// TestRepairBarrierBelowTimeZero: repair commutes with a time shift. p1
// was released from p0's barrier but lost its arrival, which is
// synthesized just after p1's compute wherever the trace lies in time:
// also when every time is negative, as Validate allows and clock-skew
// repair produces.
func TestRepairBarrierBelowTimeZero(t *testing.T) {
	for _, base := range []trace.Time{100, 0, -100} {
		tr := &trace.Trace{Procs: 2, Events: []trace.Event{
			sev(base, 0, 1, trace.KindCompute, 0, trace.NoVar),
			sev(base+5, 1, 1, trace.KindCompute, 0, trace.NoVar),
			sev(base+10, 0, -2, trace.KindBarrierArrive, 0, 0),
			sev(base+20, 0, -2, trace.KindBarrierRelease, 0, 0),
			sev(base+20, 1, -2, trace.KindBarrierRelease, 0, 0),
		}}
		out, rep := trace.Repair(tr)
		if got := rep.Summary(); got != "1 defects: missing-arrival x1" {
			t.Errorf("base %d: %s, want only the missing arrival", base, got)
		}
		want := map[trace.Kind]trace.Time{trace.KindBarrierArrive: base + 6, trace.KindBarrierRelease: base + 20}
		for _, e := range out.Events {
			if w, ok := want[e.Kind]; ok && e.Proc == 1 && e.Time != w {
				t.Errorf("base %d: p1's %v at %d, want %d", base, e.Kind, e.Time, w)
			}
		}
	}
}

// TestRepairOrdersBarrierSides: repair leaves each processor one
// arrival, then one release, per barrier, and its loop-end after the
// release, and a second pass finds nothing more to do.
func TestRepairOrdersBarrierSides(t *testing.T) {
	const arrive, release, loopEnd = trace.KindBarrierArrive, trace.KindBarrierRelease, trace.KindLoopEnd
	cases := []struct {
		name   string
		events []trace.Event // p0's; p1 arrives at 15 and is released at 30
		want   []trace.Event // p0's after repair
	}{
		{
			// A duplicated arrival that a reorder then swapped with the
			// release: the release keeps the later time.
			name: "arrival after release",
			events: []trace.Event{
				sev(20, 0, -2, arrive, 0, 0), sev(20, 0, -2, release, 0, 0), sev(30, 0, -2, arrive, 0, 0),
			},
			want: []trace.Event{sev(20, 0, -2, arrive, 0, 0), sev(30, 0, -2, release, 0, 0)},
		},
		{
			name: "loop-end before release",
			events: []trace.Event{
				sev(20, 0, -2, arrive, 0, 0), sev(30, 0, -1, loopEnd, -1, trace.NoVar), sev(32, 0, -2, release, 0, 0),
			},
			want: []trace.Event{
				sev(20, 0, -2, arrive, 0, 0), sev(30, 0, -2, release, 0, 0), sev(32, 0, -1, loopEnd, -1, trace.NoVar),
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := trace.New(2)
			tr.Events = append(c.events, sev(15, 1, -2, arrive, 0, 0), sev(30, 1, -2, release, 0, 0))
			tr.Sort()
			out, rep := trace.Repair(tr)
			var got []trace.Event
			for _, e := range out.Events {
				if e.Proc == 0 {
					got = append(got, e)
				}
			}
			if !slices.Equal(got, c.want) || rep.CountClass(trace.DefectReordered) != 1 {
				t.Errorf("p0 repaired to %v (%s), want %v after one reorder", got, rep.Summary(), c.want)
			}
			if _, rep2 := trace.Repair(out); rep2.Modified() {
				t.Errorf("second repair: %s", rep2.Summary())
			}
		})
	}

	t.Run("every release lost", func(t *testing.T) {
		tr := trace.New(2)
		tr.Events = []trace.Event{
			sev(10, 1, 1, trace.KindCompute, 0, trace.NoVar), sev(20, 0, -2, arrive, 0, 0), sev(25, 1, -2, arrive, 0, 0),
		}
		out, rep := trace.Repair(tr)
		if got := rep.CountClass(trace.DefectMissingRelease); got != 2 {
			t.Fatalf("missing-release = %d, want 2: %v", got, rep.Summary())
		}
		for _, e := range out.Events {
			if e.Kind == release && e.Time != 26 {
				t.Errorf("synthesized %v, want it just after the last arrival", e)
			}
		}
		if _, rep2 := trace.Repair(out); rep2.Modified() {
			t.Errorf("second repair: %s", rep2.Summary())
		}
	})
}

func TestRepairClockSkew(t *testing.T) {
	// Shift p1 (the awaiting processor) back by 500ns: every awaitE lands
	// before the advance it consumed, from several independent pairs.
	tr := healthyTrace()
	for i := range tr.Events {
		if tr.Events[i].Proc == 1 {
			tr.Events[i].Time -= 500
		}
	}
	tr.Sort()
	out, rep := trace.Repair(tr)
	if got := rep.CountClass(trace.DefectClockSkew); got == 0 {
		t.Fatalf("no clock-skew defect detected: %v", rep.Summary())
	}
	// After repair no awaitE may precede its advance.
	adv := firstAdvances(out)
	for _, e := range out.Events {
		if e.Kind != trace.KindAwaitE {
			continue
		}
		if ai, ok := adv[e.Pair()]; ok && out.Events[ai].Time > e.Time {
			t.Fatalf("causality still violated after skew repair: %v before %v",
				e, out.Events[ai])
		}
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("repaired trace fails Validate: %v", err)
	}
}

// firstAdvances maps each pairing key to the index of its first advance
// in t.
func firstAdvances(t *trace.Trace) map[trace.PairKey]int {
	adv := make(map[trace.PairKey]int)
	for i, e := range t.Events {
		if _, dup := adv[e.Pair()]; e.Kind == trace.KindAdvance && !dup {
			adv[e.Pair()] = i
		}
	}
	return adv
}

func TestRepairClampsSingleCausalityViolation(t *testing.T) {
	tr := healthyTrace()
	// One awaitE moved before its advance: too little evidence for a
	// skew estimate, so the clamp handles it.
	for i := range tr.Events {
		if tr.Events[i].Kind == trace.KindAwaitE && tr.Events[i].Iter == 3 {
			tr.Events[i].Time -= 15
		}
	}
	tr.Sort()
	out, rep := trace.Repair(tr)
	if got := rep.CountClass(trace.DefectCausality); got != 1 {
		t.Fatalf("causality defects = %d, want 1: %v", got, rep.Summary())
	}
	adv := firstAdvances(out)
	for _, e := range out.Events {
		if e.Kind != trace.KindAwaitE {
			continue
		}
		if ai, ok := adv[e.Pair()]; ok && out.Events[ai].Time > e.Time {
			t.Fatalf("causality still violated: %v", e)
		}
	}
}

func TestRepairLockBrackets(t *testing.T) {
	mk := func() *trace.Trace {
		tr := trace.New(2)
		tr.Events = append(tr.Events,
			sev(10, 0, 1, trace.KindLockReq, 0, 3),
			sev(12, 0, 1, trace.KindLockAcq, 0, 3),
			sev(20, 0, 1, trace.KindLockRel, 0, 3),
			sev(11, 1, 2, trace.KindLockReq, 1, 3),
			sev(22, 1, 2, trace.KindLockAcq, 1, 3),
			sev(30, 1, 2, trace.KindLockRel, 1, 3),
		)
		tr.Sort()
		return tr
	}
	t.Run("orphan acq", func(t *testing.T) {
		tr := mk().Filter(func(e trace.Event) bool {
			return !(e.Kind == trace.KindLockReq && e.Proc == 1)
		})
		out, rep := trace.Repair(tr)
		if got := rep.CountClass(trace.DefectOrphanLockAcq); got != 1 {
			t.Fatalf("orphan-lock-acq = %d, want 1: %v", got, rep.Summary())
		}
		if out.CountKind(trace.KindLockReq) != 2 {
			t.Fatalf("lock-req count = %d, want 2", out.CountKind(trace.KindLockReq))
		}
	})
	t.Run("dangling req", func(t *testing.T) {
		tr := mk().Filter(func(e trace.Event) bool {
			return !(e.Kind == trace.KindLockAcq && e.Proc == 0)
		})
		out, rep := trace.Repair(tr)
		if got := rep.CountClass(trace.DefectDanglingLockReq); got != 1 {
			t.Fatalf("dangling-lock-req = %d, want 1: %v", got, rep.Summary())
		}
		if out.CountKind(trace.KindLockAcq) != 2 {
			t.Fatalf("lock-acq count = %d, want 2", out.CountKind(trace.KindLockAcq))
		}
	})
}

func TestRepairIdempotent(t *testing.T) {
	// Compound damage: drops, duplicates, skew, truncation at once.
	tr := healthyTrace()
	tr.Events = append(tr.Events, tr.Events[2])
	tr2 := tr.Filter(func(e trace.Event) bool {
		return !(e.Kind == trace.KindAwaitB && e.Iter == 0) &&
			!(e.Kind == trace.KindAdvance && e.Iter == 3)
	})
	for i := range tr2.Events {
		if tr2.Events[i].Proc == 1 {
			tr2.Events[i].Time -= 300
		}
	}
	tr2.Sort()

	once, rep1 := trace.Repair(tr2)
	if rep1.Clean() {
		t.Fatal("compound damage not detected")
	}
	if err := once.Validate(); err != nil {
		t.Fatalf("first repair fails Validate: %v", err)
	}
	twice, rep2 := trace.Repair(once)
	if rep2.Modified() {
		t.Fatalf("second repair modified the trace: removed=%d synthesized=%d retimed=%d (%v)",
			rep2.Removed, rep2.Synthesized, rep2.Retimed, rep2.Summary())
	}
	if len(twice.Events) != len(once.Events) {
		t.Fatalf("event count drifted: %d -> %d", len(once.Events), len(twice.Events))
	}
	for i := range once.Events {
		if twice.Events[i] != once.Events[i] {
			t.Fatalf("event %d drifted: %v -> %v", i, once.Events[i], twice.Events[i])
		}
	}
}

func TestAuditMatchesRepairDefects(t *testing.T) {
	tr := healthyTrace()
	tr2 := tr.Filter(func(e trace.Event) bool {
		return !(e.Kind == trace.KindAwaitB && e.Iter == 1)
	})
	defects := trace.Audit(tr2)
	_, rep := trace.Repair(tr2)
	if len(defects) != len(rep.Defects) {
		t.Fatalf("Audit found %d defects, Repair %d", len(defects), len(rep.Defects))
	}
	// Audit must not modify its input.
	if tr2.CountKind(trace.KindAwaitB) != 3 {
		t.Fatal("Audit modified its input")
	}
}

func TestRepairReportSummary(t *testing.T) {
	rep := &trace.RepairReport{}
	if rep.Summary() != "clean" {
		t.Fatalf("empty report summary = %q", rep.Summary())
	}
	rep.Defects = append(rep.Defects,
		trace.Defect{Class: trace.DefectDuplicate},
		trace.Defect{Class: trace.DefectDuplicate},
		trace.Defect{Class: trace.DefectUnmatchedAwait},
	)
	got := rep.Summary()
	want := "3 defects: duplicate x2, unmatched-await x1"
	if got != want {
		t.Fatalf("Summary() = %q, want %q", got, want)
	}
}

// iterTrace builds a single-phase loop trace: a loop-begin marker, then
// iters iterations on one processor, each executing statements 1..3 with
// uniform spacing and closing with an advance.
func iterTrace(iters int) *trace.Trace {
	tr := trace.New(1)
	tr.Events = append(tr.Events, sev(0, 0, -1, trace.KindLoopBegin, trace.NoIter, trace.NoVar))
	t := trace.Time(10)
	for i := 0; i < iters; i++ {
		for s := 1; s <= 3; s++ {
			tr.Events = append(tr.Events, sev(t, 0, s, trace.KindCompute, i, trace.NoVar))
			t += 10
		}
		tr.Events = append(tr.Events, sev(t, 0, 9, trace.KindAdvance, i, 0))
		t += 10
	}
	tr.Sort()
	return tr
}

func TestRepairSynthesizesDroppedProbe(t *testing.T) {
	tr := iterTrace(20)
	// Drop statement 2 from iteration 7: the classic lost probe record.
	damaged := tr.Filter(func(e trace.Event) bool {
		return !(e.Kind == trace.KindCompute && e.Stmt == 2 && e.Iter == 7)
	})
	out, rep := trace.Repair(damaged)
	if got := rep.CountClass(trace.DefectDroppedProbe); got != 1 {
		t.Fatalf("dropped-probe defects = %d, want 1: %s", got, rep.Summary())
	}
	if rep.Synthesized != 1 {
		t.Fatalf("synthesized = %d, want 1", rep.Synthesized)
	}
	var synth []trace.Event
	for _, e := range out.Events {
		if e.Kind == trace.KindCompute && e.Stmt == 2 && e.Iter == 7 {
			synth = append(synth, e)
		}
	}
	if len(synth) != 1 {
		t.Fatalf("synthesized events for (stmt 2, iter 7) = %v, want exactly one", synth)
	}
	// The record must be rebuilt with the real statement id, inside the
	// gap its neighbours leave (stmt 1 at 290, stmt 3 at 310).
	if e := synth[0]; e.Time <= 290 || e.Time >= 310 {
		t.Fatalf("synthesized record at %d, want within (290, 310)", e.Time)
	}
	// Idempotent: the completed roster must satisfy the second pass.
	again, rep2 := trace.Repair(out)
	if rep2.Modified() || again.Len() != out.Len() {
		t.Fatalf("repair of repaired trace not idempotent: %s", rep2.Summary())
	}
}

func TestRepairDroppedProbeVoteIsConservative(t *testing.T) {
	// Too few iterations to vote: nothing may be synthesized.
	small := iterTrace(5)
	damaged := small.Filter(func(e trace.Event) bool {
		return !(e.Kind == trace.KindCompute && e.Stmt == 2 && e.Iter == 2)
	})
	_, rep := trace.Repair(damaged)
	if got := rep.CountClass(trace.DefectDroppedProbe); got != 0 {
		t.Fatalf("voted on %d dropped probes with only 5 iterations, want 0", got)
	}

	// A statement missing from many iterations is heterogeneity (a
	// conditional branch), not damage: no synthesis.
	hetero := iterTrace(20)
	hetero = hetero.Filter(func(e trace.Event) bool {
		return !(e.Kind == trace.KindCompute && e.Stmt == 2 && e.Iter%3 == 0)
	})
	_, rep = trace.Repair(hetero)
	if got := rep.CountClass(trace.DefectDroppedProbe); got != 0 {
		t.Fatalf("synthesized %d probes for a conditional statement, want 0", got)
	}
}

// ownBarriers is n processors, processor p with one compute at 2p and an
// arrival at barrier p at 2p+1: no barrier that every processor joins.
func ownBarriers(n int) *trace.Trace {
	tr := trace.New(n)
	for p := 0; p < n; p++ {
		tr.Events = append(tr.Events,
			sev(trace.Time(2*p), p, 1, trace.KindCompute, 0, trace.NoVar),
			sev(trace.Time(2*p+1), p, -2, trace.KindBarrierArrive, p, 0))
	}
	return tr
}

// TestRepairStaysLinearOnPrivateBarriers: truncated-tail synthesis
// assumes barriers that every processor joins. On processors that each
// arrive at a barrier of their own, it would give every processor with
// work before a barrier both its sides, barriers × processors events;
// repair instead completes each barrier's one participant with its
// release.
func TestRepairStaysLinearOnPrivateBarriers(t *testing.T) {
	tr := ownBarriers(1000)
	out, rep := trace.Repair(tr)
	if out.Len() > 3000 || rep.CountClass(trace.DefectTruncatedTail) != 0 {
		t.Fatalf("%d events repaired to %d (%s), want at most 3000 and no truncated tails", tr.Len(), out.Len(), rep.Summary())
	}
	if got := rep.CountClass(trace.DefectMissingRelease); got != 1000 {
		t.Fatalf("%d releases synthesized, want 1000: %s", got, rep.Summary())
	}
}

// sequentialBarriers is processor 0 arriving at barriers 0, 1 and 2, each
// release lost, beside k processors that only compute.
func sequentialBarriers(k int) *trace.Trace {
	tr := trace.New(k + 1)
	for b := 0; b < 3; b++ {
		tr.Events = append(tr.Events, sev(trace.Time(10*b+5), 0, -2, trace.KindBarrierArrive, b, 0))
	}
	for p := 1; p <= k; p++ {
		tr.Events = append(tr.Events, sev(trace.Time(p), p, 1, trace.KindCompute, 0, trace.NoVar))
	}
	return tr
}

// TestRepairTailChoiceIsIdempotent: whether truncated tails are
// synthesized must not turn on what repair itself adds. The releases it
// synthesizes for barriers that few processors joined grow the trace, and
// a second repair of its output must still choose no tails.
func TestRepairTailChoiceIsIdempotent(t *testing.T) {
	var inputs []*trace.Trace
	for n := 1; n <= 10; n++ {
		inputs = append(inputs, ownBarriers(n))
	}
	for k := 1; k <= 12; k++ {
		inputs = append(inputs, sequentialBarriers(k))
	}
	for _, tr := range inputs {
		once, rep1 := trace.Repair(tr)
		if _, rep2 := trace.Repair(once); rep2.Modified() {
			t.Errorf("%d processors, %d events: second repair modified again\nfirst: %s\nsecond: %s",
				tr.Procs, tr.Len(), rep1.Summary(), rep2.Summary())
		}
	}
}
