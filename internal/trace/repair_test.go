package trace_test

import (
	"errors"
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
