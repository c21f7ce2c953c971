package trace_test

import (
	"bytes"
	"hash/fnv"
	"math"
	"testing"

	"perturb/internal/trace"
)

// FuzzRepair holds the sanitizer's contract over arbitrary decodable
// input: Repair never panics, its output always passes Validate and
// grows at most linearly with its input, repairing its own output
// performs no further modifications (repair is idempotent), and repair
// commutes with a time shift. The corpus reuses the text-codec seeds so
// the fuzzer explores realistic traces, not just headers.
func FuzzRepair(f *testing.F) {
	seedGolden(f, ".txt")
	f.Add([]byte("# perturb-trace v1 procs=2\n10 p0 s1 compute i0 v-1\n20 p0 s2 advance i0 v7\n12 p1 s3 awaitB i0 v7\n25 p1 s3 awaitE i0 v7\n"))
	// Broken brackets, a duplicate, and a causality violation.
	f.Add([]byte("# perturb-trace v1 procs=2\n25 p1 s3 awaitE i0 v7\n25 p1 s3 awaitE i0 v7\n40 p0 s2 advance i0 v7\n"))
	// Barrier with a missing side and a truncated processor.
	f.Add([]byte("# perturb-trace v1 procs=3\n10 p0 s1 compute i0 v-1\n20 p0 s-2 barrier-arrive i0 v0\n30 p0 s-2 barrier-release i0 v0\n21 p1 s-2 barrier-arrive i0 v0\n11 p2 s1 compute i0 v-1\n"))
	// Five processors, each arriving at a barrier of its own: too few
	// joined pairs for truncated tails, before and after repair.
	f.Add([]byte("# perturb-trace v1 procs=5\n0 p0 s1 compute i0 v-1\n1 p0 s-2 barrier-arrive i0 v0\n2 p1 s1 compute i0 v-1\n3 p1 s-2 barrier-arrive i1 v0\n" +
		"4 p2 s1 compute i0 v-1\n5 p2 s-2 barrier-arrive i2 v0\n6 p3 s1 compute i0 v-1\n7 p3 s-2 barrier-arrive i3 v0\n8 p4 s1 compute i0 v-1\n9 p4 s-2 barrier-arrive i4 v0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.ReadText(bytes.NewReader(data))
		if err != nil {
			return
		}
		once, rep1 := trace.Repair(tr)
		if err := once.Validate(); err != nil {
			t.Fatalf("repair output fails Validate: %v\nreport: %v", err, rep1.Summary())
		}
		// Every synthesized event answers events present. Completing
		// brackets adds at most one per input event (x2). Completing
		// barriers adds at most one missing side per barrier event, or
		// with truncated tails at most twice barriers × processors, which
		// is at most four times the input's events (x6 in all). Dropped
		// probes add at most a ninth of the computes (x10/9). So the
		// output holds at most 6*10/9 < 7 times the input's events, plus
		// a constant of 0: an empty trace stays empty.
		if len(once.Events) > 7*len(tr.Events) {
			t.Fatalf("repair grew %d events to %d, more than 7 times\nreport: %v", len(tr.Events), len(once.Events), rep1.Summary())
		}
		twice, rep2 := trace.Repair(once)
		if rep2.Modified() {
			t.Fatalf("repair not idempotent: second pass removed=%d synthesized=%d retimed=%d\nfirst: %v\nsecond: %v",
				rep2.Removed, rep2.Synthesized, rep2.Retimed, rep1.Summary(), rep2.Summary())
		}
		if len(twice.Events) != len(once.Events) {
			t.Fatalf("repair not idempotent: %d -> %d events", len(once.Events), len(twice.Events))
		}
		for i := range once.Events {
			if twice.Events[i] != once.Events[i] {
				t.Fatalf("repair not idempotent: event %d drifted %v -> %v",
					i, once.Events[i], twice.Events[i])
			}
		}
		// The shift comes from the input's bytes (the committed corpus
		// holds single-argument entries): up to 2^10 ns either way, which
		// moves times across zero, and up to 2^43.
		h := fnv.New64a()
		h.Write(data)
		for _, d := range []trace.Time{trace.Time(int64(h.Sum64()) >> 53), trace.Time(int64(h.Sum64()) >> 20)} {
			checkShift(t, tr, once, rep1, d)
		}
	})
}

// checkShift fails t unless repairing tr shifted by d gives its repair
// out, with report rep, shifted by d: the same events and processor
// count, the same modification counts, and the same defects but for
// their Details, which print times. A trace with a time beyond ±2^60 is
// skipped, so that neither the shift nor repair's arithmetic overflows.
func checkShift(t *testing.T, tr, out *trace.Trace, rep *trace.RepairReport, d trace.Time) {
	t.Helper()
	shift := func(tr *trace.Trace) *trace.Trace {
		c := tr.Clone()
		for i := range c.Events {
			c.Events[i].Time += d
		}
		return c
	}
	for _, e := range tr.Events {
		if e.Time > math.MaxInt64>>3 || e.Time < math.MinInt64>>3 {
			return
		}
	}
	got, grep := trace.Repair(shift(tr))
	want := shift(out)
	if got.Procs != want.Procs || len(got.Events) != len(want.Events) ||
		grep.Removed != rep.Removed || grep.Synthesized != rep.Synthesized || grep.Retimed != rep.Retimed ||
		len(grep.Defects) != len(rep.Defects) {
		t.Fatalf("shifted by %d: %d events on %d procs (%s), want %d on %d (%s)", d,
			len(got.Events), got.Procs, grep.Summary(), len(want.Events), want.Procs, rep.Summary())
	}
	for i := range want.Events {
		if got.Events[i] != want.Events[i] {
			t.Fatalf("shifted by %d: event %d is %v, want %v", d, i, got.Events[i], want.Events[i])
		}
	}
	for i, w := range rep.Defects {
		if g := grep.Defects[i]; g.Class != w.Class || g.Action != w.Action || g.Proc != w.Proc || g.Key != w.Key {
			t.Fatalf("shifted by %d: defect %d is %v, want %v", d, i, g, w)
		}
	}
}
