package perturb_test

import (
	"bytes"
	"math/rand"
	"testing"

	"perturb"
	"perturb/internal/order"
	"perturb/internal/testgen"
)

// Metamorphic suite for trace slicing (ISSUE 6): analyzing the causally
// sufficient slice must yield exactly the approximated times the
// full-trace analysis assigns to the same events. The comparison is
// byte-for-byte: the slice's approximated trace, rendered in the text
// codec, against the full approximation restricted to the slice's events.

// sliceQueries generates the query set for a trace: identity cases, each
// constraint dimension alone, combinations, and match-nothing.
func sliceQueries(tr *perturb.Trace) map[string]perturb.SliceQuery {
	start, end := tr.Start(), tr.End()
	mid := start + (end-start)/2
	qs := map[string]perturb.SliceQuery{
		"identity-empty":  {},
		"identity-window": {HasWindow: true, From: start, To: end},
		"window-early":    {HasWindow: true, From: start, To: mid},
		"window-mid":      {HasWindow: true, From: start + (end-start)/4, To: start + 3*(end-start)/4},
		"proc0":           {Procs: []int{0}},
		"proc-last":       {Procs: []int{tr.Procs - 1}},
		"kind-awaitE":     {Kinds: []perturb.Kind{perturb.KindAwaitE}},
		"kind-lockacq":    {Kinds: []perturb.Kind{perturb.KindLockAcq}},
		"kind-barrier":    {Kinds: []perturb.Kind{perturb.KindBarrierRelease}},
		"stmt1":           {Stmts: []int{1}},
		"stmt-pair":       {Stmts: []int{2, 3}},
		"proc-kind":       {Procs: []int{tr.Procs - 1}, Kinds: []perturb.Kind{perturb.KindAwaitE}},
		"window-proc":     {HasWindow: true, From: start, To: mid, Procs: []int{0}},
		"window-kind":     {HasWindow: true, From: mid, To: end, Kinds: []perturb.Kind{perturb.KindCompute}},
		"nothing":         {HasWindow: true, From: end + 1000, To: end + 2000},
	}
	return qs
}

// restrictApprox projects the full-trace approximation onto the slice's
// events (by input index, mapped to the approximated trace with
// order.Align) and renders it canonically.
func restrictApprox(t *testing.T, tr *perturb.Trace, full *perturb.Approximation, indices []int) *perturb.Trace {
	t.Helper()
	match, err := order.Align(tr, full.Trace)
	if err != nil {
		t.Fatal(err)
	}
	out := perturb.NewTrace(tr.Procs)
	for _, idx := range indices {
		out.Append(full.Trace.Events[match[idx]])
	}
	out.Sort()
	return out
}

// checkSliceAgainstFull asserts the metamorphic property for one trace
// and one query, byte-for-byte. The full analysis is computed once by the
// caller; a nil full means the full trace does not analyze (the trace is
// then skipped for non-identity queries).
func checkSliceAgainstFull(t *testing.T, tr *perturb.Trace, full *perturb.Approximation, cal perturb.Calibration, q perturb.SliceQuery) {
	t.Helper()
	sl, rep, err := perturb.Slice(tr, q)
	if err != nil {
		t.Fatalf("slice: %v", err)
	}
	if rep.Kept != sl.Len() || len(rep.Indices) != sl.Len() {
		t.Fatalf("report inconsistent: kept=%d indices=%d events=%d", rep.Kept, len(rep.Indices), sl.Len())
	}
	if rep.Selected > rep.Kept || rep.Kept > rep.Total {
		t.Fatalf("report inconsistent: selected=%d kept=%d total=%d", rep.Selected, rep.Kept, rep.Total)
	}

	// Identity case: a query matching every event must slice to the whole
	// trace, byte-for-byte.
	if rep.Selected == tr.Len() {
		if !bytes.Equal(encodeText(t, sl), encodeText(t, tr)) {
			t.Fatal("identity query did not reproduce the whole trace")
		}
	}
	// Match-nothing case: empty selection closes to the empty trace.
	if rep.Selected == 0 {
		if sl.Len() != 0 {
			t.Fatalf("empty selection kept %d events", sl.Len())
		}
		return
	}
	if full == nil {
		return
	}

	approxSlice, err := perturb.Analyze(sl, cal, perturb.AnalyzeOptions{})
	if err != nil {
		t.Fatalf("analyzing slice: %v", err)
	}
	want := encodeText(t, restrictApprox(t, tr, full, rep.Indices))
	got := encodeText(t, approxSlice.Trace)
	if !bytes.Equal(got, want) {
		t.Errorf("slice analysis diverged from restricted full analysis\nslice (%d/%d events):\n%s\nwant:\n%s",
			sl.Len(), tr.Len(), got, want)
	}
}

func TestSliceGoldenMetamorphic(t *testing.T) {
	cal := goldenCal()
	for name, tr := range goldenTraces() {
		t.Run(name, func(t *testing.T) {
			full, err := perturb.Analyze(tr, cal, perturb.AnalyzeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for qname, q := range sliceQueries(tr) {
				t.Run(qname, func(t *testing.T) {
					checkSliceAgainstFull(t, tr, full, cal, q)
				})
			}
		})
	}
}

// TestSliceGeneratedMetamorphic runs the same property over random
// well-formed traces and random queries. Traces the full analysis rejects
// (random synchronization can deadlock) are exercised for slicing
// robustness only.
func TestSliceGeneratedMetamorphic(t *testing.T) {
	cal := goldenCal()
	r := rand.New(rand.NewSource(42))
	analyzed := 0
	for i := 0; i < 40; i++ {
		tr := testgen.Trace(r)
		if tr.Len() == 0 {
			continue
		}
		var full *perturb.Approximation
		if a, err := perturb.Analyze(tr, cal, perturb.AnalyzeOptions{}); err == nil {
			full = a
			analyzed++
		}
		for qname, q := range sliceQueries(tr) {
			checkSliceAgainstFull(t, tr, full, cal, q)
			_ = qname
		}
		// A few random queries per trace on top of the structured set.
		for j := 0; j < 3; j++ {
			var q perturb.SliceQuery
			if r.Intn(2) == 0 {
				q.Procs = []int{r.Intn(tr.Procs)}
			}
			if r.Intn(2) == 0 {
				q.Kinds = []perturb.Kind{perturb.Kind(r.Intn(8))}
			}
			if r.Intn(2) == 0 {
				d := tr.End() - tr.Start()
				from := tr.Start() + perturb.Time(r.Int63n(int64(d)+1))
				q.HasWindow = true
				q.From = from
				q.To = from + perturb.Time(r.Int63n(int64(d)+1))
			}
			checkSliceAgainstFull(t, tr, full, cal, q)
		}
	}
	if analyzed == 0 {
		t.Fatal("no generated trace analyzed cleanly; the metamorphic property was never exercised")
	}
}

// TestSliceBackwardWave pins the property on the deterministic DOACROSS
// workload the benchmarks use, including its closing barrier.
func TestSliceBackwardWave(t *testing.T) {
	cal := goldenCal()
	tr := testgen.BackwardWave(4, 200)
	full, err := perturb.Analyze(tr, cal, perturb.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for qname, q := range sliceQueries(tr) {
		t.Run(qname, func(t *testing.T) {
			checkSliceAgainstFull(t, tr, full, cal, q)
		})
	}
}

// TestSliceTraceColumnarPushdown checks the file-level entry point: the
// slice computed from a columnar stream with block skipping is
// byte-identical to the slice of the fully decoded trace, and narrow
// windows actually skip blocks.
func TestSliceTraceColumnarPushdown(t *testing.T) {
	tr := testgen.BackwardWave(4, 16000) // ~64k events, 16 blocks
	var buf bytes.Buffer
	w, err := perturb.NewTraceColumnarWriter(&buf, tr.Procs)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(tr.Events); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()

	dur := tr.End() - tr.Start()
	for name, q := range map[string]perturb.SliceQuery{
		"narrow-early": {HasWindow: true, From: tr.Start() + dur/20, To: tr.Start() + dur/10},
		"narrow-proc":  {HasWindow: true, From: tr.Start(), To: tr.Start() + dur/8, Procs: []int{2}},
		"no-window":    {Procs: []int{1}},
	} {
		t.Run(name, func(t *testing.T) {
			fromFile, frep, err := perturb.SliceTrace(bytes.NewReader(enc), q)
			if err != nil {
				t.Fatal(err)
			}
			inMem, _, err := perturb.Slice(tr, q)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeText(t, fromFile), encodeText(t, inMem)) {
				t.Error("file-level slice with block skipping differs from in-memory slice")
			}
			if q.HasWindow {
				if frep.BlocksSkipped == 0 {
					t.Errorf("narrow window skipped no blocks (read %d)", frep.BlocksRead)
				}
			}
		})
	}
}
