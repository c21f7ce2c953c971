package order_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/loops"
	"perturb/internal/machine"
	"perturb/internal/order"
	"perturb/internal/testgen"
	"perturb/internal/trace"
)

// FuzzCriticalPath compares CriticalPath with the reference walk on
// arbitrary decodable text traces put in canonical order: both return
// the same path, or both find a dependence cycle, or both refuse the
// trace with the same validation error. dprocs is added to the header's
// processor count, which the text codec keeps non-negative, so that the
// fuzzer reaches negative counts too.
func FuzzCriticalPath(f *testing.F) {
	text := func(tr *trace.Trace) []byte {
		var b bytes.Buffer
		if err := tr.WriteText(&b); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	// The 100k-event wave approximated under the paper's probe costs,
	// where each iteration's awaitB ties the advance before it.
	cfg, ovh := machine.Alliant(), loops.PaperOverheads()
	wave, err := core.Analyze(testgen.BackwardWave(8, 25000),
		instr.Exact(ovh, cfg.SNoWait, cfg.SWait, cfg.AdvanceOp, cfg.Barrier), core.Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(text(wave.Trace), int8(0))
	f.Add(text(cyclicTrace(f)), int8(0))
	const h = "# perturb-trace v1 procs=2\n"
	for _, seed := range []struct {
		trace  string
		dprocs int8
	}{
		// An awaitE timed with its key's first advance but sorted before it.
		{h + "1 p0 s1 awaitB i0 v0\n5 p0 s1 awaitE i0 v0\n5 p1 s2 advance i0 v0\n6 p0 s3 compute i1 v-1\n", 0},
		// A barrier release with an arrival at its time after it.
		{h + "1 p0 s-2 barrier-arrive i0 v0\n3 p0 s-3 barrier-release i0 v0\n5 p0 s1 compute i0 v-1\n" +
			"3 p1 s-2 barrier-arrive i0 v0\n4 p1 s-3 barrier-release i0 v0\n", 0},
		// A release sorted before its own processor's arrival at its
		// time: a cycle through a barrier.
		{h + "1 p0 s-2 barrier-arrive i0 v0\n3 p0 s-3 barrier-release i0 v0\n" +
			"3 p1 s-2 barrier-arrive i0 v0\n3 p1 s-3 barrier-release i0 v0\n", 0},
		// A lock handed from p0 to p1 and back.
		{h + "1 p0 s1 lock-req i0 v4\n2 p0 s1 lock-acq i0 v4\n9 p0 s1 lock-rel i0 v4\n" +
			"1 p1 s1 lock-req i1 v4\n10 p1 s1 lock-acq i1 v4\n15 p1 s1 lock-rel i1 v4\n" +
			"11 p0 s1 lock-req i2 v4\n16 p0 s1 lock-acq i2 v4\n20 p0 s1 lock-rel i2 v4\n", 0},
		// Two loop phases, each forking p1 from p0's loop-begin.
		{h + "0 p0 s-1 loopbegin i-1 v-1\n2 p1 s1 compute i0 v-1\n3 p0 s1 compute i1 v-1\n" +
			"4 p0 s-2 barrier-arrive i0 v0\n5 p1 s-2 barrier-arrive i0 v0\n" +
			"6 p0 s-3 barrier-release i0 v0\n6 p1 s-3 barrier-release i0 v0\n" +
			"7 p0 s-1 loopbegin i-1 v-1\n9 p1 s2 compute i0 v-1\n12 p0 s2 compute i1 v-1\n", 0},
		// A negative processor count.
		{h + "1 p0 s1 compute i0 v-1\n", -3},
		// An event on a processor past Procs.
		{h + "1 p0 s1 compute i0 v-1\n2 p2 s1 compute i0 v-1\n", 0},
	} {
		f.Add([]byte(seed.trace), seed.dprocs)
	}
	f.Fuzz(func(t *testing.T, data []byte, dprocs int8) {
		tr, err := trace.ReadText(bytes.NewReader(data))
		if err != nil {
			return
		}
		tr.Procs += int(dprocs)
		tr.Sort()
		got, err := order.CriticalPath(tr)
		if tr.Procs == 0 && tr.Len() > 0 {
			// The reference validates as Validate does, discovering
			// processors; CriticalPath refuses every event instead.
			if !errors.Is(err, trace.ErrBadProc) {
				t.Fatalf("CriticalPath with procs=0 = %v, %v; want ErrBadProc", got, err)
			}
			return
		}
		want, cyclic, wantErr := refCriticalPath(tr)
		switch {
		case wantErr != nil:
			if err == nil || err.Error() != wantErr.Error() || !errors.Is(err, trace.ErrMalformedTrace) {
				t.Fatalf("CriticalPath = %v, %v; the reference refused the trace with %v", got, err, wantErr)
			}
		case cyclic:
			if !errors.Is(err, trace.ErrMalformedTrace) {
				t.Fatalf("CriticalPath = %v, %v; the reference walk cycles", got, err)
			}
		case err != nil:
			t.Fatalf("CriticalPath failed: %v", err)
		case !reflect.DeepEqual(got, want):
			t.Fatalf("critical path differs from the reference:\n got %v\nwant %v", got, want)
		}
	})
}
