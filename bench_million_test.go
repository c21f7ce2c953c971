package perturb_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"perturb"
	"perturb/internal/core"
	"perturb/internal/obs"
	"perturb/internal/server"
	"perturb/internal/testgen"
	"perturb/internal/trace"
)

// Million-event benchmarks for the event-based engine, batch and
// streaming.
//
// The workload is a backward-wave DOACROSS: iteration i runs on processor
// P-1-(i mod P), so the cross-iteration dependency chain snakes against
// processor order. A fixpoint that rescans processors in order resolves
// only one iteration per pass here — O(iterations x processors) blocked
// re-checks — while the park/wake engine performs at most one wakeup per
// dependency edge and merges the finished per-processor runs instead of
// re-sorting the whole trace.

const (
	benchProcs = 8
	benchIters = 250_000 // ~1M events at 4 events per iteration
)

var (
	bigOnce  sync.Once
	bigTrace *perturb.Trace
	bigCal   perturb.Calibration
)

func bigBench(b *testing.B) (*perturb.Trace, perturb.Calibration) {
	b.Helper()
	return bigWorkload()
}

// bigWorkload builds (once) the million-event backward-wave trace shared
// by the engine benchmarks and the columnar codec's effectiveness tests.
func bigWorkload() (*perturb.Trace, perturb.Calibration) {
	bigOnce.Do(func() {
		bigTrace = testgen.BackwardWave(benchProcs, benchIters)
		if err := bigTrace.Validate(); err != nil {
			panic(err)
		}
		bigCal = benchCals[0].cal
	})
	return bigTrace, bigCal
}

// benchCal is a named calibration of the million-event benchmarks.
type benchCal struct {
	name string
	cal  perturb.Calibration
}

// benchCals are the calibrations the engine and critical-path
// benchmarks run under. uniform2 charges every probe 2 ns; under it each
// processor's approximated run of the wave is already in (time,
// statement) order. paper is the paper's probe costs on the Alliant, the
// calibration perturb and perfbench's batch-wave use: under it each
// iteration's awaitB ties the advance before it at a lower statement id,
// 250,000 times on the wave, so putting the approximation in canonical
// order has runs to untangle.
var benchCals = []benchCal{
	{"uniform2", perturb.Calibration{Overheads: perturb.UniformOverheads(2), SNoWait: 5, SWait: 8, AdvanceOp: 3, Barrier: 4}},
	{"paper", perturb.ExactCalibration(perturb.PaperOverheads(), perturb.Alliant())},
}

func BenchmarkEventBasedMillionSequential(b *testing.B) {
	tr, _ := bigBench(b)
	for _, c := range benchCals {
		b.Run("cal="+c.name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := perturb.Analyze(tr, c.cal, perturb.AnalyzeOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tr.Len())/1e6, "Mevents")
		})
	}
}

// BenchmarkObsOverhead times the default event-based analysis with the
// telemetry layer disabled and enabled: the on/off delta is the
// self-perturbation of our own instrumentation, which the obs design
// (gated flushes off the hot path) is required to keep under a few
// percent. Compare the two sub-benchmarks' ns/op.
func BenchmarkObsOverhead(b *testing.B) {
	tr, cal := bigBench(b)
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run("telemetry="+name, func(b *testing.B) {
			obs.SetEnabled(on)
			defer obs.SetEnabled(false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := perturb.Analyze(tr, cal, perturb.AnalyzeOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tr.Len())/1e6, "Mevents")
		})
	}
}

// BenchmarkStreamMillion compares whole-trace batch analysis against the
// streaming sessions on the million-event workload, all fed from the
// same encoded bytes — the numbers EXPERIMENTS.md's "Streaming
// incremental analysis" section quotes. The liveMB metric is the heap
// retained right before the final result is computed: batch holds the
// fully decoded trace (and retains the approximated one), the retained
// stream its event log, while the low-memory stream holds only
// per-processor frontier state, so its footprint is independent of
// trace length.
func BenchmarkStreamMillion(b *testing.B) {
	tr, cal := bigBench(b)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		b.Fatal(err)
	}
	enc := buf.Bytes()
	liveMB := func() float64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / (1 << 20)
	}
	ctx := context.Background()

	b.Run("batch=decode+analyze", func(b *testing.B) {
		base := liveMB()
		var retained float64
		for i := 0; i < b.N; i++ {
			r, err := perturb.NewTraceReader(bytes.NewReader(enc))
			if err != nil {
				b.Fatal(err)
			}
			dec, err := perturb.ReadTrace(r)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				retained = liveMB() - base
			}
			if _, err := perturb.Analyze(dec, cal, perturb.AnalyzeOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(retained, "liveMB")
	})
	for _, lowMem := range []bool{true, false} {
		name := "stream=retained"
		if lowMem {
			name = "stream=lowmem"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			base := liveMB()
			var retained float64
			for i := 0; i < b.N; i++ {
				r, err := perturb.NewTraceReader(bytes.NewReader(enc))
				if err != nil {
					b.Fatal(err)
				}
				sa, err := perturb.NewStreamAnalyzer(cal, perturb.StreamOptions{
					Procs: r.Procs(), LowMemory: lowMem,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := sa.FeedReader(ctx, r); err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					retained = liveMB() - base
				}
				if _, err := sa.Close(ctx); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(retained, "liveMB")
		})
	}
}

// Derived statistics on the approximated million-event wave: Table 3's
// waiting, Figure 5's parallelism and the critical path, each one pass
// over the approximation as a batch-wave op computes them.

// bigApprox holds the wave approximated under each calibration, by name.
// Benchmarks run one at a time, so it needs no lock.
var bigApprox = map[string]*perturb.Approximation{}

// bigApproximation returns the wave approximated under c, computed once
// per calibration.
func bigApproximation(b *testing.B, c benchCal) (*perturb.Trace, perturb.Calibration) {
	b.Helper()
	tr, _ := bigBench(b)
	if bigApprox[c.name] == nil {
		a, err := perturb.Analyze(tr, c.cal, perturb.AnalyzeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		bigApprox[c.name] = a
	}
	return bigApprox[c.name].Trace, c.cal
}

func BenchmarkWaitingMillion(b *testing.B) {
	tr, cal := bigApproximation(b, benchCals[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := perturb.Waiting(tr, cal); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParallelismMillion(b *testing.B) {
	tr, cal := bigApproximation(b, benchCals[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := perturb.Parallelism(tr, cal); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCriticalPathMillion(b *testing.B) {
	for _, c := range benchCals {
		b.Run("cal="+c.name, func(b *testing.B) {
			tr, _ := bigApproximation(b, c)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := perturb.AnalyzeCriticalPath(tr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDerivedStatisticsAllocation gates what the derived statistics
// allocate on a backward wave of 100k events approximated under each of
// benchCals: the metrics walk keeps per-processor state only, and the
// critical path allocates one 32-bit binding predecessor and one bit per
// event, its pairing tables, and its Steps, one 32-bit index per step.
// Under the paper's calibration the path passes through nearly every
// event. The test is not parallel, so TotalAlloc counts only the call it
// brackets.
func TestDerivedStatisticsAllocation(t *testing.T) {
	allocated := func(t *testing.T, f func() error) uint64 {
		t.Helper()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := f(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, c := range benchCals {
		t.Run("cal="+c.name, func(t *testing.T) {
			a, err := perturb.Analyze(testgen.BackwardWave(8, 25000), c.cal, perturb.AnalyzeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			tr, cal := a.Trace, c.cal
			for name, f := range map[string]func() error{
				"Timeline":    func() error { _, err := perturb.Timeline(tr, cal); return err },
				"Waiting":     func() error { _, err := perturb.Waiting(tr, cal); return err },
				"Parallelism": func() error { _, err := perturb.Parallelism(tr, cal); return err },
			} {
				got := allocated(t, f)
				t.Logf("%s: %d B", name, got)
				if got >= 64<<10 {
					t.Errorf("%s allocated %d B on %d events, want under 64 KiB", name, got, tr.Len())
				}
			}
			var path *perturb.CriticalPath
			got := allocated(t, func() (err error) { path, err = perturb.AnalyzeCriticalPath(tr); return err })
			perEvent := float64(got) / float64(tr.Len())
			t.Logf("AnalyzeCriticalPath: %d B, %.1f B/event, %d steps", got, perEvent, len(path.Steps))
			if perEvent > 13 {
				t.Errorf("AnalyzeCriticalPath allocated %.1f B/event on %d events, want at most 13", perEvent, tr.Len())
			}
		})
	}
}

// TestAnalyzeAllocationPerEvent gates what the default analysis allocates
// per event on a 100k-event backward wave under the paper's calibration,
// where every DOACROSS iteration's awaitB ties the advance before it and
// the canonical order has to splice it in: the engine's retained times,
// its records and pairing tables, and the merged approximation. The test
// is not parallel, so TotalAlloc counts only the call it brackets. The
// calibration is benchCals' paper entry, the one the cal=paper benchmarks
// run under.
func TestAnalyzeAllocationPerEvent(t *testing.T) {
	tr := testgen.BackwardWave(8, 25000)
	cal := benchCals[1].cal
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := perturb.Analyze(tr, cal, perturb.AnalyzeOptions{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / float64(tr.Len())
	t.Logf("Analyze: %.1f B/event on %d events", perEvent, tr.Len())
	if perEvent > 84 {
		t.Errorf("Analyze allocated %.1f B per event on %d events, want at most 84", perEvent, tr.Len())
	}
}

// TestUncollectedAnalysisAllocationPerEvent gates perturbd's batch form
// of the analysis TestAnalyzeAllocationPerEvent gates, on the same wave
// and calibration: core.AnalyzeUncollected and server.BuildResponse,
// whose fingerprint streams the canonical merge into SHA-256 instead of
// collecting the 48 B per event of a re-timed trace. Not parallel, like
// the bound beside it.
func TestUncollectedAnalysisAllocationPerEvent(t *testing.T) {
	tr := testgen.BackwardWave(8, 25000)
	cal := benchCals[1].cal
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a, err := core.AnalyzeUncollected(context.Background(), tr, cal, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := server.BuildResponse(a)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if a.Trace != nil || resp.Events != tr.Len() {
		t.Fatalf("uncollected analysis: trace %v, response of %d events; want no trace and %d events", a.Trace, resp.Events, tr.Len())
	}
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / float64(tr.Len())
	t.Logf("AnalyzeUncollected and BuildResponse: %.1f B/event on %d events", perEvent, tr.Len())
	if perEvent > 40 {
		t.Errorf("AnalyzeUncollected and BuildResponse allocated %.1f B per event on %d events, want at most 40", perEvent, tr.Len())
	}
}

// TestAnalyzeResultHoldsOnlyItsTrace: a collected Approximation keeps its
// re-timed trace alive (48 B per event) and not the engine's log behind
// it. The live heap the result adds, read after a GC, may exceed the
// trace by 10%. Not parallel: it reads the process-wide heap.
func TestAnalyzeResultHoldsOnlyItsTrace(t *testing.T) {
	tr := testgen.BackwardWave(8, 25000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	a, err := perturb.Analyze(tr, benchCals[1].cal, perturb.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	held := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	limit := 1.1 * float64(a.Trace.Len()) * float64(unsafe.Sizeof(trace.Event{}))
	t.Logf("the result holds %.0f bytes live, %.1f B/event", held, held/float64(tr.Len()))
	if held > limit {
		t.Errorf("the result holds %.0f bytes live, its trace's events plus 10%% is %.0f", held, limit)
	}
	runtime.KeepAlive(tr)
}

// TestRepairAllocationPerEvent gates what one RepairTrace allocates per
// event: on LL3 with 1% of its records dropped, where the sanitizer
// synthesizes brackets and probe records, and on the clean 100k-event
// backward wave, where it only reads. Repair's working copy of the trace
// is 48 B per event.
func TestRepairAllocationPerEvent(t *testing.T) {
	for name, tr := range map[string]*perturb.Trace{
		"LL3-drops": droppedLL3(t),
		"wave":      testgen.BackwardWave(8, 25000),
	} {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		perturb.RepairTrace(tr)
		runtime.ReadMemStats(&after)
		perEvent := float64(after.TotalAlloc-before.TotalAlloc) / float64(tr.Len())
		t.Logf("%s: %.1f B/event on %d events", name, perEvent, tr.Len())
		if perEvent > 240 {
			t.Errorf("%s: RepairTrace allocated %.1f B per event on %d events, want at most 240", name, perEvent, tr.Len())
		}
	}
}

// droppedLL3 is LL3 simulated on the Alliant with every probe costing
// 2 µs, under 1% dropped probe and sync records (15,884 events).
func droppedLL3(tb testing.TB) *perturb.Trace {
	tb.Helper()
	l, err := perturb.LivermoreLoop(3)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := perturb.Simulate(l, perturb.FullInstrumentation(perturb.UniformOverheads(2000), true), perturb.Alliant())
	if err != nil {
		tb.Fatal(err)
	}
	damaged, _ := perturb.InjectFaults(res.Trace, perturb.DropFaults(0.01, 3))
	return damaged
}

// probeLoop returns one loop phase of iters iterations, dealt round robin
// to 8 processors, each running 10 computes, with a seeded 1% of the
// compute records dropped: Repair's roster vote finds every one.
func probeLoop(iters int) *perturb.Trace {
	const procs, stmts = 8, 10
	r := rand.New(rand.NewSource(1))
	tr := perturb.NewTrace(procs)
	tr.Append(trace.Event{Stmt: -1, Kind: trace.KindLoopBegin, Iter: trace.NoIter, Var: trace.NoVar})
	clock := make([]perturb.Time, procs)
	for it := range iters {
		p := it % procs
		for s := range stmts {
			clock[p] += 100
			if r.Intn(100) != 0 {
				tr.Append(trace.Event{Time: clock[p], Stmt: s, Proc: p, Kind: trace.KindCompute, Iter: it, Var: trace.NoVar})
			}
		}
	}
	tr.Sort()
	return tr
}

// tieGroup returns n distinct computes that share a time, processor and
// statement: one tie group of the trace order.
func tieGroup(n int) *perturb.Trace {
	tr := perturb.NewTrace(1)
	for it := range n {
		tr.Append(trace.Event{Time: 1000, Stmt: 1, Kind: trace.KindCompute, Iter: it, Var: trace.NoVar})
	}
	return tr
}

// repairSink keeps BenchmarkRepair's result alive.
var repairSink *perturb.Trace

// BenchmarkRepair times RepairTrace on LL3 with dropped records, the
// clean 100k-event backward wave, the dropped-probe loop at two sizes
// (its time per event should not grow with the trace) and a
// 40,000-event tie group.
func BenchmarkRepair(b *testing.B) {
	cases := []struct {
		name string
		tr   *perturb.Trace
	}{
		{"LL3-drops", droppedLL3(b)},
		{"wave", testgen.BackwardWave(8, 25000)},
		{"probe-loop-54k", probeLoop(5500)},
		{"probe-loop-436k", probeLoop(44000)},
		{"ties-40k", tieGroup(40000)},
	}
	for _, c := range cases {
		b.Run(fmt.Sprintf("%s/events=%d", c.name, c.tr.Len()), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				repairSink, _ = perturb.RepairTrace(c.tr)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.tr.Len()), "ns/event")
		})
	}
}
