package perturb_test

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"

	"perturb"
	"perturb/internal/obs"
	"perturb/internal/testgen"
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
		bigCal = perturb.Calibration{
			Overheads: perturb.UniformOverheads(2),
			SNoWait:   5,
			SWait:     8,
			AdvanceOp: 3,
			Barrier:   4,
		}
	})
	return bigTrace, bigCal
}

func BenchmarkEventBasedMillionSequential(b *testing.B) {
	tr, cal := bigBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := perturb.Analyze(tr, cal, perturb.AnalyzeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len())/1e6, "Mevents")
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
// streaming session on the million-event workload, both fed from the
// same encoded bytes — the numbers EXPERIMENTS.md's "Streaming
// incremental analysis" section quotes. The liveMB metric is the heap
// retained right before the final result is computed: batch holds the
// fully decoded trace (and retains the approximated one), while the
// low-memory stream holds only per-processor frontier state, so its
// footprint is independent of trace length.
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
	b.Run("stream=lowmem", func(b *testing.B) {
		base := liveMB()
		var retained float64
		for i := 0; i < b.N; i++ {
			r, err := perturb.NewTraceReader(bytes.NewReader(enc))
			if err != nil {
				b.Fatal(err)
			}
			sa, err := perturb.NewStreamAnalyzer(cal, perturb.StreamOptions{
				Procs: r.Procs(), LowMemory: true,
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
