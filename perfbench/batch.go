package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"perturb"
	"perturb/internal/server"
	"perturb/internal/testgen"
)

// batch-wave: the million-event backward wave, analyzed the way
// `perturb -load FILE -waiting -critpath` does, plus the Figure 5
// parallelism profile. The server, cache and client do no work here, so
// this workload isolates the batch engine. The wave is fixed; the seed
// does not change it.

const (
	waveProcs = 8
	waveIters = 250000
)

// waveExpected holds the values every batch-wave op must reproduce. They
// are committed in testdata/batch_wave.json (regenerate with
// `go test -run TestBatchWaveExpected -update`).
type waveExpected struct {
	Events         int     `json:"events"`
	TraceSHA256    string  `json:"trace_sha256"`
	WaitingNS      []int64 `json:"waiting_ns"`
	AvgParallelism float64 `json:"avg_parallelism"`
	CriticalPathNS int64   `json:"critical_path_ns"`
}

//go:embed testdata/batch_wave.json
var waveExpectedJSON []byte

// waveOutput is what one op computes.
type waveOutput struct {
	approx   *perturb.Approximation
	waiting  []perturb.ProcWaiting
	percent  []float64
	avgPar   float64
	critPath *perturb.CriticalPath
}

// waveOp is one batch-wave op: columnar bytes to every result. Each call
// into a layer is a span when rec is non-nil.
func waveOp(ctx context.Context, data []byte, cal perturb.Calibration, rec *recorder, op int64) (*waveOutput, error) {
	root := rec.begin("batch.op", -1, op)
	defer rec.end(root)

	sp := rec.begin("trace.decode", root, op)
	r, err := perturb.NewTraceReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	m, err := perturb.ReadTraceContext(ctx, r)
	rec.end(sp)
	if err != nil {
		return nil, err
	}

	sp = rec.begin("core.analyze", root, op)
	approx, err := perturb.AnalyzeContext(ctx, m, cal, perturb.AnalyzeOptions{})
	rec.end(sp)
	if err != nil {
		return nil, err
	}

	out := &waveOutput{approx: approx}
	sp = rec.begin("metrics.waiting", root, op)
	out.waiting, err = perturb.Waiting(approx.Trace, cal)
	if err == nil {
		out.percent = perturb.WaitingPercent(out.waiting, approx.Duration)
	}
	rec.end(sp)
	if err != nil {
		return nil, err
	}

	sp = rec.begin("metrics.parallelism", root, op)
	prof, err := perturb.Parallelism(approx.Trace, cal)
	if err == nil {
		out.avgPar = prof.Average(prof.Span())
	}
	rec.end(sp)
	if err != nil {
		return nil, err
	}

	sp = rec.begin("order.critical_path", root, op)
	out.critPath, err = perturb.AnalyzeCriticalPath(approx.Trace)
	rec.end(sp)
	return out, err
}

// expected summarizes an op's output in the committed form. The
// fingerprint comes from server.BuildResponse, a span when rec is
// non-nil.
func (o *waveOutput) expected(rec *recorder, op int64) (waveExpected, error) {
	sp := rec.begin("server.build_response", -1, op)
	resp, err := server.BuildResponse(o.approx)
	rec.end(sp)
	if err != nil {
		return waveExpected{}, err
	}
	e := waveExpected{
		Events:         resp.Events,
		TraceSHA256:    resp.TraceSHA256,
		AvgParallelism: o.avgPar,
		CriticalPathNS: int64(o.critPath.Total),
	}
	for _, w := range o.waiting {
		e.WaitingNS = append(e.WaitingNS, int64(w.Total()))
	}
	if len(o.percent) != len(o.waiting) {
		return e, fmt.Errorf("waiting percent for %d procs, want %d", len(o.percent), len(o.waiting))
	}
	return e, nil
}

// check compares an op's output with the committed expected values.
func (o *waveOutput) check(want waveExpected, rec *recorder, op int64) error {
	got, err := o.expected(rec, op)
	if err != nil {
		return err
	}
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	if !bytes.Equal(g, w) {
		return fmt.Errorf("batch-wave output mismatch:\n got %s\nwant %s", g, w)
	}
	return nil
}

// waveInput generates and encodes the wave.
func waveInput() ([]byte, int, error) {
	tr := testgen.BackwardWave(waveProcs, waveIters)
	var buf bytes.Buffer
	if err := tr.WriteColumnar(&buf); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), tr.Len(), nil
}

func runBatchWave(cfg runConfig) (*result, error) {
	ctx := context.Background()
	// Like the perturb CLI without -stats: observability off, the
	// default calibration.
	perturb.EnableObservability(false)
	cal := perturb.ExactCalibration(perturb.PaperOverheads(), perturb.Alliant())
	var want waveExpected
	if err := json.Unmarshal(waveExpectedJSON, &want); err != nil {
		return nil, fmt.Errorf("reading expected values: %w", err)
	}

	// Set-up: generate and encode the wave, then one warm-up op so the
	// heap reaches its steady size.
	var data []byte
	var events int
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		data = nil
		start := time.Now()
		var err error
		if data, events, err = waveInput(); err != nil {
			return nil, err
		}
		if _, err := waveOp(ctx, data, cal, nil, -1); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// Timed phase: closed loop, one trace at a time. A traced run
	// alternates traced and untraced ops, so the difference is the
	// tracing overhead.
	if cfg.rec != nil {
		cfg.rec.measureAlloc = true
	}
	res := &result{}
	var untraced, traced, peaks, allocs []float64
	start := time.Now()
	for op := int64(0); op == 0 || time.Since(start) < cfg.seconds; op++ {
		rec := cfg.rec
		if op%2 == 1 {
			rec = nil
		}
		// Each op starts from the same collected heap, as the CLI's one
		// trace per process does, rather than from the last op's garbage.
		runtime.GC()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		a0 := totalAlloc()
		t0 := time.Now()
		out, err := waveOp(ctx, data, cal, rec, op)
		d := time.Since(t0)
		a1 := totalAlloc()
		peak, perr := peakRSSMB()
		if perr != nil {
			return nil, perr
		}
		res.attempted++
		if err == nil {
			err = out.check(want, rec, op)
		}
		if err != nil {
			res.failed++
			fmt.Printf("batch-wave op %d: %v\n", op, err)
			continue
		}
		if rec != nil {
			traced = append(traced, ms(d))
			continue
		}
		untraced = append(untraced, ms(d))
		peaks = append(peaks, peak)
		allocs = append(allocs, mb(a1-a0))
	}

	if !cfg.traced() {
		setup, n := median(setups)
		res.add("setup_s", setup, "s", n)
		p50, n := median(untraced)
		res.add("latency_p50_ms", p50, "ms", n)
		res.add("events_per_s", float64(events)/(p50/1000), "events/s", n)
		peak, n := median(peaks)
		res.add("peak_rss_mb", peak, "MB", n)
		alloc, n := median(allocs)
		res.add("alloc_mb_per_op", alloc, "MB", n)
		return res, nil
	}

	// Per-layer metrics: the median over traced ops of each layer's self
	// time and allocation.
	st := collectSpans(cfg.rec.snapshot())
	selfMS := func(spans ...string) (float64, int) {
		return median(st.sumPerOp(st.self, spans...))
	}
	allocMB := func(spans ...string) (float64, int) {
		return median(st.sumPerOp(st.alloc, spans...))
	}
	perKevent := func(name, span string) {
		v, n := selfMS(span)
		res.add(name, v*1e6/float64(events), "us/kevent", n)
	}
	perKevent("trace.decode_us_per_kevent", "trace.decode")
	perKevent("core.analyze_us_per_kevent", "core.analyze")
	a, n := allocMB("core.analyze")
	res.add("core.analyze_alloc_b_per_event", a*1e6/float64(events), "B/event", n)
	perKevent("server.build_response_us_per_kevent", "server.build_response")
	// The perturb CLI path has no result cache and no server.
	for _, name := range []string{"cache.hits", "cache.misses", "server.shed", "server.retries"} {
		res.add(name, 0, "count", 0)
	}
	res.add("trace_overhead_pct", overheadPct(traced, untraced), "%", len(traced))

	// The layers of the op in full, as notes.
	noteMS := func(name string, spans ...string) {
		v, n := selfMS(spans...)
		res.note(name, v, "ms", n)
	}
	noteMB := func(name string, spans ...string) {
		v, n := allocMB(spans...)
		res.note(name, v, "MB", n)
	}
	noteMS("trace.decode_ms", "trace.decode")
	noteMB("trace.decode_alloc_mb", "trace.decode")
	noteMS("core.analyze_ms", "core.analyze")
	noteMB("core.analyze_alloc_mb", "core.analyze")
	noteMS("metrics.waiting_ms", "metrics.waiting")
	noteMS("metrics.parallelism_ms", "metrics.parallelism")
	noteMB("metrics.alloc_mb", "metrics.waiting", "metrics.parallelism")
	noteMS("order.critical_path_ms", "order.critical_path")
	noteMB("order.critical_path_alloc_mb", "order.critical_path")
	noteMS("unaccounted_ms", "batch.op")
	return res, nil
}

// overheadPct compares the median traced and untraced op times.
func overheadPct(traced, untraced []float64) float64 {
	t, _ := median(traced)
	u, _ := median(untraced)
	if u == 0 {
		return 0
	}
	return (t/u - 1) * 100
}
