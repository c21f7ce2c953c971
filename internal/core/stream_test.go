package core_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/loops"
	"perturb/internal/machine"
	"perturb/internal/testgen"
	"perturb/internal/trace"
)

// The streaming engine's contract: the final result of a session equals
// batch Analyze byte for byte, and the emitted window sequence is a pure
// function of the event sequence — invariant to how the feed is chunked.
// These tests check both metamorphically: whole-trace vs one-event-at-a-
// time vs random splits, across all 24 Livermore kernels, the backward-
// wave DOACROSS stress shape, and unsorted feeds.

// feedChunks runs one streaming session over the events, fed in the
// given chunks, and returns every window plus the final approximation.
func feedChunks(t *testing.T, chunks [][]trace.Event, cal instr.Calibration, opts core.StreamOptions) ([]core.WindowResult, *core.Approximation) {
	t.Helper()
	s, err := core.NewStream(cal, opts)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	var windows []core.WindowResult
	for _, c := range chunks {
		if err := s.Feed(context.Background(), c); err != nil {
			t.Fatalf("Feed: %v", err)
		}
		windows = append(windows, s.Windows()...)
	}
	a, err := s.Close(context.Background())
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	windows = append(windows, s.Windows()...)
	return windows, a
}

func wholeChunk(events []trace.Event) [][]trace.Event { return [][]trace.Event{events} }

func singletonChunks(events []trace.Event) [][]trace.Event {
	out := make([][]trace.Event, len(events))
	for i := range events {
		out[i] = events[i : i+1]
	}
	return out
}

func randomChunks(events []trace.Event, seed int64) [][]trace.Event {
	r := rand.New(rand.NewSource(seed))
	var out [][]trace.Event
	for len(events) > 0 {
		n := 1 + r.Intn(len(events))
		out = append(out, events[:n])
		events = events[n:]
	}
	return out
}

// traceBytes renders an approximation's trace in the canonical binary
// encoding — the byte-identity witness the acceptance criteria call for.
func traceBytes(t *testing.T, a *core.Approximation) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Trace.WriteBinary(&buf); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	return buf.Bytes()
}

func sameApprox(t *testing.T, label string, got, want *core.Approximation) {
	t.Helper()
	if !bytes.Equal(traceBytes(t, got), traceBytes(t, want)) {
		t.Errorf("%s: approximated trace bytes differ from batch", label)
	}
	if !reflect.DeepEqual(got.Times, want.Times) {
		t.Errorf("%s: Times differ from batch", label)
	}
	if got.Duration != want.Duration {
		t.Errorf("%s: Duration = %d, batch %d", label, got.Duration, want.Duration)
	}
	if got.WaitsKept != want.WaitsKept || got.WaitsRemoved != want.WaitsRemoved || got.WaitsIntroduced != want.WaitsIntroduced {
		t.Errorf("%s: wait stats (%d,%d,%d) differ from batch (%d,%d,%d)", label,
			got.WaitsKept, got.WaitsRemoved, got.WaitsIntroduced,
			want.WaitsKept, want.WaitsRemoved, want.WaitsIntroduced)
	}
	if !reflect.DeepEqual(got.Confidence, want.Confidence) {
		t.Errorf("%s: Confidence differs from batch", label)
	}
}

// TestStreamChunkInvarianceKernels runs every Livermore kernel through
// the simulator, streams the measured trace under several chunkings, and
// checks (a) identical window sequences regardless of chunking and (b) a
// final result byte-identical to batch Analyze.
func TestStreamChunkInvarianceKernels(t *testing.T) {
	cfg := machine.Alliant()
	ovh := loops.PaperOverheads()
	cal := exactCalFor(cfg, ovh)
	for _, n := range loops.Numbers() {
		def := loops.MustGet(n)
		measured, err := machine.Run(def.Loop, instr.FullPlan(ovh, true), cfg)
		if err != nil {
			t.Fatalf("kernel %d: measured run: %v", n, err)
		}
		m := measured.Trace
		batch, err := core.Analyze(m, cal, core.Options{})
		if err != nil {
			t.Fatalf("kernel %d: batch analyze: %v", n, err)
		}
		window := m.End()/7 + 1
		opts := core.StreamOptions{Procs: m.Procs, Window: window}

		refWin, refApprox := feedChunks(t, wholeChunk(m.Events), cal, opts)
		sameApprox(t, "whole-chunk", refApprox, batch)
		if len(refWin) == 0 {
			t.Errorf("kernel %d: no windows emitted", n)
		}
		for label, chunks := range map[string][][]trace.Event{
			"one-event": singletonChunks(m.Events),
			"random-1":  randomChunks(m.Events, 1),
			"random-2":  randomChunks(m.Events, 2),
		} {
			win, approx := feedChunks(t, chunks, cal, opts)
			if !reflect.DeepEqual(win, refWin) {
				t.Errorf("kernel %d: %s window sequence differs from whole-chunk feed", n, label)
			}
			sameApprox(t, label, approx, batch)
		}
	}
}

// TestStreamBackwardWave stresses the mid-stream absence decisions: the
// backward-wave trace's warm-up awaits (Iter -1) have no advance anywhere
// in the trace, so a sealing session must decide absence from the
// watermark — and still match batch exactly, under sliding windows too.
func TestStreamBackwardWave(t *testing.T) {
	m := testgen.BackwardWave(4, 300)
	cal := instr.Exact(instr.Uniform(3), 50, 80, 30, 40)
	batch, err := core.Analyze(m, cal, core.Options{})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	opts := core.StreamOptions{
		Procs:  m.Procs,
		Window: m.End() / 5,
		Slide:  m.End() / 10, // overlapping windows
	}
	refWin, refApprox := feedChunks(t, wholeChunk(m.Events), cal, opts)
	sameApprox(t, "whole-chunk", refApprox, batch)
	if len(refWin) == 0 {
		t.Fatal("no windows emitted")
	}
	win, approx := feedChunks(t, singletonChunks(m.Events), cal, opts)
	if !reflect.DeepEqual(win, refWin) {
		t.Error("one-event window sequence differs from whole-chunk feed")
	}
	sameApprox(t, "one-event", approx, batch)

	// Most windows of a sorted feed must surface before Close: streaming
	// is only incremental if results appear mid-stream.
	s, err := core.NewStream(cal, opts)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	early := 0
	for _, e := range m.Events {
		if err := s.Feed(context.Background(), []trace.Event{e}); err != nil {
			t.Fatalf("Feed: %v", err)
		}
		early += len(s.Windows())
	}
	if _, err := s.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if early == 0 {
		t.Error("sorted feed emitted no windows before Close")
	}
}

// TestStreamUnsortedFeed feeds the events grouped by processor — legal
// (per-processor times stay monotonic) but globally unsorted, so the
// session must defer absence decisions to Close. The final result still
// matches batch Analyze over the same arrival order.
func TestStreamUnsortedFeed(t *testing.T) {
	m := testgen.BackwardWave(4, 200)
	cal := instr.Exact(instr.Uniform(3), 50, 80, 30, 40)
	perProc := m.ByProc()
	arrival := trace.New(m.Procs)
	for _, evs := range perProc {
		for _, e := range evs {
			arrival.Append(e)
		}
	}
	batch, err := core.Analyze(arrival, cal, core.Options{})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	opts := core.StreamOptions{Procs: m.Procs, Window: m.End() / 5}
	win, approx := feedChunks(t, randomChunks(arrival.Events, 3), cal, opts)
	sameApprox(t, "unsorted", approx, batch)
	// All windows surface at Close for an unsorted feed; the set must
	// still match a sorted session's windows in content count.
	if len(win) == 0 {
		t.Error("unsorted feed emitted no windows at all")
	}
}

// latestWindows keys a session's windows by index; a later emission of an
// index supersedes an earlier one.
func latestWindows(ws []core.WindowResult) map[int]core.WindowResult {
	m := make(map[int]core.WindowResult, len(ws))
	for _, w := range ws {
		m[w.Index] = w
	}
	return m
}

// TestStreamFeedOrderScale feeds event orders that turn the engine
// quadratic if it keeps windows, or a window's processors, in one sorted
// slice, or if waking a processor means scanning every parked one or
// regrowing an iteration table by one slot at a time:
//
//   - a processor-by-processor feed with a 1 ns window, where nearly
//     every event of the second and later processors opens a window below
//     the newest one;
//   - a processor-by-processor feed of a 10000-processor wave, where every
//     processor parks until its successor's events arrive, and each one
//     starts below the lowest pairing iteration seen so far;
//   - one window that many processors enter in descending order;
//   - a DOACROSS loop run backward, whose every pairing iteration lies
//     below all earlier ones.
//
// Each must take about as long as the same events in time order (for the
// backward loop, the forward loop), and produce the same results.
func TestStreamFeedOrderScale(t *testing.T) {
	cal := instr.Exact(instr.Uniform(3), 50, 80, 30, 40)
	run := func(events []trace.Event, opts core.StreamOptions) ([]core.WindowResult, *core.Approximation, time.Duration) {
		start := time.Now()
		win, a := feedChunks(t, wholeChunk(events), cal, opts)
		return win, a, time.Since(start)
	}
	check := func(label string, easy, hard []trace.Event, opts core.StreamOptions) {
		t.Helper()
		wantWin, want, easyTime := run(easy, opts)
		gotWin, got, hardTime := run(hard, opts)
		if !reflect.DeepEqual(latestWindows(gotWin), latestWindows(wantWin)) {
			t.Errorf("%s: windows differ from the time-ordered feed's", label)
		}
		if !bytes.Equal(traceBytes(t, got), traceBytes(t, want)) {
			t.Errorf("%s: approximated trace differs from the time-ordered feed's", label)
		}
		if hardTime > 20*easyTime+time.Second {
			t.Errorf("%s: took %v, the time-ordered feed %v", label, hardTime, easyTime)
		}
	}
	byProc := func(m *trace.Trace) []trace.Event {
		var out []trace.Event
		for _, evs := range m.ByProc() {
			out = append(out, evs...)
		}
		return out
	}

	m := testgen.BackwardWave(8, 12_500) // 100k events, 10 ns apart
	check("processor-by-processor feed, 1 ns windows", m.Events, byProc(m), core.StreamOptions{Procs: m.Procs, Window: 1})
	wide := testgen.BackwardWave(10_000, 50_000)
	check("processor-by-processor feed, 10000 processors", wide.Events, byProc(wide), core.StreamOptions{Procs: wide.Procs})

	const procs = 50_000
	up := make([]trace.Event, procs)
	down := make([]trace.Event, procs)
	for p := range up {
		up[p] = trace.Event{Time: 100, Proc: p, Kind: trace.KindCompute, Var: trace.NoVar}
		down[procs-1-p] = up[p]
	}
	check("one window, processors descending", up, down, core.StreamOptions{})

	// Iteration i of n runs on processor i%2, awaits iteration i-1 and
	// advances i. The backward loop labels iteration i as n-1-i, which
	// keeps every dependency, so the times must match the forward loop's.
	loop := func(n int, label func(int) int) []trace.Event {
		var out []trace.Event
		now := trace.Time(0)
		add := func(p int, k trace.Kind, iter int) {
			now += 10
			out = append(out, trace.Event{Time: now, Proc: p, Stmt: int(k), Kind: k, Iter: iter, Var: 0})
		}
		for i := 0; i < n; i++ {
			add(i%2, trace.KindAwaitB, label(i-1))
			add(i%2, trace.KindAwaitE, label(i-1))
			add(i%2, trace.KindAdvance, label(i))
		}
		return out
	}
	const iters = 100_000
	_, fwd, fwdTime := run(loop(iters, func(i int) int { return i }), core.StreamOptions{})
	_, bwd, bwdTime := run(loop(iters, func(i int) int { return iters - 1 - i }), core.StreamOptions{})
	if !reflect.DeepEqual(bwd.Times, fwd.Times) {
		t.Error("backward loop: times differ from the forward loop's")
	}
	if bwdTime > 20*fwdTime+time.Second {
		t.Errorf("backward loop: took %v, the forward loop %v", bwdTime, fwdTime)
	}
}

// TestStreamRepair checks the repair path: a trace with a dropped
// advance streams with Repair and matches batch Analyze with Repair.
func TestStreamRepair(t *testing.T) {
	m := testgen.BackwardWave(4, 100)
	cal := instr.Exact(instr.Uniform(3), 50, 80, 30, 40)
	// Drop one advance mid-trace: its awaitE loses its partner.
	damaged := trace.New(m.Procs)
	dropped := false
	for _, e := range m.Events {
		if !dropped && e.Kind == trace.KindAdvance && e.Iter == 50 {
			dropped = true
			continue
		}
		damaged.Append(e)
	}
	if !dropped {
		t.Fatal("no advance dropped")
	}
	batch, err := core.Analyze(damaged, cal, core.Options{Repair: true})
	if err != nil {
		t.Fatalf("batch repair: %v", err)
	}
	opts := core.StreamOptions{Procs: damaged.Procs, Repair: true, Window: damaged.End() / 4}
	win, approx := feedChunks(t, randomChunks(damaged.Events, 7), cal, opts)
	sameApprox(t, "repair", approx, batch)
	if approx.Repair == nil {
		t.Error("streaming repair result carries no RepairReport")
	}
	if len(win) == 0 {
		t.Error("repair session emitted no windows")
	}
	for _, w := range win {
		if w.Confidence < 0 || w.Confidence > 1 {
			t.Errorf("window %d confidence %v out of range", w.Index, w.Confidence)
		}
	}
}

// TestStreamLowMemory checks the summary-only mode: no retained trace,
// but the duration, wait statistics and windows match the retaining run.
func TestStreamLowMemory(t *testing.T) {
	m := testgen.BackwardWave(4, 300)
	cal := instr.Exact(instr.Uniform(3), 50, 80, 30, 40)
	batch, err := core.Analyze(m, cal, core.Options{})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	opts := core.StreamOptions{Procs: m.Procs, Window: m.End() / 5, LowMemory: true}
	win, approx := feedChunks(t, randomChunks(m.Events, 11), cal, opts)
	if approx.Trace != nil || approx.Times != nil {
		t.Error("low-memory session retained a trace")
	}
	if approx.Duration != batch.Duration {
		t.Errorf("low-memory Duration = %d, batch %d", approx.Duration, batch.Duration)
	}
	if approx.WaitsKept != batch.WaitsKept || approx.WaitsRemoved != batch.WaitsRemoved || approx.WaitsIntroduced != batch.WaitsIntroduced {
		t.Error("low-memory wait stats differ from batch")
	}
	fullOpts := opts
	fullOpts.LowMemory = false
	fullWin, _ := feedChunks(t, wholeChunk(m.Events), cal, fullOpts)
	if !reflect.DeepEqual(win, fullWin) {
		t.Error("low-memory window sequence differs from retaining session")
	}
}

// TestStreamTimeBased routes the time-based analysis through a session.
func TestStreamTimeBased(t *testing.T) {
	m := testgen.BackwardWave(4, 200)
	cal := instr.Exact(instr.Uniform(3), 50, 80, 30, 40)
	batch, err := core.Analyze(m, cal, core.Options{Mode: core.ModeTimeBased})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	opts := core.StreamOptions{Procs: m.Procs, Mode: core.ModeTimeBased, Window: m.End() / 6}
	refWin, refApprox := feedChunks(t, wholeChunk(m.Events), cal, opts)
	sameApprox(t, "time-based", refApprox, batch)
	win, approx := feedChunks(t, singletonChunks(m.Events), cal, opts)
	sameApprox(t, "time-based one-event", approx, batch)
	if !reflect.DeepEqual(win, refWin) {
		t.Error("time-based window sequence depends on chunking")
	}
}

// TestStreamOptionValidation pins the rejected configurations and the
// closed-session behaviour.
func TestStreamOptionValidation(t *testing.T) {
	cal := instr.Exact(instr.Uniform(3), 50, 80, 30, 40)
	if _, err := core.NewStream(cal, core.StreamOptions{Mode: core.ModeLiberal}); !errors.Is(err, core.ErrUnsupported) {
		t.Errorf("liberal mode: err = %v, want ErrUnsupported", err)
	}
	if _, err := core.NewStream(cal, core.StreamOptions{Repair: true, LowMemory: true}); !errors.Is(err, core.ErrUnsupported) {
		t.Errorf("repair+low-memory: err = %v, want ErrUnsupported", err)
	}
	// Sliding windows may overlap up to MaxWindowsPerEvent deep.
	for _, g := range []struct {
		window, slide trace.Time
		ok            bool
	}{
		{core.MaxWindowsPerEvent, 1, true},
		{core.MaxWindowsPerEvent + 1, 1, false},
		{1_000_000_000_000, 1, false},
		{1e8, 1e3, false},
		{1e8, 1e5, true},
		{1_000_000_000_000, 0, true}, // tumbling
	} {
		_, err := core.NewStream(cal, core.StreamOptions{Window: g.window, Slide: g.slide})
		if g.ok != (err == nil) || (err != nil && !errors.Is(err, core.ErrUnsupported)) {
			t.Errorf("window %d slide %d: err = %v, want ok=%v or ErrUnsupported", g.window, g.slide, err, g.ok)
		}
	}
	s, err := core.NewStream(cal, core.StreamOptions{})
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	if _, err := s.Close(context.Background()); err != nil {
		t.Fatalf("Close of empty session: %v", err)
	}
	if err := s.Feed(context.Background(), testgen.BackwardWave(2, 1).Events); err == nil {
		t.Error("Feed after Close succeeded")
	}
	if _, err := s.Close(context.Background()); err != nil {
		t.Errorf("repeated Close: %v", err)
	}
}

// TestStreamSparseWindows stretches a small trace's timestamps a
// millionfold, so under a 1 ns window all but one index in a million is
// empty. Emission must pass over the empty runs instead of stepping
// through them: the session finishes promptly, and it emits one window
// per event with the same content as a coarser geometry that also gives
// every event a window of its own.
func TestStreamSparseWindows(t *testing.T) {
	m := testgen.BackwardWave(2, 20)
	for i := range m.Events {
		m.Events[i].Time *= 1_000_000
	}
	cal := instr.Exact(instr.Uniform(3), 50, 80, 30, 40)
	start := time.Now()
	fine, _ := feedChunks(t, singletonChunks(m.Events), cal, core.StreamOptions{Procs: m.Procs, Window: 1})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("1 ns windows over an 850 ms span took %v", elapsed)
	}
	coarse, _ := feedChunks(t, singletonChunks(m.Events), cal, core.StreamOptions{Procs: m.Procs, Window: 1_000_000})
	if len(fine) != len(m.Events) || len(coarse) != len(m.Events) {
		t.Fatalf("%d fine and %d coarse windows for %d events", len(fine), len(coarse), len(m.Events))
	}
	for i, e := range m.Events {
		f, c := fine[i], coarse[i]
		if f.Index != int(e.Time) || f.Start != e.Time || f.End != e.Time+1 {
			t.Fatalf("window %d is %d [%d, %d), want the event's own nanosecond %d", i, f.Index, f.Start, f.End, e.Time)
		}
		f.Index, f.Start, f.End = c.Index, c.Start, c.End
		if !reflect.DeepEqual(f, c) {
			t.Errorf("window %d content differs from the coarse geometry:\n fine   %+v\n coarse %+v", i, f, c)
		}
	}
	// Chunking never changes the window sequence.
	if whole, _ := feedChunks(t, wholeChunk(m.Events), cal, core.StreamOptions{Procs: m.Procs, Window: 1}); !reflect.DeepEqual(whole, fine) {
		t.Error("whole-chunk feed emits different windows from the one-event feed")
	}
}

// TestStreamCancellation checks that a canceled context abandons the
// session with the cancellation sentinel mid-feed.
func TestStreamCancellation(t *testing.T) {
	m := testgen.BackwardWave(4, 2000)
	cal := instr.Exact(instr.Uniform(3), 50, 80, 30, 40)
	s, err := core.NewStream(cal, core.StreamOptions{Procs: m.Procs})
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	ctx, cancelFn := context.WithCancel(context.Background())
	if err := s.Feed(ctx, m.Events[:len(m.Events)/2]); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	cancelFn()
	if err := s.Feed(ctx, m.Events[len(m.Events)/2:]); err == nil {
		// Cancellation is polled every few thousand resolutions; a
		// half-trace feed may legitimately complete. Close must fail.
		if _, cerr := s.Close(ctx); cerr == nil {
			t.Error("session ignored canceled context")
		}
	}
}
