package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"perturb/internal/cache"
	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/loops"
	"perturb/internal/machine"
	"perturb/internal/metrics"
	"perturb/internal/program"
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
	// The loops differ only in their iteration labels.
	unlabeled := func(a *core.Approximation) []trace.Event {
		out := slices.Clone(a.Trace.Events)
		for i := range out {
			out[i].Iter = 0
		}
		return out
	}
	if !reflect.DeepEqual(unlabeled(bwd), unlabeled(fwd)) {
		t.Error("backward loop: approximated trace differs from the forward loop's")
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
	if approx.Trace != nil {
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

// TestWindowWaitingAddsUp: with exact calibration, each processor's
// window waiting, summed over tumbling windows, equals Table 3's waiting
// (metrics.Waiting) on the approximation, and on LL3, LL4 and LL17, where
// the approximation is exact, the simulator's ground truth. Time-resolved
// waiting adds up to the whole-run figure at every window size. A
// contended lock loop covers waited lock acquisitions.
func TestWindowWaitingAddsUp(t *testing.T) {
	cfg := machine.Alliant()
	ovh := loops.PaperOverheads()
	cal := exactCalFor(cfg, ovh)
	progs := map[string]*program.Loop{"lock loop": lockTestLoop(256, 2*us, 3*us)}
	for _, n := range loops.Numbers() {
		progs[fmt.Sprintf("LL%d", n)] = loops.MustGet(n).Loop
	}
	for name, l := range progs {
		measured, err := machine.Run(l, instr.FullPlan(ovh, true), cfg)
		if err != nil {
			t.Fatalf("%s: measured run: %v", name, err)
		}
		actual, err := machine.Run(l, instr.NonePlan(), cfg)
		if err != nil {
			t.Fatalf("%s: actual run: %v", name, err)
		}
		m := measured.Trace
		for _, window := range []trace.Time{0, trace.Microsecond, 37 * trace.Microsecond} {
			wins, approx := feedChunks(t, wholeChunk(m.Events), cal, core.StreamOptions{Procs: m.Procs, Window: window})
			sum := make([]trace.Time, m.Procs)
			for _, w := range wins {
				for _, wp := range w.Procs {
					sum[wp.Proc] += wp.Waiting
				}
			}
			ws, err := metrics.Waiting(approx.Trace, cal)
			if err != nil {
				t.Fatal(err)
			}
			for p := range sum {
				if want := ws[p].Total(); sum[p] != want {
					t.Errorf("%s, window %d: proc %d window waiting sums to %d, Table 3 waiting %d", name, window, p, sum[p], want)
				}
				if (name == "LL3" || name == "LL4" || name == "LL17") && sum[p] != actual.Waiting[p] {
					t.Errorf("%s, window %d: proc %d window waiting sums to %d, ground truth %d", name, window, p, sum[p], actual.Waiting[p])
				}
			}
		}
	}
}

// TestWindowWaitingPlaceholder: an await whose advance was dropped gets a
// placeholder wait in repair mode, and the windows count it by the Table 3
// rule too: its span net of s_wait.
func TestWindowWaitingPlaceholder(t *testing.T) {
	cfg := machine.Alliant()
	ovh := loops.PaperOverheads()
	cal := exactCalFor(cfg, ovh)
	measured, err := machine.Run(loops.MustGet(17).Loop, instr.FullPlan(ovh, true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the advance of the await that waited longest in the measurement.
	m := measured.Trace
	var key trace.PairKey
	var longest trace.Time
	awaitB := map[trace.PairKey]trace.Time{}
	for _, e := range m.Events {
		switch e.Kind {
		case trace.KindAwaitB:
			awaitB[e.Pair()] = e.Time
		case trace.KindAwaitE:
			if span := e.Time - awaitB[e.Pair()]; span > longest {
				key, longest = e.Pair(), span
			}
		}
	}
	damaged := m.Filter(func(e trace.Event) bool { return e.Kind != trace.KindAdvance || e.Pair() != key })
	if damaged.Len() != m.Len()-1 {
		t.Fatalf("dropped %d events, want the one advance of %v", m.Len()-damaged.Len(), key)
	}
	win, approx := feedChunks(t, wholeChunk(damaged.Events), cal, core.StreamOptions{Procs: m.Procs, Repair: true, Window: 37 * trace.Microsecond})
	placeholders := 0
	for _, c := range approx.Confidence {
		placeholders += c.Placeholders
	}
	if placeholders != 1 {
		t.Fatalf("%d placeholders, want 1", placeholders)
	}
	sum := make([]trace.Time, m.Procs)
	for _, w := range win {
		for _, wp := range w.Procs {
			sum[wp.Proc] += wp.Waiting
		}
	}
	ws, err := metrics.Waiting(approx.Trace, cal)
	if err != nil {
		t.Fatal(err)
	}
	for p := range sum {
		if sum[p] != ws[p].Total() {
			t.Errorf("proc %d: window waiting sums to %d, Table 3 waiting %d", p, sum[p], ws[p].Total())
		}
	}
}

// TestStreamRepairMatchesAnalyze: a repairing session and AnalyzeContext
// with Repair take one repair path. The trace discovers its processors
// (Procs 0), and its only event on p5 has an undefined kind, which
// repair drops: neither side may count p5.
func TestStreamRepairMatchesAnalyze(t *testing.T) {
	cfg := machine.Alliant()
	cfg.Procs = 2
	ovh := loops.PaperOverheads()
	cal := exactCalFor(cfg, ovh)
	run, err := machine.Run(loops.MustGet(3).Loop, instr.FullPlan(ovh, true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := &trace.Trace{Events: slices.Clone(run.Trace.Events)}
	m.Events = append(m.Events, trace.Event{Time: m.End() / 2, Proc: 5, Kind: trace.Kind(200), Var: trace.NoVar})
	want, err := core.AnalyzeContext(context.Background(), m, cal, core.Options{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	_, got := feedChunks(t, wholeChunk(m.Events), cal, core.StreamOptions{Repair: true})
	if got.Trace.Procs != 2 || want.Trace.Procs != 2 {
		t.Errorf("procs: stream %d, batch %d, want 2", got.Trace.Procs, want.Trace.Procs)
	}
	if !reflect.DeepEqual(got.Trace, want.Trace) {
		t.Error("stream and batch repair approximate different traces")
	}
	if !reflect.DeepEqual(got.Confidence, want.Confidence) {
		t.Errorf("confidence: stream %+v, batch %+v", got.Confidence, want.Confidence)
	}
	if got.Repair.Summary() != want.Repair.Summary() || len(got.Repair.Defects) != 1 {
		t.Errorf("repair: stream %q, batch %q, want the one dropped event", got.Repair.Summary(), want.Repair.Summary())
	}
}

// memoryProgram is the simulated DOACROSS program the memory bounds feed:
// LL17 at 24,000 iterations (216,022 events), with the exact calibration
// of its probes.
func memoryProgram(t *testing.T) (*trace.Trace, instr.Calibration) {
	t.Helper()
	cfg := machine.Alliant()
	ovh := loops.PaperOverheads()
	l := *loops.MustGet(17).Loop
	l.Iters = 24000
	run, err := machine.Run(&l, instr.FullPlan(ovh, true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if run.Trace.Len() < 200000 {
		t.Fatalf("program has %d events, want at least 200k", run.Trace.Len())
	}
	return run.Trace, exactCalFor(cfg, ovh)
}

// feedMemoryProgram runs a session over m in 4096-event batches with
// about 400 windows, draining the windows after each batch.
func feedMemoryProgram(t *testing.T, m *trace.Trace, cal instr.Calibration, lowMemory bool) *core.Stream {
	t.Helper()
	s, err := core.NewStream(cal, core.StreamOptions{Procs: m.Procs, LowMemory: lowMemory, Window: m.End()/400 + 1})
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < m.Len(); lo += 4096 {
		if err := s.Feed(context.Background(), m.Events[lo:min(lo+4096, m.Len())]); err != nil {
			t.Fatal(err)
		}
		s.Windows()
	}
	return s
}

// TestStreamRetainedMemoryPerEvent bounds what a retained session
// allocates per event, from NewStream through Close, on a simulated
// DOACROSS program of over 200k events fed in 4096-event batches with
// about 400 windows. The retained log is most of it: each event and its
// approximated time are kept once, and Close builds the re-timed trace
// with an int32 link per event. Not parallel: it reads the process-wide
// allocation counter.
func TestStreamRetainedMemoryPerEvent(t *testing.T) {
	m, cal := memoryProgram(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := feedMemoryProgram(t, m, cal, false)
	a, err := s.Close(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s.Windows()
	runtime.ReadMemStats(&after)
	if a.Trace.Len() != m.Len() {
		t.Fatalf("approximated trace has %d events, want %d", a.Trace.Len(), m.Len())
	}
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / float64(m.Len())
	t.Logf("%d events: %.1f B/event allocated", m.Len(), perEvent)
	if perEvent > 200 {
		t.Errorf("retained session allocated %.1f B/event, bound 200", perEvent)
	}
}

// TestClosedStreamHoldsOnlyItsTrace: a closed session keeps what
// Windows, Procs and Events still read, and not the engine's log behind
// the trace Close collected. With the session and its result held, the
// live heap they add, read after a GC, may exceed the trace's 48 B per
// event by 10%. Not parallel: it reads the process-wide heap.
func TestClosedStreamHoldsOnlyItsTrace(t *testing.T) {
	m, cal := memoryProgram(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := feedMemoryProgram(t, m, cal, false)
	a, err := s.Close(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s.Windows()
	runtime.GC()
	runtime.ReadMemStats(&after)
	held := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	limit := 1.1 * float64(a.Trace.Len()) * float64(unsafe.Sizeof(trace.Event{}))
	t.Logf("the closed session and its result hold %.0f bytes live, %.1f B/event", held, held/float64(m.Len()))
	if held > limit {
		t.Errorf("the closed session and its result hold %.0f bytes live, the trace's events plus 10%% is %.0f", held, limit)
	}
	if s.Procs() != m.Procs || s.Events() != m.Len() || len(s.Windows()) != 0 {
		t.Errorf("closed session reports %d procs, %d events; want %d, %d and no windows left", s.Procs(), s.Events(), m.Procs, m.Len())
	}
	for _, again := range []func(context.Context) (*core.Approximation, error){s.Close, s.CloseUncollected} {
		if b, err := again(context.Background()); b != a || err != nil {
			t.Errorf("closing again gave %p, %v; want the first result %p", b, err, a)
		}
	}
}

// TestStreamUncollectedMemoryPerEvent bounds perturbd's form of a
// retained session on the same program: NewStream, Feed,
// CloseUncollected and the fingerprint of the final line, which streams
// the canonical merge into SHA-256 instead of collecting the 48 B per
// event of a re-timed trace. The fingerprint must equal that of the trace
// Close then collects. Not parallel: it reads the process-wide allocation
// counter.
func TestStreamUncollectedMemoryPerEvent(t *testing.T) {
	m, cal := memoryProgram(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := feedMemoryProgram(t, m, cal, false)
	a, err := s.CloseUncollected(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s.Windows()
	procs, n, events, err := core.Events(a)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := cache.EventsSHA256(procs, n, events)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if a.Trace != nil || n != m.Len() || procs != m.Procs {
		t.Fatalf("uncollected result: trace %v, %d events on %d procs; want no trace, %d events on %d procs", a.Trace, n, procs, m.Len(), m.Procs)
	}
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / float64(m.Len())
	t.Logf("%d events: %.1f B/event allocated", m.Len(), perEvent)
	if perEvent > 90 {
		t.Errorf("uncollected session and fingerprint allocated %.1f B/event, bound 90", perEvent)
	}
	if a, err = s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if want, err := cache.TraceSHA256(a.Trace); err != nil || sum != want {
		t.Errorf("fingerprint of the merge %s, of the collected trace %s (%v)", sum, want, err)
	}
}

// TestStreamLowMemoryPerEvent bounds a low-memory session's memory per
// event on the program TestStreamRetainedMemoryPerEvent feeds, in the
// same 4096-event batches: the bytes allocated from NewStream through
// Close, and the live heap before Close, read after a GC. The session
// keeps no log, so what stays live is the synchronization state in
// flight and the pairing records, which grow with the iterations. Not
// parallel: it reads the process-wide allocation counter.
func TestStreamLowMemoryPerEvent(t *testing.T) {
	m, cal := memoryProgram(t)
	var before, live, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := feedMemoryProgram(t, m, cal, true)
	runtime.GC()
	runtime.ReadMemStats(&live)
	a, err := s.Close(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s.Windows()
	runtime.ReadMemStats(&after)
	if a.Trace != nil || a.Duration <= 0 {
		t.Fatalf("low-memory result: trace %v, duration %d; want a summary only", a.Trace, a.Duration)
	}
	n := float64(m.Len())
	allocated := float64(after.TotalAlloc-before.TotalAlloc) / n
	held := (float64(live.HeapAlloc) - float64(before.HeapAlloc)) / n
	t.Logf("%d events: %.1f B/event allocated, %.1f B/event live before Close", m.Len(), allocated, held)
	if allocated > 16 {
		t.Errorf("low-memory session allocated %.1f B/event, bound 16", allocated)
	}
	if held > 7.5 {
		t.Errorf("low-memory session held %.1f B/event live, bound 7.5", held)
	}
}
