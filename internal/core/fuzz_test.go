package core_test

import (
	"cmp"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"perturb/internal/cache"
	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/machine"
	"perturb/internal/order"
	"perturb/internal/testgen"
	"perturb/internal/trace"
)

// mutate applies one random corruption to a copy of the trace: dropping,
// duplicating or reordering events, retyping kinds, breaking pairing ids,
// or skewing times. The result may or may not still be a valid trace —
// the analyses must either handle it or reject it, never panic or loop.
func mutate(r *rand.Rand, t *trace.Trace) *trace.Trace {
	m := t.Clone()
	if m.Len() == 0 {
		return m
	}
	i := r.Intn(m.Len())
	switch r.Intn(7) {
	case 0: // drop an event
		m.Events = append(m.Events[:i], m.Events[i+1:]...)
	case 1: // duplicate an event
		m.Events = append(m.Events, m.Events[i])
		m.Sort()
	case 2: // retype
		m.Events[i].Kind = trace.Kind(r.Intn(11))
	case 3: // break the pairing id
		m.Events[i].Iter = r.Intn(100) - 50
	case 4: // break the variable
		m.Events[i].Var = r.Intn(5) - 2
	case 5: // skew the time (possibly violating monotonicity)
		m.Events[i].Time += trace.Time(r.Intn(20001) - 10000)
		m.Sort()
	case 6: // truncate the tail
		m.Events = m.Events[:i]
	}
	return m
}

// TestAnalysesSurviveCorruptTraces: across hundreds of corrupted traces,
// every analysis either errors or returns a structurally valid
// approximation. A panic or livelock fails the test (the worklist must
// detect non-progress).
func TestAnalysesSurviveCorruptTraces(t *testing.T) {
	r := rand.New(rand.NewSource(2026))
	cfg := machine.Alliant()
	for i := 0; i < 150; i++ {
		l := testgen.Loop(r)
		ovh := testgen.Overheads(r)
		measured, err := machine.Run(l, instr.FullPlan(ovh, true), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cal := instr.Exact(ovh, cfg.SNoWait, cfg.SWait, cfg.AdvanceOp, cfg.Barrier)
		bad := measured.Trace
		for k := 0; k < 1+r.Intn(3); k++ {
			bad = mutate(r, bad)
		}
		for name, analyze := range map[string]func(*trace.Trace, instr.Calibration) (*core.Approximation, error){
			"time-based":  core.TimeBased,
			"event-based": core.EventBased,
		} {
			a, err := analyze(bad, cal)
			if err != nil {
				continue // rejection is fine
			}
			if got := a.Trace.Validate(); got != nil {
				t.Fatalf("case %d %s: accepted corrupt input but produced invalid output: %v",
					i, name, got)
			}
		}
		// Liberal analysis with plausible options.
		if _, err := core.LiberalEventBased(bad, cal, core.LiberalOptions{
			Procs: cfg.Procs, Distance: 1,
		}); err != nil {
			continue
		}
	}
}

// TestEventBasedDuplicateAdvances: duplicate advance events for one pairing
// key must not break resolution (first occurrence wins).
func TestEventBasedDuplicateAdvances(t *testing.T) {
	cal := instr.Calibration{Overheads: instr.Uniform(1), SNoWait: 1, SWait: 2}
	tr := trace.New(2)
	tr.Append(trace.Event{Time: 10, Proc: 0, Stmt: 1, Kind: trace.KindAdvance, Iter: 0, Var: 0})
	tr.Append(trace.Event{Time: 20, Proc: 0, Stmt: 1, Kind: trace.KindAdvance, Iter: 0, Var: 0})
	tr.Append(trace.Event{Time: 5, Proc: 1, Stmt: 2, Kind: trace.KindAwaitB, Iter: 0, Var: 0})
	tr.Append(trace.Event{Time: 15, Proc: 1, Stmt: 2, Kind: trace.KindAwaitE, Iter: 0, Var: 0})
	tr.Sort()
	a, err := core.EventBased(tr, cal)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestEventBasedOrphanBarrierRelease: a barrier release with no arrivals
// resolves (empty participant set yields basis zero plus barrier cost)
// rather than deadlocking.
func TestEventBasedOrphanBarrierRelease(t *testing.T) {
	cal := instr.Calibration{Overheads: instr.Uniform(1), Barrier: 3}
	tr := trace.New(1)
	tr.Append(trace.Event{Time: 10, Proc: 0, Stmt: -2, Kind: trace.KindBarrierRelease, Iter: 0, Var: 0})
	a, err := core.EventBased(tr, cal)
	if err != nil {
		t.Fatal(err)
	}
	if a.Trace.Events[0].Time != 3 {
		t.Errorf("orphan release at %d, want 3", a.Trace.Events[0].Time)
	}
}

// FuzzAnalyze differentially fuzzes the engine against the oracle. Each
// input seeds a random testgen loop and machine configuration, simulated
// by internal/machine, and picks the analysis: event- or time-based,
// optionally corrupted or repaired, run in batch and as a stream that is
// fed whole, one event at a time or in random chunks, with LowMemory on
// or off; event-based inputs also run the degraded analysis without the
// sanitizer. Every run must equal the oracle or fail with an exported
// sentinel error; it must never panic. Each run is also read the way
// perturbd reads it, uncollected (AnalyzeUncollected, CloseUncollected):
// its fingerprint, event count and processor count must be those of the
// collected trace, and a low-memory result must refuse to be read. An
// event-based batch run without a forced resolution must also be a
// feasible execution (§4.1): its approximation keeps the happened-before
// order of the trace it analyzed, the repaired trace for a repaired run.
// A forced resolution is exempt: it breaks a cycle of the relation,
// which holds no feasible execution.
func FuzzAnalyze(f *testing.F) {
	for knobs := 0; knobs < 64; knobs += 5 {
		f.Add(int64(knobs), uint8(knobs))
	}
	// Mutated programs whose fork-anchored events the engine once timed
	// before their processor's previous event: p2's barrier release at
	// 1,873 ns after an awaitB at 37,290, and a barrier arrival 439 ns
	// before its predecessor.
	f.Add(int64(54), uint8(0xA2))
	f.Add(int64(795), uint8(0x8e))
	f.Fuzz(func(t *testing.T, seed int64, knobs uint8) {
		r := rand.New(rand.NewSource(seed))
		m, cal, _ := randomCase(r)
		c := oracleCase{label: "fuzz", m: m, cal: cal}
		if knobs&1 != 0 {
			c.mode = core.ModeTimeBased
		}
		if knobs&2 != 0 {
			c.m = mutate(r, m)
		}
		lowMem := knobs&4 != 0
		c.repair = !lowMem && knobs&8 != 0
		want, wantTA, wantErr := oracleFor(c)

		got, gotErr := core.Analyze(c.m, cal, core.Options{Mode: c.mode, Repair: c.repair})
		if gotErr != nil && !isSentinel(gotErr) {
			t.Fatalf("batch: unexported error %v", gotErr)
		}
		assertSameApproximation(t, "batch", want, wantErr, got, gotErr)
		u, uErr := core.AnalyzeUncollected(context.Background(), c.m, cal, core.Options{Mode: c.mode, Repair: c.repair})
		if (uErr == nil) != (gotErr == nil) {
			t.Fatalf("batch: uncollected error %v, collected %v", uErr, gotErr)
		}
		if gotErr == nil {
			if u.Trace != nil {
				t.Fatal("batch: AnalyzeUncollected collected the trace")
			}
			if p, err := readFingerprint(u); err != nil || p != traceFingerprint(t, got.Trace) {
				t.Fatalf("batch: uncollected result reads as %+v (%v), the collected trace as %+v", p, err, traceFingerprint(t, got.Trace))
			}
			assertSameTimes(t, "batch", wantTA, engineTimes(t, c))
			if !reflect.DeepEqual(got.Confidence, want.Confidence) {
				t.Fatalf("batch: confidence %+v, oracle %+v", got.Confidence, want.Confidence)
			}
		}
		if gotErr == nil && c.mode == core.ModeEventBased &&
			!slices.ContainsFunc(got.Confidence, func(c core.ProcConfidence) bool { return c.Forced > 0 }) {
			analyzed := c.m
			if c.repair {
				analyzed, _ = trace.Repair(c.m)
			}
			rel, err := order.Build(analyzed)
			if err != nil {
				t.Fatal(err)
			}
			if err := rel.Check(got.Trace); err != nil {
				t.Fatalf("batch: infeasible approximation: %v", err)
			}
		}
		if c.mode == core.ModeEventBased {
			checkDegraded(t, "degraded", c.m, cal)
		}

		var chunks [][]trace.Event
		switch (knobs >> 4) % 3 {
		case 0:
			chunks = wholeChunk(c.m.Events)
		case 1:
			chunks = singletonChunks(c.m.Events)
		default:
			chunks = randomChunks(c.m.Events, seed)
		}
		opts := core.StreamOptions{
			Mode: c.mode, Repair: c.repair, LowMemory: lowMem, Procs: c.m.Procs, Window: c.m.End()/5 + 1,
		}
		s, err := core.NewStream(cal, opts)
		if err != nil {
			t.Fatal(err)
		}
		var wins []core.WindowResult
		for _, chunk := range chunks {
			if err = s.Feed(context.Background(), chunk); err != nil {
				break
			}
			wins = append(wins, s.Windows()...)
		}
		var closed *core.Approximation
		var times []trace.Time
		if err == nil {
			closed, err = s.CloseUncollected(context.Background())
			wins = append(wins, s.Windows()...)
		}
		if err == nil {
			// Read before Close collects the same result in place and
			// lets the engine's log go.
			p, pErr := readFingerprint(closed)
			times = core.StreamTimes(s)
			if got, err = s.Close(context.Background()); got != closed || err != nil {
				t.Fatalf("stream: Close after CloseUncollected returned %p, %v; want the same result %p", got, err, closed)
			}
			checkWindows(t, c.m, cal, opts, wins)
			if lowMem && pErr == nil {
				t.Fatalf("stream: a low-memory result reads as %+v", p)
			}
			if !lowMem && (pErr != nil || p != traceFingerprint(t, got.Trace)) {
				t.Fatalf("stream: uncollected result reads as %+v (%v), the collected trace as %+v", p, pErr, traceFingerprint(t, got.Trace))
			}
		}
		switch {
		case err != nil && !isSentinel(err):
			t.Fatalf("stream: unexported error %v", err)
		case err != nil && wantErr == nil && lowMem && errors.Is(err, core.ErrUnsupported):
			// A causality-violating feed needs the exact redo, which
			// low-memory sessions refuse.
		case lowMem && err == nil && wantErr == nil:
			if got.Duration != want.Duration || got.WaitsKept != want.WaitsKept ||
				got.WaitsRemoved != want.WaitsRemoved || got.WaitsIntroduced != want.WaitsIntroduced {
				t.Fatalf("low-memory stream summary differs from the oracle")
			}
		case lowMem:
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("low-memory stream: error %v, oracle %v", err, wantErr)
			}
		default:
			assertSameApproximation(t, "stream", want, wantErr, got, err)
			if err != nil {
				break
			}
			assertSameTimes(t, "stream", wantTA, times)
			if !reflect.DeepEqual(got.Confidence, want.Confidence) {
				t.Fatalf("stream: confidence %+v, oracle %+v", got.Confidence, want.Confidence)
			}
		}
	})
}

// fingerprint is what perturbd reads from a result: the processor and
// event counts and the hex SHA-256 of the binary encoding.
type fingerprint struct {
	procs, events int
	sha256        string
}

// readFingerprint reads a result the way server.BuildResponse does.
func readFingerprint(a *core.Approximation) (fingerprint, error) {
	procs, n, events, err := core.Events(a)
	if err != nil {
		return fingerprint{}, err
	}
	sum, err := cache.EventsSHA256(procs, n, events)
	return fingerprint{procs, n, sum}, err
}

// traceFingerprint is the fingerprint of a collected trace, through
// cache.TraceSHA256.
func traceFingerprint(t *testing.T, tr *trace.Trace) fingerprint {
	t.Helper()
	sum, err := cache.TraceSHA256(tr)
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint{tr.Procs, tr.Len(), sum}
}

// checkWindows compares the windows a session drained with those of a
// session with the same options fed the whole trace at once. For each
// index the latest emission must match; for a time-sorted feed, which
// emits each index once, so must the whole sequence. Prompt feeding
// rests on this: a session's output may not depend on how its input
// arrived.
//
// Tumbling windows must also add up: over the latest emission per index,
// their events sum to the events the engine analyzed (the repaired trace
// in repair mode) and their waiting to the single window of the session
// run with Window 0. An event at a negative measured time falls in no
// tumbling window, while the single window holds it; a feed with one,
// which a time-skewing mutation or repair's clock shift can make, is
// left out of the sums.
func checkWindows(t *testing.T, m *trace.Trace, cal instr.Calibration, opts core.StreamOptions, got []core.WindowResult) {
	t.Helper()
	want := wholeTraceWindows(t, m, cal, opts)
	sorted := slices.IsSortedFunc(m.Events, func(a, b trace.Event) int { return cmp.Compare(a.Time, b.Time) })
	if sorted && !reflect.DeepEqual(got, want) {
		t.Fatalf("window sequence differs from the whole-trace session's:\n got %+v\nwant %+v", got, want)
	}
	latest := func(ws []core.WindowResult) map[int]core.WindowResult {
		out := make(map[int]core.WindowResult, len(ws))
		for _, w := range ws {
			out[w.Index] = w
		}
		return out
	}
	if g, w := latest(got), latest(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("latest window per index differs from the whole-trace session's:\n got %+v\nwant %+v", g, w)
	}

	fed := m
	if opts.Repair {
		fed, _ = trace.Repair(m)
	}
	if opts.Window <= 0 || opts.Slide != 0 || slices.ContainsFunc(fed.Events, func(e trace.Event) bool { return e.Time < 0 }) {
		return
	}
	sum := func(ws map[int]core.WindowResult) (events int, waiting trace.Time) {
		for _, w := range ws {
			events, waiting = events+w.Events, waiting+w.Waiting
		}
		return events, waiting
	}
	single := opts
	single.Window = 0
	events, waiting := sum(latest(got))
	wantEvents, wantWaiting := sum(latest(wholeTraceWindows(t, m, cal, single)))
	if events != fed.Len() || events != wantEvents || waiting != wantWaiting {
		t.Fatalf("tumbling windows hold %d events and %d ns waiting; %d events fed, and the single window holds %d and %d ns",
			events, waiting, fed.Len(), wantEvents, wantWaiting)
	}
}

// wholeTraceWindows returns every window a session with opts emits when
// fed the whole trace at once and closed.
func wholeTraceWindows(t *testing.T, m *trace.Trace, cal instr.Calibration, opts core.StreamOptions) []core.WindowResult {
	t.Helper()
	ctx := context.Background()
	ref, err := core.NewStream(cal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Feed(ctx, m.Events); err != nil {
		t.Fatalf("whole-trace session: %v", err)
	}
	ws := ref.Windows()
	if _, err := ref.Close(ctx); err != nil {
		t.Fatalf("whole-trace session: %v", err)
	}
	return append(ws, ref.Windows()...)
}

// isSentinel reports whether err matches one of the exported analysis or
// trace error sentinels.
func isSentinel(err error) bool {
	return errors.Is(err, core.ErrUnresolvable) || errors.Is(err, core.ErrUnsupported) ||
		errors.Is(err, trace.ErrMalformedTrace)
}
