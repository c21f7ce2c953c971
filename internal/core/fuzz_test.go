package core_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/machine"
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
// sentinel error; it must never panic.
func FuzzAnalyze(f *testing.F) {
	for knobs := 0; knobs < 64; knobs += 5 {
		f.Add(int64(knobs), uint8(knobs))
	}
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
		want, wantErr := oracleFor(c)

		got, gotErr := core.Analyze(c.m, cal, core.Options{Mode: c.mode, Repair: c.repair})
		if gotErr != nil && !isSentinel(gotErr) {
			t.Fatalf("batch: unexported error %v", gotErr)
		}
		assertSameApproximation(t, "batch", want, wantErr, got, gotErr)
		if gotErr == nil && !reflect.DeepEqual(got.Confidence, want.Confidence) {
			t.Fatalf("batch: confidence %+v, oracle %+v", got.Confidence, want.Confidence)
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
		s, err := core.NewStream(cal, core.StreamOptions{
			Mode: c.mode, Repair: c.repair, LowMemory: lowMem, Procs: c.m.Procs, Window: c.m.End()/5 + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range chunks {
			if err = s.Feed(context.Background(), chunk); err != nil {
				break
			}
			s.Windows()
		}
		if err == nil {
			got, err = s.Close(context.Background())
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
			if err == nil && !reflect.DeepEqual(got.Confidence, want.Confidence) {
				t.Fatalf("stream: confidence %+v, oracle %+v", got.Confidence, want.Confidence)
			}
		}
	})
}

// isSentinel reports whether err matches one of the exported analysis or
// trace error sentinels.
func isSentinel(err error) bool {
	return errors.Is(err, core.ErrUnresolvable) || errors.Is(err, core.ErrUnsupported) ||
		errors.Is(err, trace.ErrMalformedTrace)
}
