package core_test

import (
	"math/rand"
	"testing"

	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/machine"
	"perturb/internal/program"
	"perturb/internal/testgen"
	"perturb/internal/trace"
)

// TestAnalyzeZeroOptionsMatchesEventBased: Analyze with the zero Options
// is byte-identical to the classic EventBased — times, canonical order,
// statistics, and errors — and attaches no repair or confidence data.
func TestAnalyzeZeroOptionsMatchesEventBased(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for i := 0; i < 60; i++ {
		l := testgen.Loop(r)
		cfg := testgen.Config(r)
		ovh := testgen.Overheads(r)
		measured, err := machine.Run(l, instr.FullPlan(ovh, true), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cal := instr.Exact(ovh, cfg.SNoWait, cfg.SWait, cfg.AdvanceOp, cfg.Barrier)
		want, wantErr := core.EventBased(measured.Trace, cal)
		got, gotErr := core.Analyze(measured.Trace, cal, core.Options{})
		assertSameApproximation(t, l.Name, want, wantErr, got, gotErr)
		if gotErr == nil && (got.Repair != nil || got.Confidence != nil) {
			t.Fatalf("%s: exact-mode Analyze attached repair/confidence data", l.Name)
		}
	}
}

// TestAnalyzeModeDispatch: the time-based and liberal modes route to their
// analyses unchanged.
func TestAnalyzeModeDispatch(t *testing.T) {
	cfg := machine.Alliant()
	ovh := instr.Uniform(5 * us)
	cal := exactCalFor(cfg, ovh)
	l := liberalLoop(64, 0)
	measured := runMeasured(t, l, cfg, ovh)

	wantTB, err := core.TimeBased(measured.Trace, cal)
	if err != nil {
		t.Fatal(err)
	}
	gotTB, err := core.Analyze(measured.Trace, cal, core.Options{Mode: core.ModeTimeBased})
	if err != nil {
		t.Fatal(err)
	}
	assertSameApproximation(t, "time-based", wantTB, nil, gotTB, nil)

	lopts := core.LiberalOptions{Procs: cfg.Procs, Distance: l.Distance, Schedule: program.Interleaved}
	wantLib, err := core.LiberalEventBased(measured.Trace, cal, lopts)
	if err != nil {
		t.Fatal(err)
	}
	gotLib, err := core.Analyze(measured.Trace, cal, core.Options{Mode: core.ModeLiberal, Liberal: lopts})
	if err != nil {
		t.Fatal(err)
	}
	assertSameApproximation(t, "liberal", wantLib, nil, gotLib, nil)

	if _, err := core.Analyze(measured.Trace, cal, core.Options{Mode: core.Mode(99)}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// dropAdvance removes the advance event of the given iteration, simulating
// a dropped synchronization probe.
func dropAdvance(t *testing.T, tr *trace.Trace, iter int) *trace.Trace {
	t.Helper()
	out := trace.New(tr.Procs)
	dropped := false
	for _, e := range tr.Events {
		if e.Kind == trace.KindAdvance && e.Iter == iter && !dropped {
			dropped = true
			continue
		}
		out.Append(e)
	}
	if !dropped {
		t.Fatalf("no advance with iter %d to drop", iter)
	}
	return out
}

// TestAnalyzeRepairDroppedAdvance: with Repair set, a trace missing an
// advance analyzes in degraded mode — the unpaired await resolves with the
// conservative placeholder, and the result carries the repair report and
// a per-processor confidence summary. Without Repair the unpaired await
// silently takes the no-wait path (classic behaviour).
func TestAnalyzeRepairDroppedAdvance(t *testing.T) {
	cfg := machine.Alliant()
	ovh := instr.Uniform(5 * us)
	cal := exactCalFor(cfg, ovh)
	l := liberalLoop(64, 0)
	measured := runMeasured(t, l, cfg, ovh)

	exact, err := core.EventBased(measured.Trace, cal)
	if err != nil {
		t.Fatal(err)
	}

	holed := dropAdvance(t, measured.Trace, 30)
	a, err := core.Analyze(holed, cal, core.Options{Repair: true})
	if err != nil {
		t.Fatalf("degraded analysis failed: %v", err)
	}
	if a.Repair == nil {
		t.Fatal("no repair report attached")
	}
	if a.Repair.CountClass(trace.DefectUnmatchedAwait) == 0 {
		t.Fatalf("dropped advance not flagged: %s", a.Repair.Summary())
	}
	if a.Confidence == nil {
		t.Fatal("no confidence summary attached")
	}
	placeholders, belowOne := 0, 0
	for _, c := range a.Confidence {
		placeholders += c.Placeholders
		if c.Score < 1 {
			belowOne++
		}
		if c.Score < 0 || c.Score > 1 {
			t.Fatalf("proc %d score %v out of range", c.Proc, c.Score)
		}
	}
	if placeholders == 0 {
		t.Fatal("unpaired await did not take the placeholder path")
	}
	if belowOne == 0 {
		t.Fatal("no processor's confidence reflects the degradation")
	}

	// The degraded reconstruction stays close to the exact one: a single
	// missing advance must not derail the total time.
	r := float64(a.Duration) / float64(exact.Duration)
	if r < 0.9 || r > 1.1 {
		t.Errorf("degraded/exact duration = %.4f, want within 10%%", r)
	}
}

// TestAnalyzeRepairMatchesOracle: the degraded analysis of a trace with
// a dropped advance — sanitizer, placeholder rule and confidence scores —
// equals the oracle's.
func TestAnalyzeRepairMatchesOracle(t *testing.T) {
	cfg := machine.Alliant()
	ovh := instr.Uniform(5 * us)
	cal := exactCalFor(cfg, ovh)
	l := liberalLoop(64, 0)
	measured := runMeasured(t, l, cfg, ovh)
	holed := dropAdvance(t, measured.Trace, 12)
	checkOracle(t, oracleCase{label: "degraded", m: holed, cal: cal, repair: true})
}

// TestAnalyzeRepairCleanTraceByteIdentical: Repair on an already-clean
// trace must not change the analysis result at all (beyond attaching an
// empty report and an all-ones confidence summary).
func TestAnalyzeRepairCleanTraceByteIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	for i := 0; i < 40; i++ {
		l := testgen.Loop(r)
		cfg := testgen.Config(r)
		ovh := testgen.Overheads(r)
		measured, err := machine.Run(l, instr.FullPlan(ovh, true), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cal := instr.Exact(ovh, cfg.SNoWait, cfg.SWait, cfg.AdvanceOp, cfg.Barrier)
		want, wantErr := core.EventBased(measured.Trace, cal)
		got, gotErr := core.Analyze(measured.Trace, cal, core.Options{Repair: true})
		assertSameApproximation(t, l.Name, want, wantErr, got, gotErr)
		if gotErr != nil {
			continue
		}
		if got.Repair == nil || !got.Repair.Clean() {
			t.Fatalf("%s: clean trace produced defects: %v", l.Name, got.Repair)
		}
		for _, c := range got.Confidence {
			if c.Score != 1 {
				t.Fatalf("%s: clean trace confidence %v != 1 on proc %d", l.Name, c.Score, c.Proc)
			}
		}
	}
}

// TestModeString pins the command-line spellings of the modes.
func TestModeString(t *testing.T) {
	cases := map[core.Mode]string{
		core.ModeEventBased: "event-based",
		core.ModeTimeBased:  "time-based",
		core.ModeLiberal:    "liberal",
		core.Mode(99):       "unknown",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}
