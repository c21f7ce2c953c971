package perturb_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"perturb"
)

// TestFacadePipeline exercises the public API end to end: build a loop,
// simulate actual and measured runs, analyze, and derive metrics.
func TestFacadePipeline(t *testing.T) {
	loop := perturb.NewLoop("facade", perturb.DOACROSS, 128).
		Compute("work", 3*perturb.Microsecond).
		CriticalBegin(0).
		Compute("update", perturb.Microsecond).
		CriticalEnd(0).
		Loop()
	cfg := perturb.Alliant()

	actual, err := perturb.Simulate(loop, perturb.NoInstrumentation(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ovh := perturb.UniformOverheads(5 * perturb.Microsecond)
	measured, err := perturb.Simulate(loop, perturb.FullInstrumentation(ovh, true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if measured.Duration <= actual.Duration {
		t.Fatal("instrumentation should slow the run")
	}

	cal := perturb.ExactCalibration(ovh, cfg)
	approx, err := perturb.Analyze(measured.Trace, cal, perturb.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if approx.Duration != actual.Duration {
		t.Errorf("event-based recovery %d != actual %d", approx.Duration, actual.Duration)
	}

	tb, err := perturb.Analyze(measured.Trace, cal, perturb.AnalyzeOptions{Mode: perturb.TimeBased})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Duration == actual.Duration {
		t.Error("time-based analysis should not be exact on a DOACROSS loop")
	}

	lib, err := perturb.Analyze(measured.Trace, cal, perturb.AnalyzeOptions{
		Mode: perturb.Liberal,
		Liberal: perturb.LiberalOptions{
			Procs: cfg.Procs, Distance: loop.Distance, Schedule: perturb.Interleaved,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := float64(lib.Duration) / float64(actual.Duration)
	if r < 0.95 || r > 1.05 {
		t.Errorf("liberal recovery ratio %.3f", r)
	}

	ws, err := perturb.Waiting(approx.Trace, cal)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != cfg.Procs {
		t.Errorf("waiting rows = %d, want %d", len(ws), cfg.Procs)
	}
	if _, err := perturb.Timeline(approx.Trace, cal); err != nil {
		t.Fatal(err)
	}
	prof, err := perturb.Parallelism(approx.Trace, cal)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Level) == 0 {
		t.Error("parallelism profile empty")
	}
}

// TestZeroProcsTraceIsMalformed: a trace whose Procs is 0 (a text trace
// with header "procs=0" decodes to one) leaves its processors to be
// discovered, as Analyze does. The statistics that size per-processor
// tables by Procs reject its events as malformed instead of indexing past
// their tables. A negative Procs is malformed everywhere, refused before
// anything is sized by it.
func TestZeroProcsTraceIsMalformed(t *testing.T) {
	cal := perturb.Calibration{Overheads: perturb.UniformOverheads(2), SNoWait: 5, SWait: 8, AdvanceOp: 3, Barrier: 4}
	for _, procs := range []int{0, -1} {
		tr := &perturb.Trace{Procs: procs, Events: []perturb.Event{
			{Time: 0, Proc: 0, Kind: perturb.KindLoopBegin, Iter: -1, Var: -1},
			{Time: 1, Proc: 0, Kind: perturb.KindCompute, Iter: -1, Var: -1},
		}}
		analyze := func(opts perturb.AnalyzeOptions) func() error {
			return func() error { _, err := perturb.Analyze(tr, cal, opts); return err }
		}
		liberal := perturb.AnalyzeOptions{Mode: perturb.Liberal, Liberal: perturb.LiberalOptions{Procs: 2}}
		for name, f := range map[string]func() error{
			"Validate":            tr.Validate,
			"Analyze":             analyze(perturb.AnalyzeOptions{}),
			"Analyze/liberal":     analyze(liberal),
			"AnalyzeCriticalPath": func() error { _, err := perturb.AnalyzeCriticalPath(tr); return err },
			"CheckFeasible":       func() error { return perturb.CheckFeasible(tr, tr) },
			"Slice":               func() error { _, _, err := perturb.Slice(tr, perturb.SliceQuery{}); return err },
			"Waiting":             func() error { _, err := perturb.Waiting(tr, cal); return err },
			"Parallelism":         func() error { _, err := perturb.Parallelism(tr, cal); return err },
			"Timeline":            func() error { _, err := perturb.Timeline(tr, cal); return err },
		} {
			err := f()
			switch {
			case procs == 0 && (name == "Validate" || name == "Analyze"):
				if err != nil {
					t.Errorf("procs=0: %s = %v, want success", name, err)
				}
			case procs == 0 && name == "Analyze/liberal":
				if !errors.Is(err, perturb.ErrUnsupported) {
					t.Errorf("procs=0: %s = %v, want an error wrapping ErrUnsupported", name, err)
				}
			case !errors.Is(err, perturb.ErrMalformedTrace):
				t.Errorf("procs=%d: %s = %v, want an error wrapping ErrMalformedTrace", procs, name, err)
			}
		}
	}
}

func TestFacadeTraceCodecs(t *testing.T) {
	loop, err := perturb.LivermoreLoop(3)
	if err != nil {
		t.Fatal(err)
	}
	if loop.Number != 3 {
		t.Errorf("LivermoreLoop(3).Number = %d", loop.Number)
	}
	if _, err := perturb.LivermoreLoop(99); err == nil {
		t.Error("unknown kernel should error")
	}

	res, err := perturb.Simulate(loop, perturb.NoInstrumentation(), perturb.Alliant())
	if err != nil {
		t.Fatal(err)
	}
	var text, bin bytes.Buffer
	if err := res.Trace.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := res.Trace.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	fromText, err := perturb.ReadTraceText(&text)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := perturb.ReadTraceBinary(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if fromText.Len() != res.Trace.Len() || fromBin.Len() != res.Trace.Len() {
		t.Error("codec round trip lost events")
	}
}

func TestRunPaperExperiments(t *testing.T) {
	var buf bytes.Buffer
	if err := perturb.RunPaperExperiments(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 1", "Table 2", "Figure 5"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output lacks %q", want)
		}
	}
}

func TestPerturbedCalibrationFacade(t *testing.T) {
	cfg := perturb.Alliant()
	base := perturb.ExactCalibration(perturb.PaperOverheads(), cfg)
	p := perturb.PerturbedCalibration(base, 9, 50)
	if p == base {
		t.Error("perturbed calibration should differ from exact")
	}
}

// TestFacadeProgramAndTools covers the remaining facade surface: program
// composition, the aggregate time-based model, feasibility checking,
// critical paths and profiles.
func TestFacadeProgramAndTools(t *testing.T) {
	phase1 := perturb.NewLoop("p1", perturb.DOACROSS, 32).
		Compute("w", 2*perturb.Microsecond).
		CriticalBegin(0).
		Compute("c", perturb.Microsecond).
		CriticalEnd(0).
		Loop()
	phase2 := perturb.NewLoop("p2", perturb.DOALL, 32).
		Compute("v", perturb.Microsecond).
		Loop()
	prog := perturb.NewProgram("pipeline", phase1, phase2)
	cfg := perturb.Alliant()

	actual, err := perturb.SimulateProgram(prog, perturb.NoInstrumentation(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ovh := perturb.UniformOverheads(4 * perturb.Microsecond)
	measured, err := perturb.SimulateProgram(prog, perturb.FullInstrumentation(ovh, true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cal := perturb.ExactCalibration(ovh, cfg)
	approx, err := perturb.Analyze(measured.Trace, cal, perturb.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if approx.Duration != actual.Duration {
		t.Errorf("program recovery %d != actual %d", approx.Duration, actual.Duration)
	}
	if err := perturb.CheckFeasible(measured.Trace, approx.Trace); err != nil {
		t.Errorf("approximation should be feasible: %v", err)
	}
	total, err := perturb.AnalyzeTimeBasedTotal(measured.Trace, cal)
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 || total > measured.Duration {
		t.Errorf("aggregate total %d outside (0, measured %d]", total, measured.Duration)
	}
	path, err := perturb.AnalyzeCriticalPath(approx.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(path.Steps) == 0 || path.Total <= 0 {
		t.Errorf("critical path empty: %+v", path)
	}
	prof, err := perturb.StatementProfile(approx.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof) == 0 {
		t.Error("profile empty")
	}
	te, err := perturb.CompareTiming(actual.Trace, approx.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if te.MaxAbs != 0 {
		t.Errorf("exact recovery should have zero per-event error, max %d", te.MaxAbs)
	}
}

// TestCachedAnalyzer: the in-process cached analyzer returns results
// byte-identical to direct Analyze, serves repeats from memory, and
// discriminates on every analysis input.
func TestCachedAnalyzer(t *testing.T) {
	loop, err := perturb.LivermoreLoop(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := perturb.Alliant()
	ovh := perturb.UniformOverheads(5 * perturb.Microsecond)
	measured, err := perturb.Simulate(loop, perturb.FullInstrumentation(ovh, true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cal := perturb.ExactCalibration(ovh, cfg)

	direct, err := perturb.Analyze(measured.Trace, cal, perturb.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}

	a := perturb.NewCachedAnalyzer(64 << 20)
	ctx := context.Background()
	first, cached, err := a.Analyze(ctx, measured.Trace, cal, perturb.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("first analysis reported cached")
	}
	if !reflect.DeepEqual(first, direct) {
		t.Error("cached analyzer result differs from direct Analyze")
	}

	second, cached, err := a.Analyze(ctx, measured.Trace, cal, perturb.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("repeat analysis missed the cache")
	}
	if second != first {
		t.Error("repeat analysis did not return the resident result")
	}

	// A different analysis of the same trace is a distinct key.
	_, cached, err = a.Analyze(ctx, measured.Trace, cal, perturb.AnalyzeOptions{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("repair-enabled analysis reused the plain result")
	}

	st := a.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 1 hit, 2 misses, 2 entries", st)
	}

	// maxBytes <= 0 disables caching but stays usable.
	off := perturb.NewCachedAnalyzer(0)
	for i := 0; i < 2; i++ {
		res, cached, err := off.Analyze(ctx, measured.Trace, cal, perturb.AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if cached {
			t.Error("disabled analyzer reported a cache hit")
		}
		if !reflect.DeepEqual(res, direct) {
			t.Error("disabled analyzer result differs from direct Analyze")
		}
	}
	if st := off.Stats(); st.Hits != 0 || st.Entries != 0 {
		t.Errorf("disabled analyzer stats = %+v, want zeroes", st)
	}
}
