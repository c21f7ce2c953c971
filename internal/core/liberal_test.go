package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"perturb/internal/cancel"
	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/loops"
	"perturb/internal/machine"
	"perturb/internal/obs"
	"perturb/internal/program"
	"perturb/internal/trace"
)

func liberalLoop(iters int, jitter trace.Time) *program.Loop {
	b := program.NewBuilder("liberal test", 0, program.DOACROSS, iters)
	b.Head("setup", 2*us)
	b.ComputeJitter("work", 3*us, jitter)
	b.Compute("pack", us)
	b.CriticalBegin(0)
	b.Compute("update", us/2)
	b.CriticalEnd(0)
	b.Compute("post", us/2)
	b.Tail("teardown", us)
	return b.Loop()
}

func runMeasured(t *testing.T, l *program.Loop, cfg machine.Config, ovh instr.Overheads) *machine.Result {
	t.Helper()
	res, err := machine.Run(l, instr.FullPlan(ovh, true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLiberalMatchesConservativeOnStaticSchedule: with the measured
// schedule as the target, the liberal re-simulation agrees with the
// conservative analysis (within the fork-extraction tolerance).
func TestLiberalMatchesConservativeOnStaticSchedule(t *testing.T) {
	cfg := machine.Alliant()
	ovh := instr.Uniform(5 * us)
	cal := exactCalFor(cfg, ovh)
	l := liberalLoop(128, 0)
	measured := runMeasured(t, l, cfg, ovh)

	conservative, err := core.EventBased(measured.Trace, cal)
	if err != nil {
		t.Fatal(err)
	}
	liberal, err := core.LiberalEventBased(measured.Trace, cal, core.LiberalOptions{
		Procs: cfg.Procs, Distance: l.Distance, Schedule: program.Interleaved,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := float64(liberal.Duration) / float64(conservative.Duration)
	if r < 0.97 || r > 1.03 {
		t.Errorf("liberal/conservative = %.4f, want ~1 on the measured schedule", r)
	}
	if err := liberal.Trace.Validate(); err != nil {
		t.Errorf("liberal trace invalid: %v", err)
	}
}

// TestLiberalPredictsOtherSchedules: liberal analysis of an
// interleaved-schedule measurement predicts the actual duration under
// blocked and dynamic schedules.
func TestLiberalPredictsOtherSchedules(t *testing.T) {
	base := machine.Alliant()
	ovh := instr.Uniform(5 * us)
	cal := exactCalFor(base, ovh)
	l := liberalLoop(128, 4*us)
	measured := runMeasured(t, l, base, ovh)

	for _, sched := range []program.Schedule{program.Blocked, program.Dynamic} {
		predicted, err := core.LiberalEventBased(measured.Trace, cal, core.LiberalOptions{
			Procs: base.Procs, Distance: l.Distance, Schedule: sched,
		})
		if err != nil {
			t.Fatalf("%v: %v", sched, err)
		}
		cfg := base
		cfg.Schedule = sched
		actual, err := machine.Run(l, instr.NonePlan(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := float64(predicted.Duration) / float64(actual.Duration)
		if r < 0.9 || r > 1.1 {
			t.Errorf("schedule %v: predicted/actual = %.4f, want within 10%%", sched, r)
		}
	}
}

// TestLiberalReassignsWork: under a blocked target schedule, iterations
// appear on blocked-style processors in the liberal approximation.
func TestLiberalReassignsWork(t *testing.T) {
	cfg := machine.Alliant()
	ovh := instr.Uniform(5 * us)
	cal := exactCalFor(cfg, ovh)
	l := liberalLoop(64, 0)
	measured := runMeasured(t, l, cfg, ovh)

	liberal, err := core.LiberalEventBased(measured.Trace, cal, core.LiberalOptions{
		Procs: cfg.Procs, Distance: l.Distance, Schedule: program.Blocked,
	})
	if err != nil {
		t.Fatal(err)
	}
	chunk := 64 / cfg.Procs
	for _, e := range liberal.Trace.Events {
		if e.Kind != trace.KindCompute || e.Iter == trace.NoIter || e.Stmt < 0 {
			continue
		}
		if want := e.Iter / chunk; e.Proc != want {
			t.Fatalf("iteration %d on proc %d, blocked schedule wants %d", e.Iter, e.Proc, want)
		}
	}
}

func TestLiberalErrorCases(t *testing.T) {
	cfg := machine.Alliant()
	ovh := instr.Uniform(5 * us)
	cal := exactCalFor(cfg, ovh)
	l := liberalLoop(16, 0)
	measured := runMeasured(t, l, cfg, ovh)

	if _, err := core.LiberalEventBased(measured.Trace, cal, core.LiberalOptions{Procs: 0}); err == nil {
		t.Error("Procs=0 should fail")
	}

	// Missing loop markers.
	noMarkers := measured.Trace.Filter(func(e trace.Event) bool {
		return e.Kind != trace.KindLoopBegin
	})
	_, err := core.LiberalEventBased(noMarkers, cal, core.LiberalOptions{Procs: 8})
	if err == nil || !strings.Contains(err.Error(), "loop-begin") {
		t.Errorf("missing markers: err = %v", err)
	}

	// Missing barrier events.
	noBarrier := measured.Trace.Filter(func(e trace.Event) bool {
		return e.Kind != trace.KindBarrierArrive && e.Kind != trace.KindBarrierRelease
	})
	_, err = core.LiberalEventBased(noBarrier, cal, core.LiberalOptions{Procs: 8})
	if err == nil || !strings.Contains(err.Error(), "barrier") {
		t.Errorf("missing barrier: err = %v", err)
	}

	// A hole in the iteration space (every event of executing iteration
	// 5: its computes and advance record Iter 5, its awaits record the
	// target 5-distance).
	holed := measured.Trace.Filter(func(e trace.Event) bool {
		switch e.Kind {
		case trace.KindAwaitB, trace.KindAwaitE:
			return e.Iter != 5-l.Distance
		default:
			return e.Iter != 5
		}
	})
	_, err = core.LiberalEventBased(holed, cal, core.LiberalOptions{Procs: 8, Distance: l.Distance})
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("iteration hole: err = %v", err)
	}

	// Incomplete synchronization: drop only iteration 5's advance.
	noAdv := measured.Trace.Filter(func(e trace.Event) bool {
		return !(e.Kind == trace.KindAdvance && e.Iter == 5)
	})
	_, err = core.LiberalEventBased(noAdv, cal, core.LiberalOptions{Procs: 8, Distance: l.Distance})
	if err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Errorf("missing advance: err = %v", err)
	}

	// A second await...advance region: liberal would keep one awaitB,
	// awaitE and advance per iteration and drop the rest.
	twoRegions := runMeasured(t, multiVarLoop(16, 1), cfg, ovh)
	_, err = core.LiberalEventBased(twoRegions.Trace, cal, core.LiberalOptions{Procs: 8, Distance: 1})
	if !errors.Is(err, core.ErrUnsupported) || !strings.Contains(err.Error(), "second") {
		t.Errorf("two regions: err = %v", err)
	}

	// Invalid trace.
	bad := trace.New(1)
	bad.Append(trace.Event{Time: 1, Proc: 9, Kind: trace.KindCompute})
	if _, err := core.LiberalEventBased(bad, cal, core.LiberalOptions{Procs: 2}); err == nil {
		t.Error("invalid trace should be rejected")
	}
}

// TestLiberalRandomizedAgainstGroundTruth sweeps random imbalanced loops
// and checks blocked-schedule predictions stay within tolerance.
func TestLiberalRandomizedAgainstGroundTruth(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	base := machine.Alliant()
	ovh := instr.Uniform(5 * us)
	cal := exactCalFor(base, ovh)
	for i := 0; i < 10; i++ {
		iters := 32 + 8*r.Intn(12)
		l := liberalLoop(iters, trace.Time(r.Intn(6))*us)
		measured := runMeasured(t, l, base, ovh)
		predicted, err := core.LiberalEventBased(measured.Trace, cal, core.LiberalOptions{
			Procs: base.Procs, Distance: l.Distance, Schedule: program.Blocked,
		})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		cfg := base
		cfg.Schedule = program.Blocked
		actual, err := machine.Run(l, instr.NonePlan(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(predicted.Duration) / float64(actual.Duration)
		if ratio < 0.85 || ratio > 1.15 {
			t.Errorf("case %d (iters %d): predicted/actual = %.4f", i, iters, ratio)
		}
	}
}

// liberalCase is one measurement of the liberal corpus, with the
// calibration and dependence distance its analysis gets and the target
// processor counts to analyze it for.
type liberalCase struct {
	name     string
	trace    *trace.Trace
	cal      instr.Calibration
	distance int
	targets  []int
}

// liberalCorpus returns seeded DOACROSS measurements: random loops of 1-90
// iterations, distance 1-4 and up to 5 µs of jitter, each measured on 1-9
// processors under a random schedule with uniform 0-5 µs or the paper's
// probes, one in eight without sync probes, calibrated exactly or with up
// to ±5% error, to analyze for 1-9 processors; then LL3, LL4 and LL17
// under every schedule (1.6k to 16k events each), to analyze for 1, 5, 8
// and 9.
func liberalCorpus(t *testing.T) []liberalCase {
	t.Helper()
	r := rand.New(rand.NewSource(22))
	var cs []liberalCase
	measure := func(name string, l *program.Loop, cfg machine.Config, ovh instr.Overheads, sync, noisy bool, targets []int) {
		res, err := machine.Run(l, instr.FullPlan(ovh, sync), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cal := exactCalFor(cfg, ovh)
		if noisy {
			cal = instr.Perturbed(cal, uint64(len(cs)), 50)
		}
		cs = append(cs, liberalCase{name, res.Trace, cal, l.Distance, targets})
	}
	cost := func() trace.Time { return trace.Time(r.Intn(4000)) }
	jitter := func() trace.Time { return trace.Time(r.Intn(5001)) }
	for i := range 120 {
		b := program.NewBuilder(fmt.Sprintf("doacross %d", i), 0, program.DOACROSS, 1+r.Intn(90))
		b.Distance(1 + r.Intn(4))
		for range r.Intn(3) {
			b.Head("head", cost())
		}
		for range 1 + r.Intn(3) {
			b.ComputeJitter("pre", cost(), jitter())
		}
		b.CriticalBegin(0)
		for range 1 + r.Intn(2) {
			b.ComputeJitter("crit", cost(), jitter())
		}
		b.CriticalEnd(0)
		for range r.Intn(3) {
			b.ComputeJitter("post", cost(), jitter())
		}
		for range r.Intn(3) {
			b.Tail("tail", cost())
		}
		cfg := machine.Alliant()
		cfg.Procs = 1 + r.Intn(9)
		cfg.Schedule = program.Schedule(r.Intn(program.NumSchedules))
		ovh := instr.Uniform(trace.Time(r.Intn(5001)))
		if r.Intn(2) == 0 {
			ovh = loops.PaperOverheads()
		}
		l := b.Loop()
		measure(l.Name, l, cfg, ovh, r.Intn(8) != 0, r.Intn(2) == 0, []int{1, 2, 3, 4, 5, 6, 7, 8, 9})
	}
	for _, k := range []int{3, 4, 17} {
		d, err := loops.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		for s := range program.NumSchedules {
			cfg := machine.Alliant()
			cfg.Schedule = program.Schedule(s)
			measure(fmt.Sprintf("LL%d %v", k, cfg.Schedule), d.Loop, cfg, loops.PaperOverheads(), true, false, []int{1, 5, 8, 9})
		}
	}
	return cs
}

// TestLiberalMatchesReference: liberal analysis through the engine returns
// exactly what the re-simulation it replaced returns — events, Procs,
// Duration, the three wait counts, or the same error — under every target
// schedule, on the corpus, on corrupted copies of it and under a wrong
// dependence distance.
func TestLiberalMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(2022))
	runs, rejected := 0, 0
	check := func(name string, tr *trace.Trace, cal instr.Calibration, opts core.LiberalOptions) {
		t.Helper()
		want, wantErr := core.LiberalReference(tr, cal, opts)
		got, err := core.LiberalEventBased(tr, cal, opts)
		runs++
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s %+v: err = %v, reference %v", name, opts, err, wantErr)
		}
		if wantErr != nil {
			rejected++
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %+v: duration %d (waits %d/%d/%d), reference %d (%d/%d/%d); events equal: %v",
				name, opts, got.Duration, got.WaitsKept, got.WaitsRemoved, got.WaitsIntroduced,
				want.Duration, want.WaitsKept, want.WaitsRemoved, want.WaitsIntroduced,
				reflect.DeepEqual(got.Trace, want.Trace))
		}
	}
	for _, c := range liberalCorpus(t) {
		for _, procs := range c.targets {
			for s := range program.NumSchedules {
				check(c.name, c.trace, c.cal, core.LiberalOptions{Procs: procs, Distance: c.distance, Schedule: program.Schedule(s)})
			}
		}
		for range 3 {
			bad := c.trace
			for range 1 + r.Intn(3) {
				bad = mutate(r, bad)
			}
			check(c.name+" corrupted", bad, c.cal, core.LiberalOptions{
				Procs: 1 + r.Intn(9), Distance: c.distance, Schedule: program.Schedule(r.Intn(program.NumSchedules)),
			})
		}
		check(c.name+" wrong distance", c.trace, c.cal, core.LiberalOptions{
			Procs: 1 + r.Intn(9), Distance: c.distance%4 + 1, Schedule: program.Schedule(r.Intn(program.NumSchedules)),
		})
	}
	t.Logf("%d runs, %d rejected", runs, rejected)
}

// TestLiberalFeedMatchesOracle: the naive oracle, applied to the trace
// liberal analysis fed the engine under the calibration it fed it with,
// returns liberal's result once the warm-up processor's events are dropped.
func TestLiberalFeedMatchesOracle(t *testing.T) {
	cfg := machine.Alliant()
	ovh := instr.Uniform(5 * us)
	cal := exactCalFor(cfg, ovh)
	free := cal // the extracted costs carry no probes; awaitE's sets Figure 2's threshold
	free.Overheads = instr.Overheads{AwaitE: ovh.AwaitE}
	for _, distance := range []int{1, 2, 3} {
		b := program.NewBuilder("oracle", 0, program.DOACROSS, 40)
		b.Distance(distance)
		b.Head("setup", 2*us)
		b.ComputeJitter("work", 3*us, 4*us)
		b.CriticalBegin(0)
		b.Compute("update", us/2)
		b.CriticalEnd(0)
		b.Compute("post", us/2)
		b.Tail("teardown", us)
		measured := runMeasured(t, b.Loop(), cfg, ovh)
		for _, procs := range []int{1, 5, 9} {
			for s := range program.NumSchedules {
				opts := core.LiberalOptions{Procs: procs, Distance: distance, Schedule: program.Schedule(s)}
				got, fed, err := core.LiberalFed(measured.Trace, cal, opts)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := oracle(fed, free, core.ModeEventBased, false)
				if err != nil {
					t.Fatalf("%+v: oracle: %v", opts, err)
				}
				want.Trace = want.Trace.Filter(func(e trace.Event) bool { return e.Proc < procs })
				want.Trace.Procs = procs
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%+v: liberal %d (waits %d/%d/%d), oracle on its feed %d (%d/%d/%d)", opts,
						got.Duration, got.WaitsKept, got.WaitsRemoved, got.WaitsIntroduced,
						want.Duration, want.WaitsKept, want.WaitsRemoved, want.WaitsIntroduced)
				}
			}
		}
	}
}

// TestLiberalExtractionHonoursContext: a context canceled once the call is
// under way ends a liberal run during the extraction of the iterations'
// costs, before the engine is fed: the call fails with ErrCanceled and
// the engine's telemetry counts no fed event.
func TestLiberalExtractionHonoursContext(t *testing.T) {
	cfg := machine.Alliant()
	ovh := instr.Uniform(5 * us)
	cal := exactCalFor(cfg, ovh)
	l := liberalLoop(2048, 0)
	measured := runMeasured(t, l, cfg, ovh)
	if n := measured.Trace.Len(); n < 2*cancel.CheckEvery {
		t.Fatalf("%d events: extraction would not poll", n)
	}
	defer obs.SetEnabled(obs.Enabled())
	obs.SetEnabled(true)
	fed := obs.NewCounter("core.analysis.events")
	before := fed.Value()
	opts := core.Options{Mode: core.ModeLiberal, Liberal: core.LiberalOptions{Procs: cfg.Procs, Distance: l.Distance}}
	_, err := core.AnalyzeContext(&canceledAfterEntry{Context: context.Background()}, measured.Trace, cal, opts)
	if !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if n := fed.Value() - before; n != 0 {
		t.Errorf("the engine was fed %d events before the cancellation was seen", n)
	}
}

// canceledAfterEntry is a context that is live for its first Err call,
// AnalyzeContext's check on entry, and canceled from the second on.
type canceledAfterEntry struct {
	context.Context
	polls int
}

func (c *canceledAfterEntry) Err() error {
	if c.polls++; c.polls == 1 {
		return nil
	}
	return context.Canceled
}
