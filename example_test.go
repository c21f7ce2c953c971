package perturb_test

import (
	"fmt"

	"perturb"
)

// The canonical pipeline: build a DOACROSS loop, measure it intrusively,
// recover the actual behaviour from the perturbed trace. The simulator is
// deterministic, so the recovered ratio is exact.
func Example() {
	loop := perturb.NewLoop("example", perturb.DOACROSS, 256).
		Compute("independent work", 4*perturb.Microsecond).
		CriticalBegin(0).
		Compute("shared update", perturb.Microsecond).
		CriticalEnd(0).
		Loop()
	cfg := perturb.Alliant()

	actual, err := perturb.Simulate(loop, perturb.NoInstrumentation(), cfg)
	if err != nil {
		panic(err)
	}
	ovh := perturb.UniformOverheads(5 * perturb.Microsecond)
	measured, err := perturb.Simulate(loop, perturb.FullInstrumentation(ovh, true), cfg)
	if err != nil {
		panic(err)
	}
	approx, err := perturb.Analyze(measured.Trace, perturb.ExactCalibration(ovh, cfg),
		perturb.AnalyzeOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("measured is %.1fx actual; event-based approximation is %.3fx actual\n",
		float64(measured.Duration)/float64(actual.Duration),
		float64(approx.Duration)/float64(actual.Duration))
	// Output:
	// measured is 9.8x actual; event-based approximation is 1.000x actual
}

// Time-based analysis cannot restore the waiting that instrumentation hid,
// so on a dependence-chained loop it underestimates (the paper's Table 1
// failure mode).
func ExampleAnalyze_timeBased() {
	loop, err := perturb.LivermoreLoop(3)
	if err != nil {
		panic(err)
	}
	cfg := perturb.Alliant()
	actual, err := perturb.Simulate(loop, perturb.NoInstrumentation(), cfg)
	if err != nil {
		panic(err)
	}
	ovh := perturb.PaperOverheads()
	measured, err := perturb.Simulate(loop, perturb.FullInstrumentation(ovh, false), cfg)
	if err != nil {
		panic(err)
	}
	tb, err := perturb.Analyze(measured.Trace, perturb.ExactCalibration(ovh, cfg),
		perturb.AnalyzeOptions{Mode: perturb.TimeBased})
	if err != nil {
		panic(err)
	}
	fmt.Printf("time-based approximation of LL3: %.2fx of actual (paper: 0.37)\n",
		float64(tb.Duration)/float64(actual.Duration))
	// Output:
	// time-based approximation of LL3: 0.39x of actual (paper: 0.37)
}

// Liberal analysis re-assigns the measured iterations to another schedule
// (the paper's §4.2.3): one instrumented run under the interleaved
// schedule predicts the duration under each schedule, and the waits the
// re-timed execution keeps, removes and introduces relative to the
// measurement (Figure 2).
func ExampleAnalyze_liberal() {
	loop := perturb.NewLoop("what-if", perturb.DOACROSS, 96).
		Distance(2).
		Head("setup", 3*perturb.Microsecond).
		ComputeJitter("uneven work", 4*perturb.Microsecond, 6*perturb.Microsecond).
		CriticalBegin(0).
		Compute("shared update", perturb.Microsecond).
		CriticalEnd(0).
		Compute("local store", perturb.Microsecond/2).
		Tail("reduce", 2*perturb.Microsecond).
		Loop()
	cfg := perturb.Alliant()
	ovh := perturb.UniformOverheads(5 * perturb.Microsecond)
	measured, err := perturb.Simulate(loop, perturb.FullInstrumentation(ovh, true), cfg)
	if err != nil {
		panic(err)
	}
	for _, s := range []perturb.Schedule{perturb.Interleaved, perturb.Blocked, perturb.Dynamic} {
		a, err := perturb.Analyze(measured.Trace, perturb.ExactCalibration(ovh, cfg), perturb.AnalyzeOptions{
			Mode:    perturb.Liberal,
			Liberal: perturb.LiberalOptions{Procs: cfg.Procs, Distance: loop.Distance, Schedule: s},
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-11v %d ns, %d events, waits kept %d removed %d introduced %d\n",
			s, a.Duration, a.Trace.Len(), a.WaitsKept, a.WaitsRemoved, a.WaitsIntroduced)
	}
	// Output:
	// interleaved 129500 ns, 596 events, waits kept 45 removed 49 introduced 0
	// blocked     725770 ns, 596 events, waits kept 10 removed 84 introduced 0
	// dynamic     129495 ns, 596 events, waits kept 46 removed 48 introduced 0
}

// Traces damaged in the field — here, every fault class the injector
// models at once — still analyze with repair enabled: the sanitizer fixes
// what it can, the analysis degrades conservatively for the rest, and the
// result reports what happened.
func ExampleAnalyze_repair() {
	loop, err := perturb.LivermoreLoop(3)
	if err != nil {
		panic(err)
	}
	cfg := perturb.Alliant()
	ovh := perturb.PaperOverheads()
	measured, err := perturb.Simulate(loop, perturb.FullInstrumentation(ovh, true), cfg)
	if err != nil {
		panic(err)
	}

	damaged, _ := perturb.InjectFaults(measured.Trace, perturb.DropFaults(0.01, 1991))
	approx, err := perturb.Analyze(damaged, perturb.ExactCalibration(ovh, cfg),
		perturb.AnalyzeOptions{Repair: true})
	if err != nil {
		panic(err)
	}

	exact, err := perturb.Analyze(measured.Trace, perturb.ExactCalibration(ovh, cfg),
		perturb.AnalyzeOptions{})
	if err != nil {
		panic(err)
	}
	worst := 1.0
	for _, c := range approx.Confidence {
		if c.Score < worst {
			worst = c.Score
		}
	}
	fmt.Printf("repaired %v\n", !approx.Repair.Clean())
	fmt.Printf("reconstruction within 5%%: %v (worst processor confidence %.3f)\n",
		float64(approx.Duration)/float64(exact.Duration) < 1.05 &&
			float64(approx.Duration)/float64(exact.Duration) > 0.95, worst)
	// Output:
	// repaired true
	// reconstruction within 5%: true (worst processor confidence 0.989)
}

// Waiting statistics come from the approximated execution, never the raw
// measurement (paper Table 3).
func ExampleWaiting() {
	loop, err := perturb.LivermoreLoop(17)
	if err != nil {
		panic(err)
	}
	cfg := perturb.Alliant()
	ovh := perturb.PaperOverheads()
	cal := perturb.ExactCalibration(ovh, cfg)
	measured, err := perturb.Simulate(loop, perturb.FullInstrumentation(ovh, true), cfg)
	if err != nil {
		panic(err)
	}
	approx, err := perturb.Analyze(measured.Trace, cal, perturb.AnalyzeOptions{})
	if err != nil {
		panic(err)
	}
	ws, err := perturb.Waiting(approx.Trace, cal)
	if err != nil {
		panic(err)
	}
	pct := perturb.WaitingPercent(ws, approx.Duration)
	fmt.Printf("processor 0 spends %.1f%% of LL17 waiting\n", pct[0])
	// Output:
	// processor 0 spends 4.8% of LL17 waiting
}
