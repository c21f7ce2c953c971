package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/obs"
	"perturb/internal/testgen"
)

// SelfPerturbResult is the dogfooded instrumentation audit: the wall time
// of the event-based analysis over the same trace with the obs telemetry
// layer disabled and enabled. The paper's instrumentation-uncertainty
// argument applies to the toolchain itself — a perturbation analyzer whose
// own telemetry perturbed it measurably would be undermining its thesis —
// so the audit quantifies the self-perturbation the same way the paper
// quantifies probe cost: measure with and without, compare.
type SelfPerturbResult struct {
	Procs  int
	Events int
	Rounds int
	// OffNS and OnNS are best-of-rounds wall times of one full analysis
	// with telemetry disabled and enabled, respectively. Best-of (not
	// mean) follows the calibration discipline of rt.CalibrateSync: the
	// minimum is the least-noisy estimate of the work actually required.
	OffNS, OnNS int64
}

// OverheadPercent is the relative wall-time cost of enabling telemetry.
func (r *SelfPerturbResult) OverheadPercent() float64 {
	if r.OffNS == 0 {
		return 0
	}
	return 100 * (float64(r.OnNS) - float64(r.OffNS)) / float64(r.OffNS)
}

// SelfPerturb times the default event-based analysis (Analyze with zero
// Options, the path every caller runs) of a backward-wave DOACROSS trace
// (procs processors, iters iterations, ~4*iters events) with telemetry
// off and then on, taking the best of the given number of rounds for each
// state. The previous enabled state of the telemetry layer is restored
// before returning.
func SelfPerturb(procs, iters, rounds int) (*SelfPerturbResult, error) {
	if rounds < 1 {
		rounds = 1
	}
	tr := testgen.BackwardWave(procs, iters)
	cal := instr.Calibration{
		Overheads: instr.Uniform(2),
		SNoWait:   5,
		SWait:     8,
		AdvanceOp: 3,
		Barrier:   4,
	}

	wasEnabled := obs.Enabled()
	defer obs.SetEnabled(wasEnabled)

	timeOne := func(on bool) (int64, error) {
		obs.SetEnabled(on)
		t0 := time.Now()
		_, err := core.Analyze(tr, cal, core.Options{})
		return time.Since(t0).Nanoseconds(), err
	}

	// One untimed warm-up run so neither state pays first-touch costs.
	obs.SetEnabled(false)
	if _, err := core.Analyze(tr, cal, core.Options{}); err != nil {
		return nil, err
	}

	// Rounds interleave the off and on measurements so slow drift (clock
	// scaling, background load) hits both states equally rather than
	// biasing whichever block ran first.
	offNS, onNS := int64(math.MaxInt64), int64(math.MaxInt64)
	for r := 0; r < rounds; r++ {
		d, err := timeOne(false)
		if err != nil {
			return nil, err
		}
		if d < offNS {
			offNS = d
		}
		if d, err = timeOne(true); err != nil {
			return nil, err
		}
		if d < onNS {
			onNS = d
		}
	}
	return &SelfPerturbResult{
		Procs:  procs,
		Events: tr.Len(),
		Rounds: rounds,
		OffNS:  offNS,
		OnNS:   onNS,
	}, nil
}

// Render writes the audit as a small table. The output contains wall-clock
// times, so — unlike the paper experiments — it is intentionally not part
// of RunAll or the Markdown report, whose bytes must not vary run to run.
func (r *SelfPerturbResult) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"Self-perturbation audit: event-based analysis of %d events on %d procs (best of %d rounds)\n",
		r.Events, r.Procs, r.Rounds); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-12s %14s %14s\n", "telemetry", "wall time", "Mevents/sec"); err != nil {
		return err
	}
	rate := func(ns int64) float64 {
		if ns == 0 {
			return 0
		}
		return float64(r.Events) / float64(ns) * 1e3
	}
	for _, row := range []struct {
		label string
		ns    int64
	}{{"off", r.OffNS}, {"on", r.OnNS}} {
		if _, err := fmt.Fprintf(w, "%-12s %14v %14.1f\n",
			row.label, time.Duration(row.ns), rate(row.ns)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "overhead     %+13.2f%%  (budget 3%%)\n", r.OverheadPercent())
	return err
}
