package experiments

import (
	"fmt"
	"io"

	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/obs"
	"perturb/internal/testgen"
	"perturb/internal/timing"
)

// OverheadBudget is the obs layer's self-perturbation budget as a ratio
// of costs: the work measured with telemetry (or the span recorder)
// enabled may cost at most 3% more than without it.
const OverheadBudget = 1.03

// SelfPerturbResult is the dogfooded instrumentation audit: the cost of
// the event-based analysis over the same trace with the obs telemetry
// layer enabled against disabled. The paper's instrumentation-uncertainty
// argument applies to the toolchain itself — a perturbation analyzer whose
// own telemetry perturbed it measurably would be undermining its thesis —
// so the audit quantifies the self-perturbation the same way the paper
// quantifies probe cost: measure with and without, compare.
type SelfPerturbResult struct {
	Procs  int
	Events int
	// Overhead holds the per-round ratios on/off of one full analysis,
	// on the wall clock and on the process CPU clock.
	Overhead timing.Result
}

// SelfPerturb times the default event-based analysis (Analyze with zero
// Options, the path every caller runs) of a backward-wave DOACROSS trace
// (procs processors, iters iterations, ~4*iters events) with telemetry
// on against off, in the alternating, collected rounds of
// timing.Compare. The previous enabled state of the telemetry layer is
// restored before returning.
func SelfPerturb(procs, iters int) (*SelfPerturbResult, error) {
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

	analyze := func(on bool) func() error {
		return func() error {
			obs.SetEnabled(on)
			_, err := core.Analyze(tr, cal, core.Options{})
			return err
		}
	}
	res, err := timing.Compare(analyze(true), analyze(false), OverheadBudget)
	if err != nil {
		return nil, err
	}
	return &SelfPerturbResult{Procs: procs, Events: tr.Len(), Overhead: res}, nil
}

// Render writes the audit as a small table. The output contains
// timings, so — unlike the paper experiments — it is intentionally not
// part of RunAll or the Markdown report, whose bytes must not vary run
// to run.
func (r *SelfPerturbResult) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"Self-perturbation audit: event-based analysis of %d events on %d procs, telemetry on vs off\n",
		r.Events, r.Procs); err != nil {
		return err
	}
	return renderOverhead(w, r.Overhead)
}

// renderOverhead writes an on/off comparison as the overhead on each
// clock: the median with its quartiles and a verdict against the budget.
// A bar between the quartiles after the harness has pooled all the
// rounds it may take is unresolved.
func renderOverhead(w io.Writer, res timing.Result) error {
	const row = "%-6s %9s  %-22s %s\n"
	if _, err := fmt.Fprintf(w, row, "clock", "overhead", "quartiles", fmt.Sprintf("verdict (budget 3%%, %d rounds)", res.Rounds)); err != nil {
		return err
	}
	pct := func(ratio float64) string { return fmt.Sprintf("%+.2f%%", 100*(ratio-1)) }
	for _, c := range []struct {
		clock string
		r     timing.Ratio
	}{{"cpu", res.CPU}, {"wall", res.Wall}} {
		verdict := "met"
		switch {
		case c.r.Straddles(OverheadBudget):
			verdict = "unresolved"
		case c.r.Median > OverheadBudget:
			verdict = "missed"
		}
		if _, err := fmt.Fprintf(w, row, c.clock, pct(c.r.Median), "["+pct(c.r.Q1)+", "+pct(c.r.Q3)+"]", verdict); err != nil {
			return err
		}
	}
	return nil
}
