package core

import (
	"context"
	"errors"

	"perturb/internal/cancel"
	"perturb/internal/instr"
	"perturb/internal/trace"
)

// Mode selects which perturbation analysis Analyze applies.
type Mode int

const (
	// ModeEventBased is the default: event-based analysis (paper §4),
	// modeling synchronization operations.
	ModeEventBased Mode = iota
	// ModeTimeBased applies time-based analysis (paper §3): per-thread
	// overhead removal, no synchronization modeling.
	ModeTimeBased
	// ModeLiberal applies the liberal event-based analysis: DOACROSS
	// dependencies are re-derived from the loop's dependence distance
	// instead of the measured event order.
	ModeLiberal
)

// String names the mode the way the command-line tools spell it.
func (m Mode) String() string {
	switch m {
	case ModeEventBased:
		return "event-based"
	case ModeTimeBased:
		return "time-based"
	case ModeLiberal:
		return "liberal"
	default:
		return "unknown"
	}
}

// Options configures Analyze. The zero value requests the event-based
// analysis of a well-formed trace — exactly EventBased's behaviour.
type Options struct {
	// Mode selects the analysis family. Default: ModeEventBased.
	Mode Mode

	// Repair sanitizes the trace with trace.Repair before analysis and
	// runs the analysis in degraded mode: defects are repaired or flagged,
	// unpaired awaits resolve with conservative placeholders, and the
	// returned Approximation carries the RepairReport and a per-processor
	// Confidence summary. Without Repair, a defective trace fails
	// validation instead.
	Repair bool

	// Liberal configures ModeLiberal; ignored by the other modes.
	Liberal LiberalOptions
}

// Analyze is the unified entry point to the perturbation analyses: it
// applies the analysis selected by opts.Mode to the measured trace m under
// calibration cal. With the zero Options it is exactly EventBased.
//
// With opts.Repair, the trace is first sanitized (trace.Repair) and the
// event-based analysis runs in degraded mode, tolerating the repairs: the
// result approximates the actual execution from whatever evidence survived
// in the trace, and reports how much of it rests on conservative
// placeholders via Approximation.Confidence. The input trace is never
// modified — repair works on a copy.
func Analyze(m *trace.Trace, cal instr.Calibration, opts Options) (*Approximation, error) {
	return AnalyzeContext(context.Background(), m, cal, opts)
}

// AnalyzeContext is Analyze under a context: the analysis, in every mode,
// polls ctx cooperatively (every few thousand events inside the engine's
// resolution loop, and between forced resolutions of a degraded run) and
// abandons the run with ErrCanceled or ErrDeadlineExceeded — matching both
// the package sentinels and the context causes under errors.Is — without
// returning a partial Approximation. A background context reproduces
// Analyze exactly.
func AnalyzeContext(ctx context.Context, m *trace.Trace, cal instr.Calibration, opts Options) (*Approximation, error) {
	return collect(AnalyzeUncollected(ctx, m, cal, opts))
}

// AnalyzeUncollected is AnalyzeContext without collecting the
// approximated trace: the result's Trace is nil, and Events reads its
// events in canonical order from the engine's log, merging them as it
// goes. The log holds m's events, so m must not change while the result
// is read. perturbd's batch analyses run this way: a response needs
// only the counts and the fingerprint.
func AnalyzeUncollected(ctx context.Context, m *trace.Trace, cal instr.Calibration, opts Options) (*Approximation, error) {
	if err := cancel.Err(ctx); err != nil {
		return nil, err
	}
	analyze := func(m *trace.Trace) (*Approximation, error) {
		switch opts.Mode {
		case ModeTimeBased:
			return analyzeBatch(ctx, m, cal, ModeTimeBased, false)
		case ModeLiberal:
			a, _, err := liberal(ctx, m, cal, opts.Liberal)
			return a, err
		case ModeEventBased:
			return eventBased(ctx, m, cal, opts.Repair)
		}
		return nil, errors.New("core: unknown analysis mode")
	}
	if opts.Repair {
		return analyzeRepaired(ctx, m, analyze)
	}
	return analyze(m)
}

// analyzeRepaired is the one repair path, under AnalyzeContext and a
// repairing Stream's Close: it sanitizes m with trace.Repair, runs
// analyze over the repaired copy, and attaches the report and its
// per-processor defects to the result.
func analyzeRepaired(ctx context.Context, m *trace.Trace, analyze func(*trace.Trace) (*Approximation, error)) (*Approximation, error) {
	repaired, rep := trace.Repair(m)
	if err := cancel.Err(ctx); err != nil {
		return nil, err
	}
	a, err := analyze(repaired)
	if err != nil {
		return nil, err
	}
	a.Repair = rep
	attachDefects(a, rep, repaired.Procs)
	return a, nil
}

// attachDefects folds the sanitizer's per-processor repair counts into the
// Confidence summary and re-scores it. Time-based and liberal analyses do
// not populate Confidence themselves; repair-mode runs of those modes get
// a summary built from the repair counts alone, over the engine's event
// count of each processor.
func attachDefects(a *Approximation, rep *trace.RepairReport, procs int) {
	if a.Confidence == nil {
		a.Confidence = make([]ProcConfidence, procs)
		for p := range a.Confidence {
			a.Confidence[p].Proc = p
			if p < len(a.canon.events) {
				a.Confidence[p].Events = a.canon.events[p]
			}
		}
	}
	for p, n := range rep.PerProc {
		if p >= 0 && p < len(a.Confidence) {
			a.Confidence[p].Defects += n
		}
	}
	scoreConfidence(a.Confidence)
}
