// Package core implements the paper's perturbation analyses: the recovery
// of an approximation to the actual (uninstrumented) execution from a
// measured (instrumented) event trace and the calibrated instrumentation
// overheads.
//
// Two analyses are provided:
//
//   - TimeBased (paper §3) removes per-event instrumentation overhead from
//     each thread's timeline independently. It is exact for execution whose
//     event times are execution independent (sequential, vector, simple
//     fork-join), and systematically wrong for dependent concurrent
//     execution: it cannot remove waiting that instrumentation introduced,
//     nor restore waiting that instrumentation hid.
//
//   - EventBased (paper §4) additionally models synchronization operations.
//     Advance and await events are paired by their recorded (variable,
//     iteration) identifier; an awaitE is re-timed from the approximated
//     time of its advance using the s_nowait/s_wait rules of §4.2.3, and
//     the end-of-loop barrier is re-timed to the maximum of its
//     participants' approximated arrival times. The result is a
//     conservative approximation: a feasible execution that preserves the
//     measured ordering of dependent events.
//
// Both analyses are constructive: they resolve approximate times ta(x)
// event by event, each event's basis being its same-thread predecessor
// (and, for synchronization events, the events it depends on).
package core

import (
	"errors"

	"perturb/internal/instr"
	"perturb/internal/trace"
)

// Approximation is the outcome of a perturbation analysis: the measured
// trace re-timed to approximate the actual execution.
type Approximation struct {
	// Trace holds the input events with approximated times, re-sorted
	// into canonical order. order.Align maps each input event to its
	// counterpart here, matching each processor's events by statement,
	// kind, iteration and variable, in order.
	//
	// The draining entries fill it: Analyze, AnalyzeContext, EventBased,
	// TimeBased, LiberalEventBased and Stream.Close. AnalyzeUncollected
	// and Stream.CloseUncollected leave it nil, and Events reads the same
	// events from the engine's log instead; perturbd serves every
	// response through those two, so no perturbd path builds it. A
	// low-memory stream's result keeps no events, so its Trace is nil
	// too.
	Trace *trace.Trace

	// Duration is the approximated total execution time (last event
	// time; the analysis normalizes the start to time zero).
	Duration trace.Time

	// WaitsKept counts awaitE events approximated on the waiting path
	// (ta(advance) > ta(awaitB)); WaitsRemoved counts awaitE events that
	// waited in the measured execution (measured gap exceeded the
	// no-wait cost) but not in the approximation; WaitsIntroduced counts
	// the converse (Figure 2's two cases). All three are zero for
	// time-based analysis, which does not interpret synchronization.
	WaitsKept, WaitsRemoved, WaitsIntroduced int

	// Repair is the sanitizer's report when the analysis ran with repair
	// enabled (Options.Repair); nil otherwise. A non-nil report with
	// defects means the approximation was computed from a repaired trace
	// and should be read together with Confidence.
	Repair *trace.RepairReport

	// Confidence summarizes, per processor, how much of the approximation
	// rests on measured events versus conservative placeholders. It is
	// populated only by degraded-mode event-based analysis (Repair
	// enabled); nil for exact runs, whose confidence is 1 by definition.
	// An event raised to its processor's previous approximated time (the
	// program-order rule every run applies) does not count as impaired.
	Confidence []ProcConfidence

	// canon is the approximated trace before it is collected into Trace;
	// nil once collected, and for a result that kept no events.
	canon *canonical
}

// ProcConfidence describes one processor's share of degraded-mode
// approximation quality. The json tags are perturbd's wire form.
type ProcConfidence struct {
	Proc int `json:"proc"`
	// Events is the number of events analyzed on the processor.
	Events int `json:"events"`
	// Placeholders counts synchronization events resolved with the
	// conservative placeholder rule because their partner was missing
	// (an awaitE whose advance was dropped keeps its measured wait).
	Placeholders int `json:"placeholders"`
	// Forced counts events force-resolved by stall-breaking when
	// constructive resolution could make no progress.
	Forced int `json:"forced"`
	// Defects counts the sanitizer's repairs attributed to the processor.
	Defects int `json:"defects"`
	// Score is 1 minus the impaired fraction of the processor's events,
	// floored at zero: 1 means every event resolved from measured data.
	Score float64 `json:"score"`
}

// scoreConfidence fills in each entry's Score from its counts.
func scoreConfidence(cs []ProcConfidence) {
	for i := range cs {
		c := &cs[i]
		impaired := c.Placeholders + c.Forced + c.Defects
		if c.Events <= 0 {
			if impaired > 0 {
				c.Score = 0
			} else {
				c.Score = 1
			}
			continue
		}
		s := 1 - float64(impaired)/float64(c.Events)
		if s < 0 {
			s = 0
		}
		c.Score = s
	}
}

// placeholderWait estimates the waiting time of an awaitE whose paired
// advance was lost from the trace (degraded mode). The advance's measured
// time is gone, but the awaitE's measured completion time survives;
// de-dilating it by the awaiting processor's own observed dilation
// (ta/tm at the awaitB) estimates where the completion falls in actual
// coordinates — the processor's own skew is the best local proxy for the
// instrumentation dilation the missing advance was subject to. The
// estimate is clamped between the no-wait cost (an await cannot complete
// before it begins) and the raw measured wait net of the probe cost
// (instrumentation only ever inflates waiting).
func placeholderWait(cal instr.Calibration, taAwaitB, tmAwaitB, tmAwaitE trace.Time) trace.Time {
	maxWait := tmAwaitE - tmAwaitB - cal.Overheads.AwaitE
	if maxWait < cal.SNoWait {
		return cal.SNoWait
	}
	wait := maxWait
	if tmAwaitB > 0 && taAwaitB >= 0 && taAwaitB < tmAwaitB {
		est := trace.Time(float64(tmAwaitE) * float64(taAwaitB) / float64(tmAwaitB))
		wait = est - taAwaitB
	}
	if wait < cal.SNoWait {
		wait = cal.SNoWait
	}
	if wait > maxWait {
		wait = maxWait
	}
	return wait
}

// ErrUnresolvable is returned when the constructive resolution cannot make
// progress: some synchronization event's dependencies never resolve (for
// example an awaitE whose paired advance is missing while other events
// block behind it, or a barrier with a missing participant).
var ErrUnresolvable = errors.New("core: analysis cannot resolve all events")

// ErrUnsupported is returned when a trace's shape is outside what the
// requested analysis can model (for example lock-based critical sections
// under the liberal analysis, or a missing loop/barrier structure).
var ErrUnsupported = errors.New("core: trace shape not supported by this analysis")
