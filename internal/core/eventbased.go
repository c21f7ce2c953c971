package core

import (
	"context"

	"perturb/internal/instr"
	"perturb/internal/trace"
)

// EventBased applies event-based perturbation analysis (paper §4.2.3).
// Ordinary events follow the time-based rule; synchronization events are
// modeled:
//
//	ta(advance) = ta(u) + tm(advance) - tm(u) - alpha
//	ta(awaitB)  = ta(v) + tm(awaitB)  - tm(v) - beta
//	ta(awaitE)  = ta(awaitB) + s_nowait   if ta(advance) <= ta(awaitB)
//	            = ta(advance) + s_wait    otherwise
//
// where u and v are the same-thread predecessors. The end-of-DOACROSS
// barrier is handled with the barrier model (paper footnote 7): the release
// is approximated as the latest participant arrival plus the barrier cost.
//
// Lock-based critical sections (lock-req/lock-acq/lock-rel events) are
// modeled conservatively with the semaphore rule: the k-th acquisition of a
// lock in the measured order depends on the (k-1)-th release, and
//
//	ta(lockAcq) = ta(lockReq) + s_nowait   if ta(prevRel) <= ta(lockReq)
//	            = ta(prevRel) + s_wait     otherwise
//
// preserving the measured acquisition order (the conservative choice: the
// actual order is a run-time outcome the analysis cannot re-derive without
// liberal assumptions).
//
// Because an awaitE cannot be resolved before its paired advance — which
// typically occurs on another processor and possibly later in the measured
// total order — resolution is a worklist fixpoint over processors: a
// processor resolves its events in order until one blocks on a
// dependency, parks there, and resumes when the dependency resolves. The
// analysis terminates when all events are resolved or no progress is
// possible (ErrUnresolvable).
func EventBased(m *trace.Trace, cal instr.Calibration) (*Approximation, error) {
	return collect(eventBased(context.Background(), m, cal, false))
}

// eventBased is the event-based analysis over a whole trace: a
// feed-everything-then-close run of the engine (stream.go), where the
// resolution rules live, shared with the streaming sessions.
//
// With degraded set, the analysis tolerates sanitized-but-incomplete
// traces instead of insisting on exact reconstruction:
//
//   - an awaitE whose paired advance is missing from the whole trace (and
//     whose iteration is non-negative, so it is not a pre-advanced
//     DOACROSS warm-up await) resolves with a conservative placeholder
//     that keeps the measured wait: the advance's timing is lost, and
//     assuming no-wait would silently delete real blocking time;
//   - when constructive resolution stalls (a dependency cycle a repaired
//     trace can still contain), the first blocked event in processor
//     order is force-resolved with the execution-timing rule instead of
//     returning ErrUnresolvable.
//
// Both degradations are tallied per processor in the returned
// Approximation's Confidence.
//
// The engine polls ctx every cancel.CheckEvery resolved events,
// abandoning the run with the mapped cancellation sentinel.
func eventBased(ctx context.Context, m *trace.Trace, cal instr.Calibration, degraded bool) (*Approximation, error) {
	return analyzeBatch(ctx, m, cal, ModeEventBased, degraded)
}
