package core

import (
	"context"

	"perturb/internal/instr"
	"perturb/internal/trace"
)

// TimeBased applies time-based perturbation analysis (paper §3): for every
// event, the approximated time is the same-thread predecessor's
// approximated time plus the measured gap minus the event's calibrated
// probe overhead. Threads are treated as independent; synchronization
// events receive no special handling, so measured waiting is preserved
// verbatim (minus overhead) and waiting that instrumentation suppressed is
// not restored. This is the analysis whose failure on Livermore loops 3, 4
// and 17 motivates the event-based method (Table 1).
//
// The only cross-thread information used is the fork basis: the first event
// of each thread other than the forking one is based on the loop-begin
// event, without which concurrent threads would have no time origin.
func TimeBased(m *trace.Trace, cal instr.Calibration) (*Approximation, error) {
	// A feed-everything-then-close run of the engine (stream.go) in
	// time-based mode: every event resolves with the execution-timing
	// rule, the fork fences ordering resolution across processors.
	return collect(analyzeBatch(context.Background(), m, cal, ModeTimeBased, false))
}
