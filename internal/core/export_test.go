package core

import (
	"context"

	"perturb/internal/instr"
	"perturb/internal/trace"
)

// DegradedEventBased exposes the degraded analysis without the sanitizer
// in front of it, so the oracle tests can reach stall-breaking, which
// repaired traces rarely need.
func DegradedEventBased(m *trace.Trace, cal instr.Calibration) (*Approximation, error) {
	return eventBased(context.Background(), m, cal, true)
}

// LiberalReference is the re-simulation the liberal analysis ran before
// it fed the engine, kept as a test oracle (liberal_reference_test.go).
var LiberalReference = liberalReference

// LiberalFed is LiberalEventBased that also returns the trace it fed the
// engine, whose processor opts.Procs carries the warm-up advances.
func LiberalFed(m *trace.Trace, cal instr.Calibration, opts LiberalOptions) (*Approximation, *trace.Trace, error) {
	a, g, err := liberal(context.Background(), m, cal, opts)
	if err != nil {
		return nil, nil, err
	}
	fed := &trace.Trace{Procs: opts.Procs + 1}
	for _, chunk := range g.log.ev {
		fed.Events = append(fed.Events, chunk...)
	}
	return a, fed, nil
}
