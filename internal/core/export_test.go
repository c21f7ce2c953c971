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
	return collect(eventBased(context.Background(), m, cal, true))
}

// BatchTimes runs the batch engine over m as Analyze does (degraded: as
// its repair path does once the sanitizer has run) and returns each
// event's approximated time in input order: the engine's log, which holds
// a batch trace as one chunk.
func BatchTimes(m *trace.Trace, cal instr.Calibration, mode Mode, degraded bool) ([]trace.Time, error) {
	g, err := batchEngine(m, cal, mode, degraded)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if err := g.feed(ctx, m.Events); err != nil {
		return nil, err
	}
	if _, err := g.close(ctx); err != nil {
		return nil, err
	}
	return g.log.ta[0], nil
}

// StreamTimes returns the approximated time of each event a session
// closed by CloseUncollected analyzed, in arrival order, from its
// engine's log; nil for a low-memory session, which keeps none, and once
// Close has collected the trace and let the log go.
func StreamTimes(s *Stream) []trace.Time {
	var out []trace.Time
	for _, ta := range s.g.log.ta {
		out = append(out, ta...)
	}
	return out
}

// LiberalReference is the re-simulation the liberal analysis ran before
// it fed the engine, kept as a test oracle (liberal_reference_test.go).
var LiberalReference = liberalReference

// LiberalFed is LiberalEventBased that also returns the trace it fed the
// engine, whose processor opts.Procs carries the warm-up advances.
func LiberalFed(m *trace.Trace, cal instr.Calibration, opts LiberalOptions) (*Approximation, *trace.Trace, error) {
	a, g, err := liberal(context.Background(), m, cal, opts)
	if a, err = collect(a, err); err != nil {
		return nil, nil, err
	}
	fed := &trace.Trace{Procs: opts.Procs + 1}
	for _, chunk := range g.log.ev {
		fed.Events = append(fed.Events, chunk...)
	}
	return a, fed, nil
}
