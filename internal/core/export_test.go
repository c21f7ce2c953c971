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
