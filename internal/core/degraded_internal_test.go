package core

import (
	"context"
	"errors"
	"testing"

	"perturb/internal/instr"
	"perturb/internal/trace"
)

// cycleTrace builds a cross-processor await cycle: each processor's
// awaitE pairs with an advance the other processor only reaches after its
// own await, so constructive resolution can never complete.
func cycleTrace() *trace.Trace {
	tr := trace.New(2)
	tr.Append(trace.Event{Time: 10, Proc: 0, Stmt: 1, Kind: trace.KindAwaitB, Iter: 1, Var: 0})
	tr.Append(trace.Event{Time: 11, Proc: 1, Stmt: 3, Kind: trace.KindAwaitB, Iter: 0, Var: 0})
	tr.Append(trace.Event{Time: 20, Proc: 0, Stmt: 1, Kind: trace.KindAwaitE, Iter: 1, Var: 0})
	tr.Append(trace.Event{Time: 21, Proc: 1, Stmt: 3, Kind: trace.KindAwaitE, Iter: 0, Var: 0})
	tr.Append(trace.Event{Time: 30, Proc: 0, Stmt: 2, Kind: trace.KindAdvance, Iter: 0, Var: 0})
	tr.Append(trace.Event{Time: 31, Proc: 1, Stmt: 4, Kind: trace.KindAdvance, Iter: 1, Var: 0})
	return tr
}

// TestDegradedStallBreaking: the degraded analysis resolves a
// dependency cycle by force-resolving blocked events instead of failing,
// and tallies the forced events in the confidence summary.
func TestDegradedStallBreaking(t *testing.T) {
	cal := instr.Calibration{Overheads: instr.Uniform(1), SNoWait: 1, SWait: 2}
	tr := cycleTrace()

	if _, err := eventBased(context.Background(), tr, cal, false); !errors.Is(err, ErrUnresolvable) {
		t.Fatalf("exact mode: got %v, want ErrUnresolvable", err)
	}

	a, err := eventBased(context.Background(), tr, cal, true)
	if err != nil {
		t.Fatalf("degraded mode failed on cycle: %v", err)
	}
	forced := 0
	for _, c := range a.Confidence {
		forced += c.Forced
	}
	if forced == 0 {
		t.Fatal("cycle resolved without any forced events")
	}
	if a.Trace.Len() != tr.Len() {
		t.Fatalf("degraded output has %d events, want %d", a.Trace.Len(), tr.Len())
	}
}
