package core_test

import (
	"testing"

	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/machine"
	"perturb/internal/program"
)

// multiVarLoop carries two independent critical regions on separate
// synchronization variables with different dependence structure pressure:
// a forward recurrence on variable 0 and a second serialized region on
// variable 1.
func multiVarLoop(iters, distance int) *program.Loop {
	b := program.NewBuilder("two regions", 0, program.DOACROSS, iters)
	b.Distance(distance)
	b.Head("setup", 2*us)
	b.Compute("stage A work", 3*us)
	b.CriticalBegin(0)
	b.Compute("recurrence update", us)
	b.CriticalEnd(0)
	b.Compute("stage B work", 2*us)
	b.CriticalBegin(1)
	b.Compute("second shared structure", us/2)
	b.CriticalEnd(1)
	b.Compute("store", us/2)
	b.Tail("teardown", us)
	return b.Loop()
}

// TestMultiVarExactRecovery: event-based analysis remains exact with two
// advance/await regions per iteration and distances above one.
func TestMultiVarExactRecovery(t *testing.T) {
	for _, distance := range []int{1, 2, 3} {
		cfg := machine.Alliant()
		l := multiVarLoop(96, distance)
		actual, err := machine.Run(l, instr.NonePlan(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ovh := instr.Uniform(5 * us)
		measured, err := machine.Run(l, instr.FullPlan(ovh, true), cfg)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := core.EventBased(measured.Trace, exactCalFor(cfg, ovh))
		if err != nil {
			t.Fatalf("distance %d: %v", distance, err)
		}
		if approx.Duration != actual.Duration {
			t.Errorf("distance %d: approx %d != actual %d",
				distance, approx.Duration, actual.Duration)
		}
		for i := range approx.Trace.Events {
			if approx.Trace.Events[i] != actual.Trace.Events[i] {
				t.Fatalf("distance %d: event %d differs: %v vs %v",
					distance, i, approx.Trace.Events[i], actual.Trace.Events[i])
			}
		}
	}
}

// TestDistanceRelaxesChain: larger dependence distances admit more
// parallelism, so the actual execution gets faster while recovery stays
// exact (checked above); here we pin the direction.
func TestDistanceRelaxesChain(t *testing.T) {
	cfg := machine.Alliant()
	var prev int64
	for i, distance := range []int{1, 2, 4} {
		l := multiVarLoop(96, distance)
		actual, err := machine.Run(l, instr.NonePlan(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && int64(actual.Duration) > prev {
			t.Errorf("distance %d slower than smaller distance: %d > %d",
				distance, actual.Duration, prev)
		}
		prev = int64(actual.Duration)
	}
}

// Liberal analysis supports a single critical region and refuses a
// second one with ErrUnsupported (TestLiberalErrorCases). Conservative
// analysis (above) is the supported path for multi-region bodies.
