package experiments

import (
	"bytes"
	"strings"
	"testing"

	"perturb/internal/obs"
	"perturb/internal/timing"
)

// TestSelfPerturbSmall checks the audit machinery on a small trace: the
// measurement runs, the result is well-formed, and the telemetry layer is
// restored to its previous state.
func TestSelfPerturbSmall(t *testing.T) {
	obs.SetEnabled(false)
	res, err := SelfPerturb(4, 500)
	if err != nil {
		t.Fatal(err)
	}
	if obs.Enabled() {
		t.Error("SelfPerturb left the telemetry layer enabled")
	}
	if res.Events < 4*500 {
		t.Errorf("events = %d, want >= %d", res.Events, 4*500)
	}
	if o := res.Overhead; o.Rounds < 1 || o.Wall.Median <= 0 || o.CPU.Median <= 0 {
		t.Errorf("degenerate comparison: %+v", o)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Self-perturbation audit", "telemetry", "overhead", "budget 3%", "cpu", "wall", "rounds"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
}

// TestSelfPerturbOverhead is the dogfooded audit itself: on the
// ~million-event backward-wave trace, enabling the obs layer must cost
// less than 3% of the analysis. The budget bounds the work telemetry
// adds, so it is held to the CPU clock, which does not count the time a
// neighbour's load keeps the process off a CPU; see checkBudget for the
// wall-clock condition.
func TestSelfPerturbOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock audit skipped in -short mode")
	}
	const procs, iters = 8, 250_000 // ~1M events, the benchmark workload
	res, err := SelfPerturb(procs, iters)
	if err != nil {
		t.Fatal(err)
	}
	checkBudget(t, "telemetry", res.Overhead)
}

// checkBudget holds an on/off comparison to the 3% budget: the CPU
// median may not exceed it, and neither may the wall clock's lower
// quartile, so that blocking which costs no CPU still shows once it is
// above the wall clock's noise.
func checkBudget(t *testing.T, what string, res timing.Result) {
	t.Helper()
	pct := func(ratio float64) float64 { return 100 * (ratio - 1) }
	t.Logf("%s overhead: cpu %+.2f%% [%+.2f%%, %+.2f%%], wall %+.2f%% [%+.2f%%, %+.2f%%], %d rounds", what,
		pct(res.CPU.Median), pct(res.CPU.Q1), pct(res.CPU.Q3),
		pct(res.Wall.Median), pct(res.Wall.Q1), pct(res.Wall.Q3), res.Rounds)
	if res.CPU.Median > OverheadBudget {
		t.Errorf("%s overhead %+.2f%% of CPU time (median of %d rounds) exceeds the 3%% budget",
			what, pct(res.CPU.Median), res.Rounds)
	}
	if res.Wall.Q1 > OverheadBudget {
		t.Errorf("%s overhead exceeds the 3%% budget in wall time beyond its noise: lower quartile %+.2f%% over %d rounds",
			what, pct(res.Wall.Q1), res.Rounds)
	}
}
