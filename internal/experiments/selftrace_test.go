package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestSelfTraceSmall runs the dogfooded study at reduced size: the soak
// completes, the exported trace is clean, the analysis sees the request
// phases, and the report renders.
func TestSelfTraceSmall(t *testing.T) {
	res, err := SelfTrace(SelfTraceConfig{Requests: 12, Iters: 40, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 12 || res.Failed != 0 {
		t.Fatalf("soak: %d ok, %d failed", res.OK, res.Failed)
	}
	if res.Defects != 0 {
		t.Fatalf("self-trace has %d audit defects", res.Defects)
	}
	if res.Manifest.Dropped != 0 {
		t.Fatalf("recorder dropped %d records", res.Manifest.Dropped)
	}
	if res.Duration <= 0 {
		t.Fatalf("analysis duration = %v", res.Duration)
	}
	phases := map[string]bool{}
	for _, pc := range res.PhaseCounts {
		phases[pc.Name] = pc.Count > 0
	}
	for _, want := range []string{"server.admission", "server.decode", "server.analyze", "server.encode"} {
		if !phases[want] {
			t.Errorf("phase %q missing from the analyzed self-trace (got %v)", want, res.PhaseCounts)
		}
	}
	if len(res.Waiting) != res.Manifest.RequestProcs {
		t.Errorf("waiting rows = %d, want one per request proc (%d)",
			len(res.Waiting), res.Manifest.RequestProcs)
	}
	if res.AvgParallelism <= 0 {
		t.Errorf("average parallelism = %v", res.AvgParallelism)
	}
	if res.OffNS <= 0 || res.OnNS <= 0 {
		t.Errorf("non-positive wall times: off=%d on=%d", res.OffNS, res.OnNS)
	}

	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Self-tracing perturbd", "phases", "parallelism", "budget 3%"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
}

// TestSelfTraceOverheadBudget enforces the obs budget on the recorder:
// attaching it to a soaking perturbd must cost no more than 3% of the
// soak's wall time. Wall-clock assertions are noisy, so the test takes
// the best of several rounds and allows a few attempts before declaring
// the budget blown.
func TestSelfTraceOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock audit skipped in -short mode")
	}
	const (
		attempts = 3
		budget   = 3.0 // percent
	)
	var last *SelfTraceResult
	for a := 0; a < attempts; a++ {
		res, err := SelfTrace(SelfTraceConfig{Requests: 32, Iters: 200, Rounds: 3})
		if err != nil {
			t.Fatal(err)
		}
		last = res
		if res.OverheadPercent() <= budget {
			return
		}
		t.Logf("attempt %d: overhead %.2f%% (off %d ns, on %d ns)",
			a+1, res.OverheadPercent(), res.OffNS, res.OnNS)
	}
	t.Errorf("recorder overhead %.2f%% exceeds the %v%% budget after %d attempts (off %d ns, on %d ns)",
		last.OverheadPercent(), budget, attempts, last.OffNS, last.OnNS)
}
