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
	res, err := SelfTrace(SelfTraceConfig{Requests: 12, Iters: 40})
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
	if o := res.Overhead; o.Rounds < 1 || o.Wall.Median <= 0 || o.CPU.Median <= 0 {
		t.Errorf("degenerate comparison: %+v", o)
	}

	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Self-tracing perturbd", "phases", "parallelism", "budget 3%", "cpu", "wall", "rounds"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
}

// TestSelfTraceOverheadBudget enforces the obs budget on the recorder:
// attaching it to a soaking perturbd must cost no more than 3% of the
// soak, on the CPU clock and beyond the wall clock's noise (see
// checkBudget). The soak is 256 requests: alone on a 2-CPU box the
// wall-clock quartiles of a 32-request soak spanned 16 to 23 points,
// against 11 to 14 at 256 requests.
func TestSelfTraceOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock audit skipped in -short mode")
	}
	res, err := SelfTrace(SelfTraceConfig{Requests: 256, Iters: 200})
	if err != nil {
		t.Fatal(err)
	}
	checkBudget(t, "recorder", res.Overhead)
}
