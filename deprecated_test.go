package perturb_test

// This file deliberately exercises the deprecated Analyze* wrappers: they
// must keep returning exactly what the unified Analyze API returns for the
// equivalent options until they are removed.
//
//lint:file-ignore SA1019 compat coverage for the deprecated wrappers

import (
	"testing"

	"perturb"
)

// TestDeprecatedWrappers pins each pre-Analyze entry point against the
// unified API so existing callers can migrate at leisure.
func TestDeprecatedWrappers(t *testing.T) {
	loop, err := perturb.LivermoreLoop(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := perturb.Alliant()
	ovh := perturb.PaperOverheads()
	cal := perturb.ExactCalibration(ovh, cfg)
	measured, err := perturb.Simulate(loop, perturb.FullInstrumentation(ovh, true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := measured.Trace

	same := func(t *testing.T, name string, got, want *perturb.Approximation) {
		t.Helper()
		if got.Duration != want.Duration {
			t.Errorf("%s: duration %d, Analyze says %d", name, got.Duration, want.Duration)
		}
		if got.Trace.Len() != want.Trace.Len() {
			t.Errorf("%s: %d events, Analyze says %d", name, got.Trace.Len(), want.Trace.Len())
		}
	}

	want, err := perturb.Analyze(tr, cal, perturb.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := perturb.AnalyzeEventBased(tr, cal)
	if err != nil {
		t.Fatal(err)
	}
	same(t, "AnalyzeEventBased", got, want)

	want, err = perturb.Analyze(tr, cal, perturb.AnalyzeOptions{Mode: perturb.TimeBased})
	if err != nil {
		t.Fatal(err)
	}
	got, err = perturb.AnalyzeTimeBased(tr, cal)
	if err != nil {
		t.Fatal(err)
	}
	same(t, "AnalyzeTimeBased", got, want)

	lopts := perturb.LiberalOptions{Procs: cfg.Procs, Distance: loop.Distance, Schedule: perturb.Interleaved}
	want, err = perturb.Analyze(tr, cal, perturb.AnalyzeOptions{Mode: perturb.Liberal, Liberal: lopts})
	if err != nil {
		t.Fatal(err)
	}
	got, err = perturb.AnalyzeLiberal(tr, cal, lopts)
	if err != nil {
		t.Fatal(err)
	}
	same(t, "AnalyzeLiberal", got, want)
}
