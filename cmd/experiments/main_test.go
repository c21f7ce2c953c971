package main

import (
	"bytes"
	"strings"
	"testing"

	"perturb/internal/experiments"
	"perturb/internal/timing"
)

func TestRunSelectsExperiments(t *testing.T) {
	env := experiments.ExactEnv()
	cases := map[string]string{
		"fig1":   "Figure 1",
		"table1": "Table 1",
		"table2": "Table 2",
		"table3": "Table 3",
		"fig4":   "Figure 4",
		"fig5":   "Figure 5",
	}
	for which, want := range cases {
		var buf bytes.Buffer
		if err := run(&buf, which, env); err != nil {
			t.Fatalf("%s: %v", which, err)
		}
		if !strings.Contains(buf.String(), want) {
			t.Errorf("%s: output lacks %q", which, want)
		}
	}
}

func TestRunRejectsUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "bogus", experiments.ExactEnv()); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestRunExtensionExperiments(t *testing.T) {
	env := experiments.ExactEnv()
	cases := map[string]string{
		"timing":   "Per-event",
		"vector":   "vector",
		"scaling":  "scaling of LL3",
		"ablation": "Ablation",
	}
	for which, want := range cases {
		var buf bytes.Buffer
		if err := run(&buf, which, env); err != nil {
			t.Fatalf("%s: %v", which, err)
		}
		if !strings.Contains(buf.String(), want) {
			t.Errorf("%s: output lacks %q", which, want)
		}
	}
}

func TestValidateFlags(t *testing.T) {
	if err := validateFlags(1, 8, nil); err != nil {
		t.Errorf("default flags rejected: %v", err)
	}
	cases := []struct {
		name           string
		workers, noise int
		args           []string
	}{
		{"zero workers", 0, 8, nil},
		{"negative workers", -3, 8, nil},
		{"negative noise", 1, -1, nil},
		{"extra args", 1, 8, []string{"stray"}},
	}
	for _, tc := range cases {
		if err := validateFlags(tc.workers, tc.noise, tc.args); err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
}

// TestRunSelfPerturb covers the selfperturb dispatch with a canned audit:
// the audit itself is timed by TestSelfPerturbOverhead.
func TestRunSelfPerturb(t *testing.T) {
	defer func(f func(int, int) (*experiments.SelfPerturbResult, error)) { selfPerturb = f }(selfPerturb)
	var procs, iters int
	selfPerturb = func(p, n int) (*experiments.SelfPerturbResult, error) {
		procs, iters = p, n
		r := timing.Ratio{Median: 1.01, Q1: 1.005, Q3: 1.015}
		return &experiments.SelfPerturbResult{Procs: p, Events: 4 * n, Overhead: timing.Result{Rounds: 7, Wall: r, CPU: r}}, nil
	}
	var buf bytes.Buffer
	if err := run(&buf, "selfperturb", experiments.ExactEnv()); err != nil {
		t.Fatal(err)
	}
	if procs != 8 || iters != 250_000 {
		t.Errorf("audit ran on %d procs, %d iterations; want 8, 250000", procs, iters)
	}
	want := "Self-perturbation audit: event-based analysis of 1000000 events on 8 procs"
	if out := buf.String(); !strings.Contains(out, want) || !strings.Contains(out, "+1.00%") {
		t.Errorf("selfperturb output unexpected:\n%s", out)
	}
}

func TestRunAllExperiments(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "all", experiments.ExactEnv()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 5") {
		t.Error("all: output incomplete")
	}
}
