package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"perturb"
)

var update = flag.Bool("update", false, "rewrite testdata/batch_wave.json from a fresh batch-wave op")

// TestBatchWaveExpected runs one batch-wave op and compares it with the
// committed expected values; -update rewrites them.
func TestBatchWaveExpected(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the million-event analysis")
	}
	data, _, err := waveInput()
	if err != nil {
		t.Fatal(err)
	}
	cal := perturb.ExactCalibration(perturb.PaperOverheads(), perturb.Alliant())
	out, err := waveOp(context.Background(), data, cal, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := out.expected(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/batch_wave.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var want waveExpected
	if err := json.Unmarshal(waveExpectedJSON, &want); err != nil {
		t.Fatal(err)
	}
	if err := out.check(want, nil, 0); err != nil {
		t.Fatal(err)
	}
}
