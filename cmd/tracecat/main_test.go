package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perturb"
)

// writeSample simulates a small loop and writes its trace in both codecs.
func writeSample(t *testing.T) (textPath, binPath string) {
	t.Helper()
	loop := perturb.NewLoop("sample", perturb.DOACROSS, 16).
		Compute("w", perturb.Microsecond).
		CriticalBegin(0).
		Compute("c", perturb.Microsecond/2).
		CriticalEnd(0).
		Loop()
	res, err := perturb.Simulate(loop, perturb.NoInstrumentation(), perturb.Alliant())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	textPath = filepath.Join(dir, "t.trace")
	binPath = filepath.Join(dir, "b.trace")
	f, err := os.Create(textPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Trace.WriteText(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	f, err = os.Create(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Trace.WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return textPath, binPath
}

func TestSummaryBothFormats(t *testing.T) {
	textPath, binPath := writeSample(t)
	for _, path := range []string{textPath, binPath} {
		var buf bytes.Buffer
		if err := run(&buf, options{summary: true, proc: -1}, path); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out := buf.String()
		for _, want := range []string{"events:", "by kind:", "advance", "validate: ok"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s: summary lacks %q:\n%s", path, want, out)
			}
		}
	}
}

func TestValidateFlag(t *testing.T) {
	textPath, _ := writeSample(t)
	var buf bytes.Buffer
	if err := run(&buf, options{validate: true, proc: -1}, textPath); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "ok" {
		t.Errorf("validate output = %q", buf.String())
	}
}

func TestFilterAndConvert(t *testing.T) {
	textPath, _ := writeSample(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "adv.trace")
	var buf bytes.Buffer
	if err := run(&buf, options{kind: "advance", proc: -1, out: out, format: "binary"}, textPath); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := perturb.ReadTraceBinary(f)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 16 {
		t.Errorf("filtered events = %d, want 16 advances", tr.Len())
	}
	for _, e := range tr.Events {
		if e.Kind != perturb.KindAdvance {
			t.Fatalf("unexpected event %v", e)
		}
	}
}

func TestDumpText(t *testing.T) {
	_, binPath := writeSample(t)
	var buf bytes.Buffer
	if err := run(&buf, options{proc: 0}, binPath); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "# perturb-trace v1") {
		t.Errorf("dump is not text format: %q", buf.String()[:40])
	}
	for _, line := range strings.Split(buf.String(), "\n")[1:] {
		if line != "" && !strings.Contains(line, " p0 ") {
			t.Fatalf("non-proc-0 event leaked: %q", line)
		}
	}
}

func TestValidateOptions(t *testing.T) {
	good := options{proc: -1}
	if err := validateOptions(good, []string{"trace.txt"}); err != nil {
		t.Errorf("default options rejected: %v", err)
	}
	cases := []struct {
		name string
		o    options
		args []string
	}{
		{"no file", options{proc: -1}, nil},
		{"two files", options{proc: -1}, []string{"a", "b"}},
		{"binary without -o", options{proc: -1, format: "binary"}, []string{"a"}},
		{"proc below -1", options{proc: -2}, []string{"a"}},
		{"unknown kind", options{proc: -1, kind: "teleport"}, []string{"a"}},
	}
	for _, tc := range cases {
		if err := validateOptions(tc.o, tc.args); err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
	for _, kind := range []string{"compute", "advance", "awaitB", "barrier-arrive", "lock-rel"} {
		if err := validateOptions(options{proc: -1, kind: kind}, []string{"a"}); err != nil {
			t.Errorf("kind %q rejected: %v", kind, err)
		}
	}
}

func TestMissingFile(t *testing.T) {
	if err := run(&bytes.Buffer{}, options{proc: -1}, "/nonexistent"); err == nil {
		t.Error("missing file should fail")
	}
}
