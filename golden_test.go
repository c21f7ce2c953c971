package perturb_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"perturb"
)

// The golden conformance suite pins three things at once: the on-disk
// trace encodings (text and binary), their losslessness under conversion,
// and the event-based analysis output on three canonical synchronization
// shapes — a DOACROSS advance/await chain (the paper's Livermore loop 3
// pattern), lock-serialized critical sections, and a pure barrier phase.
// Regenerate the files after a deliberate format or analysis change with:
//
//	go test -run TestGolden -update .

var update = flag.Bool("update", false, "rewrite testdata/golden from the in-code definitions")

const goldenDir = "testdata/golden"

// goldenCal is the fixed calibration the golden analysis outputs assume.
func goldenCal() perturb.Calibration {
	return perturb.Calibration{
		Overheads: perturb.UniformOverheads(100),
		SNoWait:   50,
		SWait:     80,
		AdvanceOp: 30,
		Barrier:   40,
	}
}

// goldenTraces returns the canonical traces, defined in code so the
// files can always be regenerated from first principles.
func goldenTraces() map[string]*perturb.Trace {
	ev := func(t perturb.Time, p, s int, k perturb.Kind, i, v int) perturb.Event {
		return perturb.Event{Time: t, Proc: p, Stmt: s, Kind: k, Iter: i, Var: v}
	}

	// DOACROSS: two processors, interleaved iterations, iteration i
	// awaiting advance(i-1), fork fence at the top, barrier at the end.
	doacross := perturb.NewTrace(2)
	for _, e := range []perturb.Event{
		ev(0, 0, -1, perturb.KindLoopBegin, -1, -1),
		ev(200, 0, 1, perturb.KindCompute, 0, -1),
		ev(900, 1, 1, perturb.KindAwaitB, 0, 0),
		ev(1000, 0, 2, perturb.KindAdvance, 0, 0),
		ev(1100, 0, 1, perturb.KindAwaitB, 1, 0),
		ev(1600, 1, 1, perturb.KindAwaitE, 0, 0),
		ev(2100, 1, 2, perturb.KindCompute, 1, -1),
		ev(2700, 1, 3, perturb.KindAdvance, 1, 0),
		ev(2800, 0, 1, perturb.KindAwaitE, 1, 0),
		ev(3300, 0, 2, perturb.KindCompute, 2, -1),
		ev(3900, 0, 3, perturb.KindAdvance, 2, 0),
		ev(4000, 0, -2, perturb.KindBarrierArrive, 0, 0),
		ev(4100, 1, -2, perturb.KindBarrierArrive, 0, 0),
		ev(4200, 0, -3, perturb.KindBarrierRelease, 0, 0),
		ev(4250, 1, -3, perturb.KindBarrierRelease, 0, 0),
	} {
		doacross.Append(e)
	}

	// Locks: two processors contending for lock variable 7; the second
	// acquisition is serialized behind the first holder's release.
	locks := perturb.NewTrace(2)
	for _, e := range []perturb.Event{
		ev(0, 0, -1, perturb.KindLoopBegin, -1, -1),
		ev(100, 0, 1, perturb.KindCompute, 0, -1),
		ev(150, 1, 1, perturb.KindCompute, 1, -1),
		ev(300, 0, 2, perturb.KindLockReq, 0, 7),
		ev(320, 1, 2, perturb.KindLockReq, 1, 7),
		ev(400, 0, 2, perturb.KindLockAcq, 0, 7),
		ev(600, 0, 3, perturb.KindCompute, 0, -1),
		ev(800, 0, 4, perturb.KindLockRel, 0, 7),
		ev(1000, 1, 2, perturb.KindLockAcq, 1, 7),
		ev(1200, 1, 3, perturb.KindCompute, 1, -1),
		ev(1400, 1, 4, perturb.KindLockRel, 1, 7),
		ev(1500, 0, 5, perturb.KindCompute, 0, -1),
	} {
		locks.Append(e)
	}

	// Barrier: four processors with staggered arrivals; every release is
	// anchored at the latest arrival.
	barrier := perturb.NewTrace(4)
	for _, e := range []perturb.Event{
		ev(0, 0, -1, perturb.KindLoopBegin, -1, -1),
		ev(200, 0, 1, perturb.KindCompute, 0, -1),
		ev(300, 1, 1, perturb.KindCompute, 1, -1),
		ev(500, 2, 1, perturb.KindCompute, 2, -1),
		ev(900, 3, 1, perturb.KindCompute, 3, -1),
		ev(400, 0, -2, perturb.KindBarrierArrive, 0, 0),
		ev(500, 1, -2, perturb.KindBarrierArrive, 0, 0),
		ev(700, 2, -2, perturb.KindBarrierArrive, 0, 0),
		ev(1000, 3, -2, perturb.KindBarrierArrive, 0, 0),
		ev(1100, 0, -3, perturb.KindBarrierRelease, 0, 0),
		ev(1110, 1, -3, perturb.KindBarrierRelease, 0, 0),
		ev(1120, 2, -3, perturb.KindBarrierRelease, 0, 0),
		ev(1130, 3, -3, perturb.KindBarrierRelease, 0, 0),
		ev(1300, 0, 2, perturb.KindCompute, 0, -1),
	} {
		barrier.Append(e)
	}

	return map[string]*perturb.Trace{
		"doacross": doacross,
		"locks":    locks,
		"barrier":  barrier,
	}
}

// renderApprox renders an analysis result deterministically: a stats
// line followed by the approximated trace in the text codec.
func renderApprox(a *perturb.Approximation) []byte {
	var buf bytes.Buffer
	buf.WriteString("# duration=" + strconv.FormatInt(int64(a.Duration), 10) +
		" kept=" + strconv.Itoa(a.WaitsKept) +
		" removed=" + strconv.Itoa(a.WaitsRemoved) +
		" introduced=" + strconv.Itoa(a.WaitsIntroduced) + "\n")
	if err := a.Trace.WriteText(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func encodeText(t *testing.T, tr *perturb.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeBinary(t *testing.T, tr *perturb.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeColumnar(t *testing.T, tr *perturb.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteColumnar(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func goldenPath(name, ext string) string {
	return filepath.Join(goldenDir, name+ext)
}

func readGolden(t *testing.T, name, ext string) []byte {
	t.Helper()
	data, err := os.ReadFile(goldenPath(name, ext))
	if err != nil {
		t.Fatalf("missing golden file (run with -update to generate): %v", err)
	}
	return data
}

// TestGoldenUpdate rewrites the golden files when -update is set.
func TestGoldenUpdate(t *testing.T) {
	if !*update {
		t.Skip("pass -update to regenerate golden files")
	}
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		t.Fatal(err)
	}
	cal := goldenCal()
	for name, tr := range goldenTraces() {
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: invalid golden trace: %v", name, err)
		}
		approx, err := perturb.Analyze(tr, cal, perturb.AnalyzeOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for ext, data := range map[string][]byte{
			".txt":        encodeText(t, tr),
			".bin":        encodeBinary(t, tr),
			".col":        encodeColumnar(t, tr),
			".approx.txt": renderApprox(approx),
		} {
			if err := os.WriteFile(goldenPath(name, ext), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestGoldenEncodings pins all three codecs byte for byte and checks
// every pairwise conversion cycle is lossless.
func TestGoldenEncodings(t *testing.T) {
	for name, tr := range goldenTraces() {
		t.Run(name, func(t *testing.T) {
			wantText := readGolden(t, name, ".txt")
			wantBin := readGolden(t, name, ".bin")
			wantCol := readGolden(t, name, ".col")

			if got := encodeText(t, tr); !bytes.Equal(got, wantText) {
				t.Errorf("text encoding drifted from %s:\n%s\nwant:\n%s", goldenPath(name, ".txt"), got, wantText)
			}
			if got := encodeBinary(t, tr); !bytes.Equal(got, wantBin) {
				t.Errorf("binary encoding drifted from %s", goldenPath(name, ".bin"))
			}
			if got := encodeColumnar(t, tr); !bytes.Equal(got, wantCol) {
				t.Errorf("columnar encoding drifted from %s", goldenPath(name, ".col"))
			}

			fromText, err := perturb.ReadTraceText(bytes.NewReader(wantText))
			if err != nil {
				t.Fatal(err)
			}
			fromBin, err := perturb.ReadTraceBinary(bytes.NewReader(wantBin))
			if err != nil {
				t.Fatal(err)
			}
			fromCol, err := perturb.ReadTraceColumnar(bytes.NewReader(wantCol))
			if err != nil {
				t.Fatal(err)
			}
			assertSameTrace(t, "text vs binary decode", fromText, fromBin)
			assertSameTrace(t, "binary vs columnar decode", fromBin, fromCol)

			// Every pairwise conversion cycle, byte-lossless.
			if got := encodeText(t, fromBin); !bytes.Equal(got, wantText) {
				t.Error("text -> binary -> text round trip is not lossless")
			}
			if got := encodeBinary(t, fromText); !bytes.Equal(got, wantBin) {
				t.Error("binary -> text -> binary round trip is not lossless")
			}
			if got := encodeText(t, fromCol); !bytes.Equal(got, wantText) {
				t.Error("text -> columnar -> text round trip is not lossless")
			}
			if got := encodeColumnar(t, fromBin); !bytes.Equal(got, wantCol) {
				t.Error("columnar -> binary -> columnar round trip is not lossless")
			}
		})
	}
}

// TestGoldenAnalysis pins the event-based analysis output on each shape.
func TestGoldenAnalysis(t *testing.T) {
	cal := goldenCal()
	for name, tr := range goldenTraces() {
		t.Run(name, func(t *testing.T) {
			want := readGolden(t, name, ".approx.txt")

			a, err := perturb.Analyze(tr, cal, perturb.AnalyzeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got := renderApprox(a); !bytes.Equal(got, want) {
				t.Errorf("analysis drifted from %s:\n%s\nwant:\n%s", goldenPath(name, ".approx.txt"), got, want)
			}
		})
	}
}

func assertSameTrace(t *testing.T, label string, a, b *perturb.Trace) {
	t.Helper()
	if a.Procs != b.Procs || a.Len() != b.Len() {
		t.Fatalf("%s: shape mismatch", label)
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("%s: event %d differs: %v vs %v", label, i, a.Events[i], b.Events[i])
		}
	}
}
