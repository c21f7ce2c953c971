package trace_test

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"perturb/internal/testgen"
	"perturb/internal/trace"
)

func sampleTrace() *trace.Trace {
	tr := trace.New(3)
	tr.Append(trace.Event{Time: 0, Proc: 0, Stmt: -1, Kind: trace.KindLoopBegin, Iter: trace.NoIter, Var: trace.NoVar})
	tr.Append(trace.Event{Time: 10, Proc: 1, Stmt: 4, Kind: trace.KindCompute, Iter: 1, Var: trace.NoVar})
	tr.Append(trace.Event{Time: 15, Proc: 1, Stmt: 5, Kind: trace.KindAwaitB, Iter: 0, Var: 2})
	tr.Append(trace.Event{Time: 22, Proc: 1, Stmt: 5, Kind: trace.KindAwaitE, Iter: 0, Var: 2})
	tr.Append(trace.Event{Time: 30, Proc: 2, Stmt: 6, Kind: trace.KindAdvance, Iter: 2, Var: 2})
	tr.Append(trace.Event{Time: 31, Proc: 0, Stmt: -2, Kind: trace.KindBarrierArrive, Iter: 0, Var: 0})
	return tr
}

func TestTextRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualTraces(t, tr, got)
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualTraces(t, tr, got)
}

func assertEqualTraces(t *testing.T, want, got *trace.Trace) {
	t.Helper()
	if got.Procs != want.Procs {
		t.Fatalf("procs = %d, want %d", got.Procs, want.Procs)
	}
	if got.Len() != want.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), want.Len())
	}
	for i := range want.Events {
		if got.Events[i] != want.Events[i] {
			t.Fatalf("event %d = %v, want %v", i, got.Events[i], want.Events[i])
		}
	}
}

// TestCodecRoundTripProperty checks both codecs over random traces,
// including negative times, negative statement ids, and every kind.
func TestCodecRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r.Seed(seed)
		tr := testgen.Trace(r)
		var tb, bb bytes.Buffer
		if err := tr.WriteText(&tb); err != nil {
			return false
		}
		if err := tr.WriteBinary(&bb); err != nil {
			return false
		}
		fromText, err := trace.ReadText(&tb)
		if err != nil {
			return false
		}
		fromBin, err := trace.ReadBinary(&bb)
		if err != nil {
			return false
		}
		if fromText.Procs != tr.Procs || fromBin.Procs != tr.Procs ||
			fromText.Len() != tr.Len() || fromBin.Len() != tr.Len() {
			return false
		}
		for i := range tr.Events {
			if fromText.Events[i] != tr.Events[i] || fromBin.Events[i] != tr.Events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"bad header", "not a trace\n"},
		{"header without procs", "# perturb-trace v1 bogus\n"},
		{"malformed event", "# perturb-trace v1 procs=2\ngarbage line\n"},
		{"unknown kind", "# perturb-trace v1 procs=2\n10 p0 s1 explode i0 v0\n"},
		{"short event", "# perturb-trace v1 procs=2\n10 p0\n"},
	}
	for _, c := range cases {
		if _, err := trace.ReadText(strings.NewReader(c.input)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestReadTextSkipsCommentsAndBlanks(t *testing.T) {
	input := "# perturb-trace v1 procs=1\n\n# a comment\n5 p0 s1 compute i-1 v-1\n"
	tr, err := trace.ReadText(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 || tr.Events[0].Time != 5 {
		t.Fatalf("parsed = %v", tr.Events)
	}
}

func TestReadBinaryErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTrace().WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Truncations at every boundary must error, not panic.
	for _, n := range []int{0, 4, 8, 12, 20, len(full) - 10, len(full) - 1} {
		if n < 0 || n >= len(full) {
			continue
		}
		if _, err := trace.ReadBinary(bytes.NewReader(full[:n])); err == nil {
			t.Errorf("truncation at %d bytes: expected error", n)
		}
	}

	// Corrupted magic.
	bad := append([]byte{}, full...)
	bad[0] = 'X'
	if _, err := trace.ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic: expected error")
	}

	// Implausible count (but not the all-ones streaming sentinel).
	bad = append([]byte{}, full...)
	for i := 12; i < 20; i++ {
		bad[i] = 0xFF
	}
	bad[19] = 0x7F
	if _, err := trace.ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("implausible count: expected error")
	}
}

// TestBinaryStreamSentinel: a header with the all-ones count streams
// events until EOF; a record truncated mid-way still errors.
func TestBinaryStreamSentinel(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	w, err := trace.NewBinaryWriter(&buf, tr.Procs)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(tr.Events); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertEqualTraces(t, tr, got)

	truncated := buf.Bytes()[:buf.Len()-7]
	if _, err := trace.ReadBinary(bytes.NewReader(truncated)); err == nil {
		t.Error("truncated streamed record: expected error")
	}
}

// TestWriteBinarySeq: the sequence encoder writes WriteBinary's bytes
// from any sequence of a trace's events, on every golden trace (and the
// checked-in binary goldens byte for byte) and on testgen.Corpus, and it
// refuses a header count the sequence does not yield.
func TestWriteBinarySeq(t *testing.T) {
	golden := filepath.Join("..", "..", "testdata", "golden")
	corpus, err := testgen.Corpus(golden)
	if err != nil {
		t.Fatal(err)
	}
	bins, err := filepath.Glob(filepath.Join(golden, "*.bin"))
	if err != nil || len(bins) == 0 {
		t.Fatalf("no binary goldens (%v)", err)
	}
	wantBytes := map[string][]byte{} // golden name -> its checked-in encoding
	for _, path := range bins {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes[strings.TrimSuffix(filepath.Base(path), ".bin")] = b
	}
	pinned := 0
	for _, c := range corpus {
		tr := c.Trace
		// A sequence that is not the trace's own slice: a copy, yielded
		// one event at a time.
		events := func(yield func(trace.Event) bool) {
			for _, e := range tr.Clone().Events {
				if !yield(e) {
					return
				}
			}
		}
		var want, got bytes.Buffer
		if err := tr.WriteBinary(&want); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteBinarySeq(&got, tr.Procs, tr.Len(), events); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: the sequence encoder's bytes differ from WriteBinary's", c.Name)
		}
		if b, ok := wantBytes[strings.TrimSuffix(c.Name, ".txt")]; ok {
			pinned++
			if !bytes.Equal(got.Bytes(), b) {
				t.Errorf("%s: the sequence encoder's bytes differ from the binary golden", c.Name)
			}
		}
		for _, n := range []int{tr.Len() - 1, tr.Len() + 1} {
			if err := trace.WriteBinarySeq(io.Discard, tr.Procs, n, events); err == nil {
				t.Fatalf("%s: a header count of %d for %d events was accepted", c.Name, n, tr.Len())
			}
		}
	}
	if pinned != len(bins) {
		t.Errorf("compared %d binary goldens, want all %d", pinned, len(bins))
	}
}
