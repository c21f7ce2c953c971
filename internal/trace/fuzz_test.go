package trace_test

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"perturb/internal/trace"
)

// Fuzzing the codecs. Both targets hold the same contract: arbitrary
// input either decodes or fails with an error — never a panic, hang, or
// allocation proportional to a corrupt header's claims — and any input
// that decodes must re-encode and decode again to the same events
// (decode/encode stability), with the streaming reader agreeing with the
// whole-trace path batch by batch.

// seedGolden adds the checked-in golden encodings with the given
// extension as fuzz seeds.
func seedGolden(f *testing.F, ext string) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*"+ext))
	if err != nil || len(paths) == 0 {
		f.Logf("no golden %s seeds found (%v); fuzzing from inline seeds only", ext, err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
}

// reDecodeStable checks the decode -> encode -> decode cycle and the
// batch-size-1 streaming parity for a successfully decoded trace.
func reDecodeStable(t *testing.T, tr *trace.Trace,
	encode func(*trace.Trace) ([]byte, error),
	newReader func([]byte) (trace.Reader, error)) {
	t.Helper()
	enc, err := encode(tr)
	if err != nil {
		t.Fatalf("re-encoding a decoded trace failed: %v", err)
	}
	r, err := newReader(enc)
	if err != nil {
		t.Fatalf("re-decoding own encoding failed: %v", err)
	}
	if r.Procs() != tr.Procs {
		t.Fatalf("procs drifted across re-encode: %d -> %d", tr.Procs, r.Procs())
	}
	// Drain with batch size 1: the slowest streaming path must agree
	// with whatever the whole-trace decode produced.
	var got []trace.Event
	dst := make([]trace.Event, 1)
	for {
		n, err := r.Read(dst)
		got = append(got, dst[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("streaming re-decode failed: %v", err)
		}
	}
	if len(got) != tr.Len() {
		t.Fatalf("event count drifted across re-encode: %d -> %d", tr.Len(), len(got))
	}
	for i := range got {
		if got[i] != tr.Events[i] {
			t.Fatalf("event %d drifted across re-encode: %v -> %v", i, tr.Events[i], got[i])
		}
	}
}

func FuzzReadText(f *testing.F) {
	seedGolden(f, ".txt")
	f.Add([]byte("# perturb-trace v1 procs=2\n10 p0 s1 compute i-1 v-1\n"))
	f.Add([]byte("# perturb-trace v1 procs=2\n10 p0 s1 explode i0 v0\n"))
	f.Add([]byte("# perturb-trace v1 procs=1\n\n# comment\n-5 p0 s-2 barrier-arrive i0 v0\n"))
	f.Add([]byte("# perturb-trace v1 procs=9999999\n"))
	f.Add([]byte("not a trace\n"))
	f.Add([]byte("# perturb-trace v1 procs=2\n9223372036854775807 p1 s1 advance i1 v1\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.ReadText(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panics and hangs are not
		}
		reDecodeStable(t, tr,
			func(tr *trace.Trace) ([]byte, error) {
				var buf bytes.Buffer
				err := tr.WriteText(&buf)
				return buf.Bytes(), err
			},
			func(enc []byte) (trace.Reader, error) {
				return trace.NewTextReader(bytes.NewReader(enc))
			})
	})
}

// fitsBinary reports whether every event survives the row binary codec's
// int32 field truncation unchanged, i.e. whether cross-codec equality
// with the columnar codec (which keeps full int64 width) must hold.
func fitsBinary(tr *trace.Trace) bool {
	const lo, hi = -1 << 31, 1<<31 - 1
	in32 := func(v int) bool { return v >= lo && v <= hi }
	for _, e := range tr.Events {
		if !in32(e.Stmt) || !in32(e.Proc) || !in32(e.Iter) || !in32(e.Var) {
			return false
		}
	}
	return true
}

func FuzzColumnar(f *testing.F) {
	seedGolden(f, ".col")
	// Well-formed seeds: multi-block and a single partial block.
	{
		tr := trace.New(3)
		for i := 0; i < 20; i++ {
			tr.Append(trace.Event{Time: trace.Time(i * 100), Proc: i % 3, Stmt: i % 5,
				Kind: trace.Kind(i % 8), Iter: i, Var: i % 2})
		}
		for _, size := range []int{7, trace.ColBlockSize, 4} {
			var buf bytes.Buffer
			w, err := trace.NewColumnarWriterSize(&buf, tr.Procs, size)
			if err != nil {
				f.Fatal(err)
			}
			if err := w.Write(tr.Events); err != nil {
				f.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
			// Truncations: mid-header, mid-block, missing terminator.
			f.Add(buf.Bytes()[:10])
			f.Add(buf.Bytes()[:buf.Len()/2])
			f.Add(buf.Bytes()[:buf.Len()-1])
			// A count bomb / payload bomb: max out the block header's
			// count and payload-length fields of a valid encoding.
			bomb := append([]byte(nil), buf.Bytes()...)
			for i := 13; i < 17 && i < len(bomb); i++ {
				bomb[i] = 0xff
			}
			f.Add(bomb)
			if size == 4 {
				// The reserved flags byte of the first block set.
				flagged := append([]byte(nil), buf.Bytes()...)
				flagged[13+30] = 1
				f.Add(flagged)
			}
		}
	}
	f.Add([]byte("PTRCOL1\x00"))
	f.Add([]byte("PTRCOL1\x00\x03\x00\x00\x00"))
	f.Add([]byte("PTRCOL1\x00\x03\x00\x00\x00E"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.ReadColumnar(bytes.NewReader(data))
		if err != nil {
			return
		}
		reDecodeStable(t, tr,
			func(tr *trace.Trace) ([]byte, error) {
				var buf bytes.Buffer
				err := tr.WriteColumnar(&buf)
				return buf.Bytes(), err
			},
			func(enc []byte) (trace.Reader, error) {
				return trace.NewColumnarReader(bytes.NewReader(enc))
			})
		// Cross-codec equivalence: any trace the columnar codec decodes
		// must round-trip through the row binary codec to the same events,
		// as long as its values fit the binary codec's narrower fields.
		if fitsBinary(tr) {
			var buf bytes.Buffer
			if err := tr.WriteBinary(&buf); err != nil {
				t.Fatalf("binary re-encode of columnar-decoded trace failed: %v", err)
			}
			tr2, err := trace.ReadBinary(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("binary re-decode failed: %v", err)
			}
			if tr2.Procs != tr.Procs || tr2.Len() != tr.Len() {
				t.Fatalf("cross-codec shape drifted: procs %d->%d events %d->%d",
					tr.Procs, tr2.Procs, tr.Len(), tr2.Len())
			}
			for i := range tr2.Events {
				if tr2.Events[i] != tr.Events[i] {
					t.Fatalf("cross-codec event %d drifted: %v -> %v", i, tr.Events[i], tr2.Events[i])
				}
			}
		}
	})
}

func FuzzReadBinary(f *testing.F) {
	seedGolden(f, ".bin")
	// A syntactically perfect two-event trace.
	{
		tr := trace.New(2)
		tr.Append(trace.Event{Time: 1, Proc: 0, Stmt: 1, Kind: trace.KindCompute, Iter: 0, Var: -1})
		tr.Append(trace.Event{Time: 2, Proc: 1, Stmt: 2, Kind: trace.KindAdvance, Iter: 1, Var: 0})
		var buf bytes.Buffer
		if err := tr.WriteBinary(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		// The same body truncated mid-record and mid-header.
		f.Add(buf.Bytes()[:buf.Len()-7])
		f.Add(buf.Bytes()[:13])
		// An unknown-length stream of the same events.
		var sbuf bytes.Buffer
		w, err := trace.NewBinaryWriter(&sbuf, tr.Procs)
		if err != nil {
			f.Fatal(err)
		}
		if err := w.Write(tr.Events); err != nil {
			f.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		f.Add(sbuf.Bytes())
	}
	// A count bomb: header claiming 2^29 events over an empty body.
	{
		bomb := append([]byte{}, "PTRACE1\x00"...)
		bomb = append(bomb, 4, 0, 0, 0) // procs
		bomb = append(bomb, 0, 0, 0, 0x20, 0, 0, 0, 0)
		f.Add(bomb)
	}
	f.Add([]byte("PTRACE1\x00"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		reDecodeStable(t, tr,
			func(tr *trace.Trace) ([]byte, error) {
				var buf bytes.Buffer
				err := tr.WriteBinary(&buf)
				return buf.Bytes(), err
			},
			func(enc []byte) (trace.Reader, error) {
				return trace.NewBinaryReader(bytes.NewReader(enc))
			})
	})
}
