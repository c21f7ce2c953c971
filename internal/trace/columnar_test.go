package trace_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"

	"perturb/internal/trace"
)

// colRoundTrip encodes in blocks of blockSize events and decodes whole,
// failing on any drift.
func colRoundTrip(t *testing.T, tr *trace.Trace, blockSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewColumnarWriterSize(&buf, tr.Procs, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(tr.Events); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadColumnar(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Procs != tr.Procs {
		t.Fatalf("procs drifted: %d -> %d", tr.Procs, got.Procs)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("event count drifted: %d -> %d", tr.Len(), got.Len())
	}
	for i := range got.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d drifted: %v -> %v", i, tr.Events[i], got.Events[i])
		}
	}
	return buf.Bytes()
}

// randColTrace builds a trace whose columns exercise every encoding:
// constant stretches, monotone deltas, random jumps, negatives, and
// values outside int32 (which the row binary codec would truncate).
func randColTrace(r *rand.Rand, n int) *trace.Trace {
	tr := trace.New(8)
	clock := trace.Time(0)
	for i := 0; i < n; i++ {
		switch r.Intn(4) {
		case 0:
			clock += trace.Time(r.Intn(5))
		case 1:
			clock += trace.Time(r.Int63n(1 << 40))
		}
		e := trace.Event{
			Time: clock,
			Stmt: r.Intn(32) - 2,
			Proc: r.Intn(8),
			Kind: trace.Kind(r.Intn(11)),
			Iter: i,
			Var:  r.Intn(4) - 1,
		}
		if r.Intn(50) == 0 {
			e.Stmt = int(r.Int63()) - math.MaxInt32
			e.Iter = -e.Stmt
		}
		tr.Append(e)
	}
	return tr
}

func TestColumnarRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cases := map[string]*trace.Trace{
		"empty":      trace.New(3),
		"single":     {Procs: 1, Events: []trace.Event{{Time: 42, Stmt: 1, Proc: 0, Kind: trace.KindCompute, Iter: 0, Var: trace.NoVar}}},
		"random":     randColTrace(r, 10_000),
		"tinyBlocks": randColTrace(r, 100),
		"extremes": {Procs: 2, Events: []trace.Event{
			{Time: math.MinInt64, Stmt: math.MinInt64 + 1, Proc: 0, Kind: 0, Iter: math.MaxInt64, Var: math.MinInt64},
			{Time: math.MaxInt64, Stmt: math.MaxInt64, Proc: 1, Kind: 10, Iter: math.MinInt64, Var: math.MaxInt64},
		}},
	}
	for name, tr := range cases {
		t.Run(name, func(t *testing.T) {
			colRoundTrip(t, tr, trace.ColBlockSize)
			if name == "tinyBlocks" {
				colRoundTrip(t, tr, 7)
				colRoundTrip(t, tr, 1)
			}
		})
	}
}

func TestColumnarStreamingParity(t *testing.T) {
	tr := randColTrace(rand.New(rand.NewSource(11)), 9_000)
	var buf bytes.Buffer
	w, err := trace.NewColumnarWriterSize(&buf, tr.Procs, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Ragged writes must land in the same blocks as one big write.
	for i := 0; i < tr.Len(); {
		n := 1 + (i*7)%113
		if i+n > tr.Len() {
			n = tr.Len() - i
		}
		if err := w.Write(tr.Events[i : i+n]); err != nil {
			t.Fatal(err)
		}
		i += n
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var whole bytes.Buffer
	ww, err := trace.NewColumnarWriterSize(&whole, tr.Procs, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := ww.Write(tr.Events); err != nil {
		t.Fatal(err)
	}
	if err := ww.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), whole.Bytes()) {
		t.Fatal("ragged writes produced different bytes than one whole write")
	}

	// Batch-size-1 streaming decode must agree with the whole decode.
	r, err := trace.NewColumnarReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]trace.Event, 1)
	var got []trace.Event
	for {
		n, err := r.Read(dst)
		got = append(got, dst[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != tr.Len() {
		t.Fatalf("streamed %d events, want %d", len(got), tr.Len())
	}
	for i := range got {
		if got[i] != tr.Events[i] {
			t.Fatalf("event %d drifted: %v -> %v", i, tr.Events[i], got[i])
		}
	}
}

func TestColumnarAutoDetect(t *testing.T) {
	tr := randColTrace(rand.New(rand.NewSource(3)), 500)
	var buf bytes.Buffer
	if err := tr.WriteColumnar(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.(*trace.ColumnarReader); !ok {
		t.Fatalf("NewReader returned %T, want *trace.ColumnarReader", r)
	}
	got, err := trace.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("auto-detected decode lost events: %d != %d", got.Len(), tr.Len())
	}
}

func TestColumnarBlockFilter(t *testing.T) {
	// Events laid out so blocks have disjoint time ranges, procs and kinds.
	tr := trace.New(4)
	for b := 0; b < 8; b++ {
		for i := 0; i < 16; i++ {
			k := trace.KindCompute
			if b >= 6 {
				k = trace.KindBarrierArrive
			}
			tr.Append(trace.Event{
				Time: trace.Time(b*1000 + i),
				Stmt: 1,
				Proc: b % 4,
				Kind: k,
				Iter: i,
				Var:  0,
			})
		}
	}
	var buf bytes.Buffer
	w, err := trace.NewColumnarWriterSize(&buf, tr.Procs, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(tr.Events); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()

	cases := []struct {
		name       string
		f          trace.BlockFilter
		wantEvents int
		wantRead   int64
		wantSkip   int64
	}{
		{"all", trace.BlockFilter{}, 128, 8, 0},
		{"window", trace.BlockFilter{HasWindow: true, From: 2000, To: 3010}, 32, 2, 6},
		{"proc", trace.BlockFilter{Procs: []int{1}, HasWindow: true, From: 0, To: 1 << 40}, 32, 2, 6},
		{"kind", trace.BlockFilter{Kinds: []trace.Kind{trace.KindBarrierArrive}}, 32, 2, 6},
		{"nothing", trace.BlockFilter{HasWindow: true, From: 1 << 50, To: 1 << 51}, 0, 0, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := trace.NewColumnarFilterReader(bytes.NewReader(enc), tc.f)
			if err != nil {
				t.Fatal(err)
			}
			got, err := trace.ReadAll(r)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != tc.wantEvents {
				t.Fatalf("decoded %d events, want %d", got.Len(), tc.wantEvents)
			}
			read, skip := r.Blocks()
			if read != tc.wantRead || skip != tc.wantSkip {
				t.Fatalf("blocks read/skipped = %d/%d, want %d/%d", read, skip, tc.wantRead, tc.wantSkip)
			}
			// Every surviving event is genuine: decoded blocks are
			// supersets, so check the filter never dropped a matching
			// event vs a full decode + row filter.
			full, err := trace.ReadColumnar(bytes.NewReader(enc))
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for _, e := range full.Events {
				if matchesFilter(tc.f, e) {
					want++
				}
			}
			kept := 0
			for _, e := range got.Events {
				if matchesFilter(tc.f, e) {
					kept++
				}
			}
			if kept != want {
				t.Fatalf("filtered decode kept %d matching events, full decode has %d", kept, want)
			}
		})
	}
}

func matchesFilter(f trace.BlockFilter, e trace.Event) bool {
	if f.HasWindow && (e.Time < f.From || e.Time > f.To) {
		return false
	}
	if f.Procs != nil {
		ok := false
		for _, p := range f.Procs {
			if e.Proc == p {
				ok = true
			}
		}
		if !ok {
			return false
		}
	}
	if f.Kinds != nil {
		ok := false
		for _, k := range f.Kinds {
			if e.Kind == k {
				ok = true
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func TestColumnarCorruptInputs(t *testing.T) {
	tr := randColTrace(rand.New(rand.NewSource(5)), 300)
	var buf bytes.Buffer
	if err := tr.WriteColumnar(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	cases := map[string][]byte{
		"empty":          {},
		"badMagic":       []byte("PTRCOLX\x00AAAA"),
		"headerOnly":     valid[:12],
		"truncatedBlock": valid[:len(valid)/2],
		"noEndMarker":    valid[:len(valid)-1],
		"badMarker": func() []byte {
			c := append([]byte{}, valid...)
			c[12] = 'X'
			return c
		}(),
		"countBomb": func() []byte {
			c := append([]byte{}, valid[:12]...)
			c = append(c, 'B')
			hdr := make([]byte, 35)
			hdr[0], hdr[1], hdr[2], hdr[3] = 0xff, 0xff, 0xff, 0x7f // count
			return append(c, hdr...)
		}(),
		"payloadBomb": func() []byte {
			c := append([]byte{}, valid[:12]...)
			c = append(c, 'B')
			hdr := make([]byte, 35)
			hdr[0] = 1
			hdr[31+0], hdr[32], hdr[33], hdr[34] = 0, 0xff, 0xff, 0x7f // payloadLen
			return append(c, hdr...)
		}(),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := trace.ReadColumnar(bytes.NewReader(data)); err == nil {
				t.Fatal("corrupt input decoded without error")
			}
		})
	}
}

func TestColumnarWriteAfterFlush(t *testing.T) {
	var buf bytes.Buffer
	w, err := trace.NewColumnarWriter(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write([]trace.Event{{}}); err == nil {
		t.Fatal("Write after Flush succeeded")
	}
	// Double Flush stays idempotent and the empty stream decodes empty.
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadColumnar(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.Procs != 1 {
		t.Fatalf("empty stream decoded to %d events / %d procs", got.Len(), got.Procs)
	}
}

// TestColumnarRefusesBlockFlags: the block header's flags byte is
// reserved and written 0. A block that sets it is refused with
// ErrMalformedTrace by the streaming Read, after the blocks before it,
// by the whole-trace read, and by a filtered read that would skip it.
func TestColumnarRefusesBlockFlags(t *testing.T) {
	tr := randColTrace(rand.New(rand.NewSource(9)), 24)
	var buf bytes.Buffer
	w, err := trace.NewColumnarWriterSize(&buf, tr.Procs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(tr.Events); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// The second block's flags byte: the stream header, the first block,
	// then the marker and 30 bytes of the second block's header.
	first := 12 + 1 + 35 + int(binary.LittleEndian.Uint32(buf.Bytes()[12+1+31:]))
	for _, flags := range []byte{1, 0x80} {
		data := bytes.Clone(buf.Bytes())
		data[first+1+30] = flags

		r, err := trace.NewColumnarReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]trace.Event, 5)
		var got []trace.Event
		for err == nil {
			var n int
			n, err = r.Read(dst)
			got = append(got, dst[:n]...)
		}
		if !errors.Is(err, trace.ErrMalformedTrace) || len(got) != 8 {
			t.Errorf("flags 0x%02x: streaming read gave %d events and %v, want the first block's 8 and ErrMalformedTrace", flags, len(got), err)
		}
		if _, err := trace.ReadColumnar(bytes.NewReader(data)); !errors.Is(err, trace.ErrMalformedTrace) {
			t.Errorf("flags 0x%02x: whole-trace read gave %v, want ErrMalformedTrace", flags, err)
		}
		fr, err := trace.NewColumnarFilterReader(bytes.NewReader(data), trace.BlockFilter{HasWindow: true, From: -2, To: -1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := trace.ReadAll(fr); !errors.Is(err, trace.ErrMalformedTrace) {
			t.Errorf("flags 0x%02x: filtered read gave %v, want ErrMalformedTrace", flags, err)
		}
	}
}
