package trace_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"
	"testing/iotest"
	"time"

	"perturb/internal/testgen"
	"perturb/internal/trace"
)

// readInBatches drains a streaming reader with the given batch size,
// exercising batch-boundary handling and buffer reuse.
func readInBatches(t *testing.T, r trace.Reader, batch int) *trace.Trace {
	t.Helper()
	out := trace.New(r.Procs())
	dst := make([]trace.Event, batch)
	for {
		n, err := r.Read(dst)
		out.Events = append(out.Events, dst[:n]...)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("streaming read: %v", err)
		}
	}
}

// TestStreamingMatchesWholeTrace: for both codecs and a range of batch
// sizes, the streaming reader yields exactly the events of the
// whole-trace decoder.
func TestStreamingMatchesWholeTrace(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		tr := testgen.Trace(r)
		var text, bin bytes.Buffer
		if err := tr.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteBinary(&bin); err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{1, 2, 7, 4096} {
			tx, err := trace.NewTextReader(bytes.NewReader(text.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			assertEqualTraces(t, tr, readInBatches(t, tx, batch))

			bx, err := trace.NewBinaryReader(bytes.NewReader(bin.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			assertEqualTraces(t, tr, readInBatches(t, bx, batch))
		}
	}
}

// TestStreamingWritersRoundTrip: events written batch by batch through
// the streaming writers decode back identically, for both codecs, and
// the text output is byte-identical to Trace.WriteText.
func TestStreamingWritersRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	tr := testgen.Trace(r)

	var text, whole bytes.Buffer
	tw, err := trace.NewTextWriter(&text, tr.Procs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(tr.Events); i += 3 {
		end := i + 3
		if end > len(tr.Events) {
			end = len(tr.Events)
		}
		if err := tw.Write(tr.Events[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteText(&whole); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(text.Bytes(), whole.Bytes()) {
		t.Error("streamed text differs from Trace.WriteText output")
	}

	var bin bytes.Buffer
	bw, err := trace.NewBinaryWriter(&bin, tr.Procs)
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.Write(tr.Events); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadBinary(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertEqualTraces(t, tr, got)
}

// TestNewReaderAutoDetect: NewReader picks the right codec from the
// stream's first bytes.
func TestNewReaderAutoDetect(t *testing.T) {
	tr := sampleTrace()
	var text, bin bytes.Buffer
	if err := tr.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{text.Bytes(), bin.Bytes()} {
		r, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		got, err := trace.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		assertEqualTraces(t, tr, got)
	}
}

// TestBinaryCountBombBounded: a header claiming a huge (but allowed)
// event count over a tiny body must fail with an error, without
// attempting to pre-allocate storage for the claimed count.
func TestBinaryCountBombBounded(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("PTRACE1\x00")
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], 4)
	binary.LittleEndian.PutUint64(hdr[4:], 1<<29) // plausible per the cap, absurd for the body
	buf.Write(hdr[:])
	buf.WriteString("a few stray bytes")

	done := make(chan error, 1)
	go func() {
		_, err := trace.ReadBinary(bytes.NewReader(buf.Bytes()))
		done <- err
	}()
	if err := <-done; err == nil {
		t.Fatal("count bomb: expected error")
	}
}

// TestTextReaderParseErrorsAreSticky: after a malformed line the reader
// keeps returning the same error.
func TestTextReaderParseErrorsAreSticky(t *testing.T) {
	input := "# perturb-trace v1 procs=1\n5 p0 s1 compute i-1 v-1\ngarbage\n6 p0 s1 compute i-1 v-1\n"
	r, err := trace.NewTextReader(bytes.NewReader([]byte(input)))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]trace.Event, 8)
	n, err := r.Read(dst)
	if n != 1 || err == nil {
		t.Fatalf("Read = %d, %v; want 1 event and a parse error", n, err)
	}
	first := err
	if n2, err2 := r.Read(dst); n2 != 0 || err2 != first {
		t.Fatalf("second Read = %d, %v; want 0, sticky %v", n2, err2, first)
	}
}

// codecInput is one trace encoding with the byte offset at which its
// first k events are complete, and where the record (or columnar block)
// after them ends.
type codecInput struct {
	name      string
	data      []byte
	k         int // events complete at cut
	cut, next int
	nextK     int // events the record or block ending at next adds
}

// promptTrace is an n-event trace with every field varying.
func promptTrace(n int) *trace.Trace {
	tr := trace.New(3)
	for i := 0; i < n; i++ {
		tr.Append(trace.Event{Time: trace.Time(10 * i), Proc: i % 3, Stmt: i % 7, Kind: trace.Kind(i % 8), Iter: i, Var: i % 4})
	}
	return tr
}

// codecInputs encodes tr in every codec and framing a Reader decodes:
// text, binary with a counted and a streaming header, and columnar in
// small blocks. Each input is cut after k events.
func codecInputs(t *testing.T, tr *trace.Trace, k int) []codecInput {
	t.Helper()
	var text, counted, streamed, col bytes.Buffer
	if err := tr.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteBinary(&counted); err != nil {
		t.Fatal(err)
	}
	bw, err := trace.NewBinaryWriter(&streamed, tr.Procs)
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.Write(tr.Events); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	const blockSize = 8
	cw, err := trace.NewColumnarWriterSize(&col, tr.Procs, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Write(tr.Events); err != nil {
		t.Fatal(err)
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}

	lines := bytes.SplitAfter(text.Bytes(), []byte("\n"))
	lineEnd := func(events int) int { // offset after the header and events lines
		return len(bytes.Join(lines[:1+events], nil))
	}
	in := []codecInput{{name: "text", data: text.Bytes(), k: k, cut: lineEnd(k), next: lineEnd(k + 1), nextK: 1}}
	for _, b := range []struct {
		name string
		data []byte
	}{{"binary-counted", counted.Bytes()}, {"binary-stream", streamed.Bytes()}} {
		const header, rec = 20, 25
		in = append(in, codecInput{name: b.name, data: b.data, k: k, cut: header + rec*k, next: header + rec*(k+1), nextK: 1})
	}
	// Columnar: cut after whole blocks, found by walking the block headers.
	blockEnd := func(blocks int) int {
		off := 12 // magic and procs
		for ; blocks > 0; blocks-- {
			off += 1 + 35 + int(binary.LittleEndian.Uint32(col.Bytes()[off+32:]))
		}
		return off
	}
	blocks := k / blockSize
	in = append(in, codecInput{name: "columnar", data: col.Bytes(), k: blocks * blockSize,
		cut: blockEnd(blocks), next: blockEnd(blocks + 1), nextK: blockSize})
	return in
}

type readResult struct {
	n   int
	err error
}

// readAsync runs r.Read in a goroutine, so a test can bound its wait
// and fail rather than hang.
func readAsync(r trace.Reader, dst []trace.Event) <-chan readResult {
	done := make(chan readResult, 1)
	go func() {
		n, err := r.Read(dst)
		done <- readResult{n, err}
	}()
	return done
}

// TestReadReturnsWhatHasArrived pins the Reader contract on a source
// that stays open: with k < len(dst) events' bytes written, Read hands
// over those k events instead of waiting for dst to fill, and a record
// half written is not returned until its last byte arrives.
func TestReadReturnsWhatHasArrived(t *testing.T) {
	tr := promptTrace(120)
	for _, in := range codecInputs(t, tr, 50) {
		t.Run(in.name, func(t *testing.T) {
			pr, pw := io.Pipe()
			defer pr.Close() // unblocks a pending write if the test fails early
			write := func(b []byte) {
				go pw.Write(b)
			}
			write(in.data[:in.cut])
			opened := make(chan trace.Reader, 1)
			go func() {
				r, err := trace.NewReader(pr)
				if err != nil {
					t.Errorf("NewReader: %v", err)
					r = nil
				}
				opened <- r
			}()
			var r trace.Reader
			select {
			case r = <-opened:
			case <-time.After(5 * time.Second):
				t.Fatal("header not decoded within 5s")
			}
			if r == nil {
				return
			}
			dst := make([]trace.Event, 4096)
			var got []trace.Event
			for len(got) < in.k {
				select {
				case res := <-readAsync(r, dst):
					if res.err != nil {
						t.Fatalf("Read: %v", res.err)
					}
					got = append(got, dst[:res.n]...)
				case <-time.After(5 * time.Second):
					t.Fatalf("Read blocked with %d of %d arrived events handed over", len(got), in.k)
				}
			}
			if len(got) != in.k || !slices.Equal(got, tr.Events[:in.k]) {
				t.Fatalf("got %d events, want the first %d", len(got), in.k)
			}

			write(in.data[in.cut : in.next-1])
			done := readAsync(r, dst)
			select {
			case res := <-done:
				t.Fatalf("Read returned %d events, %v before the record's last byte arrived", res.n, res.err)
			case <-time.After(50 * time.Millisecond):
			}
			write(in.data[in.next-1 : in.next])
			select {
			case res := <-done:
				if res.err != nil || res.n != in.nextK || !slices.Equal(dst[:res.n], tr.Events[in.k:in.k+in.nextK]) {
					t.Fatalf("Read after the last byte = %d, %v; want the %d next events", res.n, res.err, in.nextK)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Read still blocked after the record completed")
			}
		})
	}
}

// decodeAll drains every event a Reader yields from data and the error
// that ends it (nil for a clean end), the constructor's error included.
func decodeAll(src io.Reader) ([]trace.Event, error) {
	r, err := trace.NewReader(src)
	if err != nil {
		return nil, err
	}
	var out []trace.Event
	dst := make([]trace.Event, 4096)
	for {
		n, err := r.Read(dst)
		out = append(out, dst[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

// TestBinaryEndOfInput pins the binary reader's end-of-input errors: a
// counted trace that ends early at a record boundary, and a record cut
// short, are errors naming the event; a streaming trace may end at any
// record boundary.
func TestBinaryEndOfInput(t *testing.T) {
	tr := promptTrace(20)
	var counted, streamed []byte
	for _, in := range codecInputs(t, tr, 10) {
		switch in.name {
		case "binary-counted":
			counted = in.data
		case "binary-stream":
			streamed = in.data
		}
	}
	const atRecord, midRecord = 20 + 25*7, 20 + 25*7 + 3
	for _, c := range []struct {
		name string
		data []byte
		want string // "" for a clean end after 7 events
		is   error
	}{
		{"counted at a record", counted[:atRecord], "trace: event 7: EOF", io.EOF},
		{"counted mid-record", counted[:midRecord], "trace: event 7: unexpected EOF", io.ErrUnexpectedEOF},
		{"stream at a record", streamed[:atRecord], "", nil},
		{"stream mid-record", streamed[:midRecord], "trace: event 7: unexpected EOF", io.ErrUnexpectedEOF},
	} {
		ev, err := decodeAll(bytes.NewReader(c.data))
		if !slices.Equal(ev, tr.Events[:7]) {
			t.Errorf("%s: %d events, want 7", c.name, len(ev))
		}
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: error %v, want a clean end", c.name, err)
		case c.want != "" && (err == nil || err.Error() != c.want || !errors.Is(err, c.is)):
			t.Errorf("%s: error %v, want %q wrapping %v", c.name, err, c.want, c.is)
		}
	}
}

// TestReadChunkingInvariance: whatever sizes the source's reads come in,
// every codec decodes valid, truncated and malformed inputs to the same
// events and the same error as one read of the whole buffer.
func TestReadChunkingInvariance(t *testing.T) {
	tr := promptTrace(200)
	encodings := codecInputs(t, tr, 100)
	var text []byte
	for _, in := range encodings {
		if in.name == "text" {
			text = in.data
		}
	}
	encodings = append(encodings,
		codecInput{name: "text-crlf", data: bytes.ReplaceAll(text, []byte("\n"), []byte("\r\n"))},
		codecInput{name: "text-no-final-newline", data: bytes.TrimSuffix(text, []byte("\n"))},
		codecInput{name: "text-comments", data: bytes.Replace(text, []byte("\n"), []byte("\n# note\n\n  \n"), 40)},
		codecInput{name: "text-long-line", data: bytes.Replace(text, []byte("\n"), append(append([]byte("\n#"), bytes.Repeat([]byte("x"), 100<<10)...), '\n'), 3)},
	)

	sentinels := []error{trace.ErrMalformedTrace, trace.ErrTruncatedTrace, io.ErrUnexpectedEOF, io.EOF}
	chunkers := map[string]func(io.Reader) io.Reader{
		"one-byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
		"data-err": iotest.DataErrReader,
	}
	for _, enc := range encodings {
		variants := map[string][]byte{"valid": enc.data}
		for _, cut := range []int{1, 9, 21, 30, len(enc.data) / 3, len(enc.data) / 2, len(enc.data) - 1} {
			variants[fmt.Sprintf("truncated-%d", cut)] = enc.data[:cut]
		}
		for _, at := range []int{0, 8, 13, 40, len(enc.data) / 2, len(enc.data) - 1} {
			bad := bytes.Clone(enc.data)
			bad[at] ^= 0x5a
			variants[fmt.Sprintf("flipped-%d", at)] = bad
		}
		for vname, data := range variants {
			wantEv, wantErr := decodeAll(bytes.NewReader(data))
			if vname == "valid" && (wantErr != nil || !slices.Equal(wantEv, tr.Events)) {
				t.Errorf("%s: whole read = %d events, %v; want the trace's %d", enc.name, len(wantEv), wantErr, tr.Len())
			}
			for cname, chunk := range chunkers {
				gotEv, gotErr := decodeAll(chunk(bytes.NewReader(data)))
				label := enc.name + "/" + vname + "/" + cname
				if !slices.Equal(gotEv, wantEv) {
					t.Errorf("%s: %d events, whole read %d", label, len(gotEv), len(wantEv))
				}
				if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
					t.Errorf("%s: error %v, whole read %v", label, gotErr, wantErr)
					continue
				}
				for _, s := range sentinels {
					if errors.Is(gotErr, s) != errors.Is(wantErr, s) {
						t.Errorf("%s: errors.Is(%v, %v) differs from the whole read", label, gotErr, s)
					}
				}
			}
		}
	}
}
