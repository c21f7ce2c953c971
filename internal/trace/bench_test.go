package trace_test

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"perturb/internal/trace"
)

func benchTrace(n int) *trace.Trace {
	r := rand.New(rand.NewSource(1))
	t := trace.New(8)
	clocks := make([]trace.Time, 8)
	for i := 0; i < n; i++ {
		p := r.Intn(8)
		clocks[p] += trace.Time(r.Intn(3000))
		t.Append(trace.Event{Time: clocks[p], Stmt: i % 16, Proc: p, Kind: trace.KindCompute, Iter: i, Var: trace.NoVar})
	}
	t.Sort()
	return t
}

func BenchmarkSort(b *testing.B) {
	base := benchTrace(50000)
	work := base.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work.Events, base.Events)
		work.Sort()
	}
	b.ReportMetric(float64(base.Len()), "events")
}

func BenchmarkValidate(b *testing.B) {
	t := benchTrace(50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := t.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteBinary(b *testing.B) {
	t := benchTrace(50000)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := t.WriteBinary(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkReadBinary(b *testing.B) {
	t := benchTrace(50000)
	var buf bytes.Buffer
	if err := t.WriteBinary(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ReadBinary(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// Streaming-vs-whole decode: the whole-trace path materializes every
// event; the streaming path reuses one 4096-event batch, so decoding is
// allocation-flat no matter the trace size.

func benchStreamDecode(b *testing.B, data []byte, open func([]byte) (trace.Reader, error)) {
	b.Helper()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	batch := make([]trace.Event, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := open(data)
		if err != nil {
			b.Fatal(err)
		}
		var n int
		for {
			m, err := r.Read(batch)
			n += m
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if n == 0 {
			b.Fatal("no events")
		}
	}
}

func BenchmarkDecodeBinaryWhole(b *testing.B) {
	t := benchTrace(1_000_000)
	var buf bytes.Buffer
	if err := t.WriteBinary(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ReadBinary(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBinaryStream(b *testing.B) {
	t := benchTrace(1_000_000)
	var buf bytes.Buffer
	if err := t.WriteBinary(&buf); err != nil {
		b.Fatal(err)
	}
	benchStreamDecode(b, buf.Bytes(), func(data []byte) (trace.Reader, error) {
		return trace.NewBinaryReader(bytes.NewReader(data))
	})
}

func BenchmarkDecodeTextWhole(b *testing.B) {
	t := benchTrace(200_000)
	var buf bytes.Buffer
	if err := t.WriteText(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ReadText(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeTextStream(b *testing.B) {
	t := benchTrace(200_000)
	var buf bytes.Buffer
	if err := t.WriteText(&buf); err != nil {
		b.Fatal(err)
	}
	benchStreamDecode(b, buf.Bytes(), func(data []byte) (trace.Reader, error) {
		return trace.NewTextReader(bytes.NewReader(data))
	})
}

// Columnar codec benchmarks on the same million-event trace the row
// codec benchmarks use, so the ns/op columns compare directly. The
// EXPERIMENTS.md "Columnar trace codec" tables quote these numbers.

func benchColumnar(b *testing.B, n int) []byte {
	b.Helper()
	t := benchTrace(n)
	var buf bytes.Buffer
	if err := t.WriteColumnar(&buf); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkColumnarCompress(b *testing.B) {
	t := benchTrace(1_000_000)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := t.WriteColumnar(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportMetric(float64(buf.Len())/float64(t.Len()), "bytes/event")
}

func BenchmarkColumnarDecode(b *testing.B) {
	data := benchColumnar(b, 1_000_000)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ReadColumnar(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColumnarDecodeStream(b *testing.B) {
	data := benchColumnar(b, 1_000_000)
	benchStreamDecode(b, data, func(data []byte) (trace.Reader, error) {
		return trace.NewColumnarReader(bytes.NewReader(data))
	})
}

// BenchmarkColumnarDecodeWindowed decodes only the blocks intersecting a
// narrow time window via the per-block min/max index — the query path the
// format exists for. Compare against BenchmarkColumnarDecode: the gap is
// the value of block skipping.
func BenchmarkColumnarDecodeWindowed(b *testing.B) {
	t := benchTrace(1_000_000)
	var buf bytes.Buffer
	if err := t.WriteColumnar(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	dur := t.End() - t.Start()
	filter := trace.BlockFilter{
		HasWindow: true,
		From:      t.Start() + dur/20,
		To:        t.Start() + dur/10,
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := trace.NewColumnarFilterReader(bytes.NewReader(data), filter)
		if err != nil {
			b.Fatal(err)
		}
		dec, err := trace.ReadAll(r)
		if err != nil {
			b.Fatal(err)
		}
		if dec.Len() == 0 {
			b.Fatal("window selected nothing")
		}
	}
}

func BenchmarkWriteText(b *testing.B) {
	t := benchTrace(20000)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := t.WriteText(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}
