package trace

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"slices"
	"strconv"

	"perturb/internal/cancel"
	"perturb/internal/obs"
)

// Codec telemetry. Readers and writers accumulate into plain locals inside
// each batch and flush once per Read/Write call (4096-event batches on the
// whole-trace paths), so the per-event cost is zero and the per-batch cost
// is a handful of gated atomic adds.
var (
	obsReadEvents   = obs.NewCounter("trace.read.events")
	obsReadBytes    = obs.NewCounter("trace.read.bytes")
	obsReadBatches  = obs.NewCounter("trace.read.batches")
	obsReadFill     = obs.NewHistogram("trace.read.batch_fill_pct")
	obsWriteEvents  = obs.NewCounter("trace.write.events")
	obsWriteBytes   = obs.NewCounter("trace.write.bytes")
	obsWriteBatches = obs.NewCounter("trace.write.batches")
)

// noteRead publishes one Read call's decode work: n events decoded into a
// dst of capacity c, consuming b encoded bytes.
func noteRead(n, c int, b int64) {
	if !obs.Enabled() {
		return
	}
	obsReadBatches.Add(1)
	obsReadEvents.Add(int64(n))
	obsReadBytes.Add(b)
	if c > 0 {
		obsReadFill.Observe(0, int64(100*n/c))
	}
}

// noteWrite publishes one Write call's encode work.
func noteWrite(n int, b int64) {
	if !obs.Enabled() {
		return
	}
	obsWriteBatches.Add(1)
	obsWriteEvents.Add(int64(n))
	obsWriteBytes.Add(b)
}

// Streaming codecs
//
// Reader and Writer stream events in caller-sized batches with buffer
// reuse, so traces can be decoded, processed and re-encoded without ever
// materializing the whole event slice. The whole-trace entry points
// (ReadText, ReadBinary, Trace.WriteText, Trace.WriteBinary) are built on
// the same paths, so the streaming code is exercised by every decode.

// Reader streams the events of an encoded trace. Read fills dst with up
// to len(dst) events and returns the number decoded; it returns io.EOF
// (possibly alongside a final partial batch) once the trace is exhausted.
// The caller may reuse dst across calls.
//
// Read hands over what has arrived. It blocks only while it has decoded
// nothing; once it has decoded one event, it decodes only the records
// already complete in its buffer, then returns. It never reads the
// source just to look ahead. So a live producer's events reach the
// caller as their bytes arrive, not when len(dst) of them have.
type Reader interface {
	// Procs returns the processor count recorded in the trace header.
	Procs() int
	Read(dst []Event) (int, error)
}

// Writer streams events into an encoded trace. The header is written on
// construction; Flush must be called once after the last Write to drain
// buffered output. Writers do not close the underlying io.Writer.
type Writer interface {
	Write(batch []Event) error
	Flush() error
}

// NewReader auto-detects the codec (text, binary or columnar) from the
// stream's first bytes and returns the matching streaming reader.
func NewReader(r io.Reader) (Reader, error) {
	return NewFilteredReader(r, BlockFilter{})
}

// NewFilteredReader is NewReader with columnar scan pushdown: when the
// stream is columnar, blocks the filter rules out are skipped undecoded.
// Text and binary input decode whole — the filter is block-granular and
// advisory, so callers must row-filter the events they receive either way.
func NewFilteredReader(r io.Reader, f BlockFilter) (Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	prefix, _ := br.Peek(len(binMagic))
	switch SniffContentType(prefix) {
	case ContentTypeBinary:
		return NewBinaryReader(br)
	case ContentTypeColumnar:
		return NewColumnarFilterReader(br, f)
	}
	return NewTextReader(br)
}

// ReadAll drains a streaming reader into a fully materialized trace.
func ReadAll(r Reader) (*Trace, error) {
	return ReadAllContext(context.Background(), r)
}

// ReadAllContext is ReadAll under a context: the drain polls ctx between
// reads of at most 4096 events and abandons the decode with the
// cancellation sentinels (cancel.ErrCanceled / cancel.ErrDeadlineExceeded
// via errors.Is), so a streamed megatrace stops consuming memory the
// moment its request is canceled.
func ReadAllContext(ctx context.Context, r Reader) (*Trace, error) {
	// Readers with a bulk path (the columnar codec) decode every event
	// into one exactly-sized allocation instead of draining batches into
	// a growing slice; cancellation is still polled between blocks.
	if b, ok := r.(interface {
		readAllEvents(check func() error) (*Trace, error)
	}); ok {
		check := func() error { return nil }
		if ctx.Done() != nil {
			check = func() error { return cancel.Err(ctx) }
		}
		return b.readAllEvents(check)
	}
	t := New(r.Procs())
	if h, ok := r.(interface{ countHint() (uint64, bool) }); ok {
		if c, known := h.countHint(); known {
			// Cap the pre-allocation: the count is attacker-controlled
			// header data, and a truncated or corrupt stream must not
			// provoke an unbounded up-front allocation.
			const maxPrealloc = 1 << 16
			if c > maxPrealloc {
				c = maxPrealloc
			}
			t.Events = make([]Event, 0, c)
		}
	}
	check := ctx.Done() != nil
	for {
		if check {
			if err := cancel.Err(ctx); err != nil {
				return nil, err
			}
		}
		// Decode straight into the slice's spare capacity.
		if len(t.Events) == cap(t.Events) {
			t.Events = slices.Grow(t.Events, 4096)
		}
		n, err := r.Read(t.Events[len(t.Events):min(cap(t.Events), len(t.Events)+4096)])
		t.Events = t.Events[:len(t.Events)+n]
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// Text streaming

// maxLineLen caps one text line, so input without newlines cannot grow a
// reader's line buffer without bound.
const maxLineLen = 1 << 24

type textReader struct {
	br    *bufio.Reader
	long  []byte // a line longer than br's buffer, assembled across fills
	procs int
	line  int
	err   error // sticky terminal state (io.EOF or a parse/read error)
}

// NewTextReader parses the text header and returns a streaming reader
// over the event lines.
func NewTextReader(r io.Reader) (Reader, error) {
	t := &textReader{br: bufio.NewReaderSize(r, 1<<16)}
	raw, err := t.nextLine(true)
	if raw == nil {
		if err == io.EOF {
			return nil, fmt.Errorf("%w: empty input", ErrMalformedTrace)
		}
		return nil, err
	}
	t.line, t.err = 1, err // a header without a newline ends the input
	header := string(bytes.TrimSuffix(bytes.TrimSuffix(raw, []byte("\n")), []byte("\r")))
	if len(header) < len(textMagic) || header[:len(textMagic)] != textMagic {
		return nil, fmt.Errorf("%w: bad header %q", ErrMalformedTrace, header)
	}
	if _, err := fmt.Sscanf(header[len(textMagic):], " procs=%d", &t.procs); err != nil {
		return nil, fmt.Errorf("%w: bad header %q: %v", ErrMalformedTrace, header, err)
	}
	if t.procs < 0 || t.procs > maxProcs {
		return nil, fmt.Errorf("%w: implausible processor count %d", ErrMalformedTrace, t.procs)
	}
	return t, nil
}

func (t *textReader) Procs() int { return t.procs }

func (t *textReader) Read(dst []Event) (int, error) {
	n, bytes, err := t.read(dst)
	noteRead(n, len(dst), bytes)
	return n, err
}

func (t *textReader) read(dst []Event) (int, int64, error) {
	if t.err != nil {
		return 0, 0, t.err
	}
	n, bytes := 0, int64(0)
	for n < len(dst) {
		raw, err := t.nextLine(n == 0)
		if raw == nil && err == nil {
			break // the next line has not fully arrived
		}
		if raw != nil {
			t.line++
			bytes += int64(len(raw))
			if s := trimSpace(raw); len(s) > 0 && s[0] != '#' {
				e, perr := parseEventBytes(s)
				if perr != nil {
					t.err = fmt.Errorf("trace: line %d: %w", t.line, perr)
					return n, bytes, t.err
				}
				dst[n] = e
				n++
			}
		}
		if err != nil {
			t.err = err
			return n, bytes, err
		}
	}
	return n, bytes, nil
}

// nextLine returns the next line, newline included, valid until the next
// read. A last line without a newline comes with io.EOF; a nil line with
// io.EOF is the end of the input. When no complete line is buffered,
// nextLine blocks for one if wait is set and returns nil, nil otherwise.
func (t *textReader) nextLine(wait bool) ([]byte, error) {
	buf, _ := t.br.Peek(t.br.Buffered())
	if i := bytes.IndexByte(buf, '\n'); i >= 0 {
		t.br.Discard(i + 1)
		return buf[:i+1], nil
	}
	if !wait {
		return nil, nil
	}
	t.long = t.long[:0]
	for {
		frag, err := t.br.ReadSlice('\n')
		if err == nil && len(t.long) == 0 {
			return frag, nil
		}
		if len(t.long)+len(frag) > maxLineLen {
			return nil, fmt.Errorf("%w: line %d longer than %d bytes", ErrMalformedTrace, t.line+1, maxLineLen)
		}
		t.long = append(t.long, frag...)
		switch {
		case err == bufio.ErrBufferFull:
		case err == nil:
			return t.long, nil
		case err == io.EOF && len(t.long) > 0:
			return t.long, io.EOF
		default:
			return nil, err
		}
	}
}

// trimSpace strips blanks, carriage returns and the newline from both
// ends of a line.
func trimSpace(s []byte) []byte {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t' || s[0] == '\r') {
		s = s[1:]
	}
	for len(s) > 0 && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t' || s[len(s)-1] == '\r' || s[len(s)-1] == '\n') {
		s = s[:len(s)-1]
	}
	return s
}

// parseEventBytes parses one event line ("<time> p<proc> s<stmt> <kind>
// i<iter> v<var>") without allocating. Extra whitespace between fields
// and trailing fields are tolerated, matching the historical
// fmt.Sscanf-based parser.
func parseEventBytes(s []byte) (Event, error) {
	bad := func() (Event, error) {
		return Event{}, fmt.Errorf("%w: malformed event %q", ErrMalformedTrace, s)
	}
	tok, rest := nextField(s)
	tm, ok := parseInt(tok)
	if !ok {
		return bad()
	}
	tok, rest = nextField(rest)
	proc, ok := parseTagged(tok, 'p')
	if !ok {
		return bad()
	}
	tok, rest = nextField(rest)
	stmt, ok := parseTagged(tok, 's')
	if !ok {
		return bad()
	}
	tok, rest = nextField(rest)
	kind, ok := kindByName[string(tok)]
	if !ok {
		return Event{}, fmt.Errorf("%w: unknown event kind %q", ErrMalformedTrace, tok)
	}
	tok, rest = nextField(rest)
	iter, ok := parseTagged(tok, 'i')
	if !ok {
		return bad()
	}
	tok, _ = nextField(rest)
	syncVar, ok := parseTagged(tok, 'v')
	if !ok {
		return bad()
	}
	return Event{Time: Time(tm), Proc: int(proc), Stmt: int(stmt), Kind: kind, Iter: int(iter), Var: int(syncVar)}, nil
}

func nextField(s []byte) (tok, rest []byte) {
	i := 0
	for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
		i++
	}
	j := i
	for j < len(s) && s[j] != ' ' && s[j] != '\t' {
		j++
	}
	return s[i:j], s[j:]
}

func parseInt(s []byte) (int64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	neg := false
	if s[0] == '-' || s[0] == '+' {
		neg = s[0] == '-'
		s = s[1:]
		if len(s) == 0 {
			return 0, false
		}
	}
	var v int64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := int64(c - '0')
		if v > (1<<63-1-d)/10 {
			return 0, false // overflow
		}
		v = v*10 + d
	}
	if neg {
		v = -v
	}
	return v, true
}

func parseTagged(s []byte, tag byte) (int64, bool) {
	if len(s) < 2 || s[0] != tag {
		return 0, false
	}
	return parseInt(s[1:])
}

var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, name := range kindNames {
		m[name] = Kind(k)
	}
	return m
}()

// KindByName maps a text-codec kind name ("awaitE", "barrier-arrive", …)
// back to its Kind.
func KindByName(name string) (Kind, bool) {
	k, ok := kindByName[name]
	return k, ok
}

type textWriter struct {
	bw      *bufio.Writer
	scratch []byte
}

// NewTextWriter writes the text header and returns a streaming writer.
func NewTextWriter(w io.Writer, procs int) (Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := fmt.Fprintf(bw, "%s procs=%d\n", textMagic, procs); err != nil {
		return nil, err
	}
	return &textWriter{bw: bw}, nil
}

func (t *textWriter) Write(batch []Event) error {
	bytes := int64(0)
	for i := range batch {
		t.scratch = appendEventText(t.scratch[:0], &batch[i])
		bytes += int64(len(t.scratch))
		if _, err := t.bw.Write(t.scratch); err != nil {
			return err
		}
	}
	noteWrite(len(batch), bytes)
	return nil
}

func (t *textWriter) Flush() error { return t.bw.Flush() }

// appendEventText renders the event exactly as Event.String plus a
// newline, without fmt overhead.
func appendEventText(buf []byte, e *Event) []byte {
	buf = strconv.AppendInt(buf, int64(e.Time), 10)
	buf = append(buf, ' ', 'p')
	buf = strconv.AppendInt(buf, int64(e.Proc), 10)
	buf = append(buf, ' ', 's')
	buf = strconv.AppendInt(buf, int64(e.Stmt), 10)
	buf = append(buf, ' ')
	buf = append(buf, e.Kind.String()...)
	buf = append(buf, ' ', 'i')
	buf = strconv.AppendInt(buf, int64(e.Iter), 10)
	buf = append(buf, ' ', 'v')
	buf = strconv.AppendInt(buf, int64(e.Var), 10)
	return append(buf, '\n')
}

// Binary streaming

// streamCount in the binary header's count field marks a stream of
// unknown length: events follow until EOF. Trace.WriteBinary still
// records the exact count; the sentinel is only produced by
// NewBinaryWriter, which cannot know the count up front.
const streamCount = ^uint64(0)

// maxProcs caps the processor count either codec will accept: a corrupt
// header must not be able to make downstream per-processor allocations
// (Validate, analysis state) explode.
const maxProcs = 1 << 20

type binReader struct {
	br    *bufio.Reader
	procs int
	count uint64 // streamCount when the length is unknown
	read  uint64
	err   error
}

// NewBinaryReader parses the binary header and returns a streaming reader
// over the event records.
func NewBinaryReader(r io.Reader) (Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var header [20]byte
	if _, err := io.ReadFull(br, header[:8]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if !bytes.Equal(header[:8], binMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrMalformedTrace, header[:8])
	}
	if _, err := io.ReadFull(br, header[8:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	procs := le32(header[8:])
	count := le64(header[12:])
	const maxEvents = 1 << 30
	if count > maxEvents && count != streamCount {
		return nil, fmt.Errorf("%w: implausible event count %d", ErrMalformedTrace, count)
	}
	if procs > maxProcs {
		return nil, fmt.Errorf("%w: implausible processor count %d", ErrMalformedTrace, procs)
	}
	return &binReader{br: br, procs: int(procs), count: count}, nil
}

func (b *binReader) Procs() int { return b.procs }

func (b *binReader) countHint() (uint64, bool) {
	if b.count == streamCount {
		return 0, false
	}
	return b.count, true
}

func (b *binReader) Read(dst []Event) (int, error) {
	n, err := b.readBatch(dst)
	noteRead(n, len(dst), int64(n)*eventSize)
	return n, err
}

func (b *binReader) readBatch(dst []Event) (int, error) {
	if b.err != nil {
		return 0, b.err
	}
	n := 0
	for n < len(dst) {
		if b.count != streamCount && b.read == b.count {
			b.err = io.EOF
			return n, b.err
		}
		if b.br.Buffered() < eventSize {
			if n > 0 {
				return n, nil
			}
			if p, err := b.br.Peek(eventSize); err != nil {
				b.err = b.endOfInput(len(p), err)
				return n, b.err
			}
		}
		// Decode the run of complete records already buffered.
		k := min(len(dst)-n, b.br.Buffered()/eventSize)
		if b.count != streamCount {
			k = int(min(uint64(k), b.count-b.read))
		}
		recs, _ := b.br.Peek(k * eventSize)
		for i := range k {
			dst[n+i] = decodeEvent(recs[i*eventSize : (i+1)*eventSize])
		}
		b.br.Discard(k * eventSize)
		n += k
		b.read += uint64(k)
	}
	return n, nil
}

// endOfInput turns a failed wait for the next record, with got of its
// bytes available, into the reader's terminal error: io.EOF at the clean
// end of an unbounded stream, the wrapped cause otherwise.
func (b *binReader) endOfInput(got int, err error) error {
	if err == io.EOF {
		if got == 0 && b.count == streamCount {
			return io.EOF
		}
		if got > 0 {
			err = io.ErrUnexpectedEOF
		}
	}
	return fmt.Errorf("trace: event %d: %w", b.read, err)
}

// binWriter buffers encoded records for w, 64 KB at a time.
type binWriter struct {
	w   io.Writer
	buf []byte // encoded, not yet written
}

// NewBinaryWriter writes a binary stream header (with the unknown-length
// sentinel count) and returns a streaming writer.
func NewBinaryWriter(w io.Writer, procs int) (Writer, error) {
	return &binWriter{w: w, buf: binaryHeader(procs, streamCount)}, nil
}

func (b *binWriter) Write(batch []Event) error {
	var err error
	if b.buf, _, err = appendRecords(b.w, b.buf, slices.Values(batch)); err != nil {
		return err
	}
	noteWrite(len(batch), int64(len(batch))*eventSize)
	return nil
}

func (b *binWriter) Flush() error {
	if err := writeBuffered(b.w, b.buf); err != nil {
		return err
	}
	b.buf = b.buf[:0]
	return nil
}
