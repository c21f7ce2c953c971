package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"perturb/internal/obs"
)

// Columnar codec
//
// The third trace format is columnar and block oriented, built for the
// 10^8..10^9-event scale where the row codecs' fixed 25 bytes/event and
// full-stream decode dominate analysis cost. Events are grouped into
// blocks of colBlockSize events (the last may hold fewer); within a block
// each Event field is stored as its own column stream with the cheapest of
// four integer encodings (constant, delta varint, run-length delta,
// bit-packed), chosen per column per block. Every block is prefixed with a
// small header carrying a min/max index over time and processor plus an
// event-kind bitmask, so a reader can decide from 36 bytes whether a block
// can contain anything a query wants and skip the payload wholesale
// (bufio.Discard, no decode, no allocation).
//
// Layout:
//
//	magic    [8]byte  "PTRCOL1\x00"
//	procs    uint32
//	blocks   *{ 'B'; header [35]byte; payload [payloadLen]byte }
//	end      'E'
//
// Block header (little endian):
//
//	count      uint32  events in the block
//	minTime    int64   minimum event Time in the block
//	maxTime    int64   maximum event Time in the block
//	procMin    int32   minimum Proc in the block
//	procMax    int32   maximum Proc in the block
//	kindMask   uint16  bit k set iff some event has Kind k
//	flags      uint8   reserved, always 0; a reader refuses any other value
//	payloadLen uint32  encoded payload bytes that follow
//
// The payload is six column sections in field order (Time, Stmt, Proc,
// Kind, Iter, Var), each `tag uint8; len uvarint; data [len]byte`. Column
// values are int64; Time is stored as-is, the small fields widen
// losslessly (unlike the row binary codec, which silently truncates
// Stmt/Proc/Iter/Var to int32). Blocks are self-contained: decoding one
// needs no state from its predecessors, which is what makes skipping
// sound.
//
// The column encodings are the compression: on simulator-shaped traces
// they reach well past the 10x target without a general-purpose
// compressor (see EXPERIMENTS.md).

var colMagic = [8]byte{'P', 'T', 'R', 'C', 'O', 'L', '1', 0}

const (
	// colBlockSize is the events per block. 4096 matches the streaming
	// batch size used throughout the repo: one Read of the default ReadAll
	// batch consumes exactly one block.
	colBlockSize = 4096
	// colMaxBlockEvents caps the per-block event count a reader will
	// accept: a corrupt header must not provoke an unbounded allocation.
	colMaxBlockEvents = 1 << 20
	// colMaxPayload caps the encoded payload size of one block.
	colMaxPayload = 1 << 26
	// colMaxDecodeWorkers bounds the bulk read path's parallel block
	// decode; past a few workers the pass is memory-bandwidth bound.
	colMaxDecodeWorkers = 8
	// colHeaderLen is the fixed block header size after the 'B' marker.
	colHeaderLen = 4 + 8 + 8 + 4 + 4 + 2 + 1 + 4

	colBlockMarker = 'B'
	colEndMarker   = 'E'
)

// Column encoding tags. The writer picks, per column per block, whichever
// candidate encodes smallest (ties broken toward the lower tag).
const (
	// colEncConst: every value equals v. data = zigzag-varint(v).
	colEncConst = 0
	// colEncDelta: data = zigzag-varint(v0), then zigzag-varint of each
	// successive difference.
	colEncDelta = 1
	// colEncDeltaRLE: data = zigzag-varint(v0), then runs of
	// { zigzag-varint(delta); uvarint(repeat) } covering the remaining
	// n-1 differences.
	colEncDeltaRLE = 2
	// colEncPacked: data = zigzag-varint(min); uint8 width; then n
	// width-bit values (v - min), packed little-endian. width <= 32.
	colEncPacked = 3

	colNumColumns = 6
)

// Codec telemetry for the block layer: blocks decoded vs skipped, and the
// payload bytes a skip avoided decoding. The row-oriented counters in
// stream.go only see bytes a Read actually consumed; these close that gap
// for the seek-style columnar reader, whose whole point is the bytes it
// does NOT read.
var (
	obsReadBlocks       = obs.NewCounter("trace.read.blocks")
	obsReadBlocksSkip   = obs.NewCounter("trace.read.blocks_skipped")
	obsReadSkippedBytes = obs.NewCounter("trace.read.skipped_bytes")
	obsWriteBlocks      = obs.NewCounter("trace.write.blocks")
)

// zigzag maps signed to unsigned so small magnitudes of either sign
// varint-encode short.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func uvarintLen(u uint64) int {
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}

// ColumnarWriter streams events into the columnar block format. It
// implements Writer; Flush terminates the stream with the end marker, so
// it must be called exactly once, after the last Write.
type ColumnarWriter struct {
	bw    *bufio.Writer
	size  int     // events per block
	pend  []Event // buffered events of the unfinished block
	cols  [colNumColumns][]int64
	buf   []byte // reusable payload scratch
	done  bool
	nblks int64
}

// NewColumnarWriter writes the columnar stream header and returns the
// streaming writer.
func NewColumnarWriter(w io.Writer, procs int) (*ColumnarWriter, error) {
	return newColumnarWriter(w, procs, colBlockSize)
}

// newColumnarWriter is NewColumnarWriter with blocks of size events, so
// that tests cover multi-block streams on small traces.
func newColumnarWriter(w io.Writer, procs, size int) (*ColumnarWriter, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(colMagic[:]); err != nil {
		return nil, err
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(procs))
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &ColumnarWriter{bw: bw, size: size}, nil
}

// Write buffers the batch and emits every complete block. Full blocks are
// encoded straight out of the caller's batch; only a trailing partial
// block is copied into the pending buffer.
func (c *ColumnarWriter) Write(batch []Event) error {
	if c.done {
		return fmt.Errorf("trace: columnar writer already flushed")
	}
	if len(c.pend) > 0 {
		need := c.size - len(c.pend)
		if need > len(batch) {
			need = len(batch)
		}
		c.pend = append(c.pend, batch[:need]...)
		batch = batch[need:]
		if len(c.pend) == c.size {
			if err := c.writeBlock(c.pend); err != nil {
				return err
			}
			c.pend = c.pend[:0]
		}
	}
	for len(batch) >= c.size {
		if err := c.writeBlock(batch[:c.size]); err != nil {
			return err
		}
		batch = batch[c.size:]
	}
	c.pend = append(c.pend, batch...)
	return nil
}

// Flush emits the final partial block and the end marker, then drains the
// buffered output. It must be called once, after the last Write.
func (c *ColumnarWriter) Flush() error {
	if c.done {
		return c.bw.Flush()
	}
	if len(c.pend) > 0 {
		if err := c.writeBlock(c.pend); err != nil {
			return err
		}
		c.pend = c.pend[:0]
	}
	c.done = true
	if err := c.bw.WriteByte(colEndMarker); err != nil {
		return err
	}
	if obs.Enabled() {
		obsWriteBlocks.Add(c.nblks)
	}
	return c.bw.Flush()
}

func (c *ColumnarWriter) writeBlock(events []Event) error {
	n := len(events)
	// Split into columns and gather the index stats in one pass.
	for i := range c.cols {
		if cap(c.cols[i]) < n {
			c.cols[i] = make([]int64, n)
		}
		c.cols[i] = c.cols[i][:n]
	}
	minT, maxT := int64(events[0].Time), int64(events[0].Time)
	minP, maxP := events[0].Proc, events[0].Proc
	kindMask := uint16(0)
	for i := range events {
		e := &events[i]
		c.cols[0][i] = int64(e.Time)
		c.cols[1][i] = int64(e.Stmt)
		c.cols[2][i] = int64(e.Proc)
		c.cols[3][i] = int64(e.Kind)
		c.cols[4][i] = int64(e.Iter)
		c.cols[5][i] = int64(e.Var)
		if int64(e.Time) < minT {
			minT = int64(e.Time)
		}
		if int64(e.Time) > maxT {
			maxT = int64(e.Time)
		}
		if e.Proc < minP {
			minP = e.Proc
		}
		if e.Proc > maxP {
			maxP = e.Proc
		}
		kindMask |= kindBit(e.Kind)
	}

	payload := c.buf[:0]
	for _, col := range c.cols {
		payload = appendColumn(payload, col)
	}
	c.buf = payload

	var hdr [1 + colHeaderLen]byte
	hdr[0] = colBlockMarker
	binary.LittleEndian.PutUint32(hdr[1:], uint32(n))
	binary.LittleEndian.PutUint64(hdr[5:], uint64(minT))
	binary.LittleEndian.PutUint64(hdr[13:], uint64(maxT))
	binary.LittleEndian.PutUint32(hdr[21:], uint32(int32(clampInt32(minP))))
	binary.LittleEndian.PutUint32(hdr[25:], uint32(int32(clampInt32(maxP))))
	binary.LittleEndian.PutUint16(hdr[29:], kindMask)
	binary.LittleEndian.PutUint32(hdr[32:], uint32(len(payload)))
	if _, err := c.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := c.bw.Write(payload); err != nil {
		return err
	}
	c.nblks++
	noteWrite(n, int64(len(hdr))+int64(len(payload)))
	return nil
}

func clampInt32(v int) int {
	if v > math.MaxInt32 {
		return math.MaxInt32
	}
	if v < math.MinInt32 {
		return math.MinInt32
	}
	return v
}

// appendColumn encodes one column with the smallest candidate encoding.
func appendColumn(dst []byte, col []int64) []byte {
	n := len(col)
	if n == 0 {
		return append(dst, colEncConst, 1, 0) // tag, len=1, zigzag(0)
	}

	// Constant?
	isConst := true
	for _, v := range col[1:] {
		if v != col[0] {
			isConst = false
			break
		}
	}
	if isConst {
		var tmp [binary.MaxVarintLen64]byte
		m := binary.PutUvarint(tmp[:], zigzag(col[0]))
		dst = append(dst, colEncConst)
		dst = appendUvarint(dst, uint64(m))
		return append(dst, tmp[:m]...)
	}

	// Size the three remaining candidates in one pass over the deltas.
	deltaSize := uvarintLen(zigzag(col[0]))
	rleSize := deltaSize
	minV, maxV := col[0], col[0]
	prev := col[0]
	runDelta, runLen := int64(0), 0
	flushRun := func() {
		if runLen > 0 {
			rleSize += uvarintLen(zigzag(runDelta)) + uvarintLen(uint64(runLen))
		}
	}
	for _, v := range col[1:] {
		d := v - prev
		prev = v
		deltaSize += uvarintLen(zigzag(d))
		if runLen > 0 && d == runDelta {
			runLen++
		} else {
			flushRun()
			runDelta, runLen = d, 1
		}
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	flushRun()

	packedSize := math.MaxInt
	width := 0
	if spread := uint64(maxV) - uint64(minV); spread <= math.MaxUint32 {
		width = bitsFor(spread)
		packedSize = uvarintLen(zigzag(minV)) + 1 + (n*width+7)/8
	}

	switch {
	case packedSize <= deltaSize && packedSize <= rleSize:
		dst = append(dst, colEncPacked)
		dst = appendUvarint(dst, uint64(packedSize))
		return appendPacked(dst, col, minV, width)
	case rleSize <= deltaSize:
		dst = append(dst, colEncDeltaRLE)
		dst = appendUvarint(dst, uint64(rleSize))
		return appendDeltaRLE(dst, col)
	default:
		dst = append(dst, colEncDelta)
		dst = appendUvarint(dst, uint64(deltaSize))
		return appendDelta(dst, col)
	}
}

func appendUvarint(dst []byte, u uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	m := binary.PutUvarint(tmp[:], u)
	return append(dst, tmp[:m]...)
}

// bitsFor returns how many bits hold values in [0, spread].
func bitsFor(spread uint64) int {
	w := 0
	for spread > 0 {
		w++
		spread >>= 1
	}
	return w
}

func appendDelta(dst []byte, col []int64) []byte {
	dst = appendUvarint(dst, zigzag(col[0]))
	prev := col[0]
	for _, v := range col[1:] {
		dst = appendUvarint(dst, zigzag(v-prev))
		prev = v
	}
	return dst
}

func appendDeltaRLE(dst []byte, col []int64) []byte {
	dst = appendUvarint(dst, zigzag(col[0]))
	prev := col[0]
	runDelta, runLen := int64(0), 0
	for _, v := range col[1:] {
		d := v - prev
		prev = v
		if runLen > 0 && d == runDelta {
			runLen++
			continue
		}
		if runLen > 0 {
			dst = appendUvarint(dst, zigzag(runDelta))
			dst = appendUvarint(dst, uint64(runLen))
		}
		runDelta, runLen = d, 1
	}
	if runLen > 0 {
		dst = appendUvarint(dst, zigzag(runDelta))
		dst = appendUvarint(dst, uint64(runLen))
	}
	return dst
}

func appendPacked(dst []byte, col []int64, minV int64, width int) []byte {
	dst = appendUvarint(dst, zigzag(minV))
	dst = append(dst, byte(width))
	var acc uint64
	bits := 0
	for _, v := range col {
		acc |= (uint64(v) - uint64(minV)) << bits
		bits += width
		for bits >= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
			bits -= 8
		}
	}
	if bits > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}

// BlockFilter describes which blocks a columnar reader must decode; the
// zero value decodes everything. A block survives when every set
// constraint can intersect it, judged purely on the 36-byte block header
// — surviving blocks are decoded whole, so the reader returns a superset
// of the matching events and row-level filtering stays with the caller.
type BlockFilter struct {
	// HasWindow gates the time constraint; blocks entirely outside
	// [From, To] are skipped.
	HasWindow bool
	From, To  Time
	// Procs, when non-nil, skips blocks whose [procMin, procMax] range
	// contains none of the listed processors.
	Procs []int
	// Kinds, when non-nil, skips blocks whose kind bitmask holds none of
	// the listed kinds.
	Kinds []Kind
	// ForceKinds lists kinds that veto skipping: a block containing any of
	// them is decoded regardless of the other constraints. Trace slicing
	// uses it to keep every barrier-arrive in reach, because the engine
	// groups all same-key arrivals globally — even ones timed after the
	// query window.
	ForceKinds []Kind
}

// kindBit is kind k's bit in a block's kind mask. Undefined kinds
// (writable via a hand-built Event) share the top bit, so the index never
// lies about what a block holds.
func kindBit(k Kind) uint16 {
	return 1 << min(k, 15)
}

// keepBlock reports whether a block with the given index entries can
// contain an event the filter wants.
func (f *BlockFilter) keepBlock(minT, maxT Time, procMin, procMax int, kindMask uint16) bool {
	inMask := func(k Kind) bool { return kindMask&kindBit(k) != 0 }
	switch {
	case slices.ContainsFunc(f.ForceKinds, inMask):
		return true
	case f.HasWindow && (minT > f.To || maxT < f.From):
		return false
	case f.Procs != nil && !slices.ContainsFunc(f.Procs, func(p int) bool { return p >= procMin && p <= procMax }):
		return false
	case f.Kinds != nil && !slices.ContainsFunc(f.Kinds, inMask):
		return false
	}
	return true
}

// ColumnarReader streams the events of a columnar trace, optionally
// skipping blocks a BlockFilter rules out. It implements Reader.
type ColumnarReader struct {
	br     *bufio.Reader
	procs  int
	filter BlockFilter

	blk     []Event // decoded current block
	blkPos  int
	payload []byte  // the current block's payload
	scratch []int64 // decodeBlockInto's columns

	blocksRead int64
	blocksSkip int64
	err        error
}

// NewColumnarReader parses the columnar header and returns a streaming
// reader over all blocks.
func NewColumnarReader(r io.Reader) (*ColumnarReader, error) {
	return NewColumnarFilterReader(r, BlockFilter{})
}

// NewColumnarFilterReader is NewColumnarReader with a block filter: blocks
// whose header index proves they cannot contain an event matching f are
// skipped without decoding (or even reading) their payload.
func NewColumnarFilterReader(r io.Reader, f BlockFilter) (*ColumnarReader, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	var hdr [len(colMagic) + 4]byte
	if _, err := io.ReadFull(br, hdr[:len(colMagic)]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if !bytes.Equal(hdr[:len(colMagic)], colMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrMalformedTrace, hdr[:len(colMagic)])
	}
	if _, err := io.ReadFull(br, hdr[len(colMagic):]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	procs := le32(hdr[len(colMagic):])
	if procs > maxProcs {
		return nil, fmt.Errorf("%w: implausible processor count %d", ErrMalformedTrace, procs)
	}
	return &ColumnarReader{br: br, procs: int(procs), filter: f}, nil
}

func (c *ColumnarReader) Procs() int { return c.procs }

// Blocks reports how many blocks the reader decoded and how many the
// filter skipped so far.
func (c *ColumnarReader) Blocks() (read, skipped int64) {
	return c.blocksRead, c.blocksSkip
}

func (c *ColumnarReader) Read(dst []Event) (int, error) {
	n, consumed, err := c.read(dst)
	noteRead(n, len(dst), consumed)
	return n, err
}

func (c *ColumnarReader) read(dst []Event) (int, int64, error) {
	if c.err != nil {
		return 0, 0, c.err
	}
	n := 0
	consumed := int64(0)
	for n < len(dst) {
		if c.blkPos < len(c.blk) {
			m := copy(dst[n:], c.blk[c.blkPos:])
			n += m
			c.blkPos += m
			continue
		}
		b, err := c.nextBlock(n == 0)
		consumed += b
		if err == errBlockPending {
			break
		}
		if err != nil {
			c.err = err
			return n, consumed, err
		}
	}
	return n, consumed, nil
}

// errBlockPending is readBlockRaw's answer, when told not to wait, that
// the next block has not fully arrived. It never leaves the reader.
var errBlockPending = errors.New("trace: next block not yet buffered")

// nextBlock advances to the next surviving block, decoding it into c.blk.
// It returns the encoded bytes consumed (headers of skipped blocks
// included; their discarded payloads are tallied separately).
func (c *ColumnarReader) nextBlock(wait bool) (int64, error) {
	payload, count, consumed, err := c.readBlockRaw(wait, c.payload)
	if err != nil {
		return consumed, err
	}
	c.payload = payload
	if cap(c.blk) < count {
		c.blk = make([]Event, count)
	}
	c.blk = c.blk[:count]
	c.blkPos = 0
	return consumed, decodeBlockInto(payload, c.blk, &c.scratch)
}

// readBlockRaw reads through the stream to the next block the filter
// keeps and returns its still-encoded payload, read into buf when it has
// the capacity and into a new slice otherwise, and its event count, plus
// the encoded bytes consumed. It returns io.EOF at the end marker. Unless
// wait is set, it starts a block only once its marker, header and payload
// are all buffered, and returns errBlockPending otherwise.
func (c *ColumnarReader) readBlockRaw(wait bool, buf []byte) (payload []byte, count int, consumed int64, err error) {
	for {
		if !wait && !c.blockBuffered() {
			return nil, 0, consumed, errBlockPending
		}
		marker, err := c.br.ReadByte()
		if err != nil {
			if err == io.EOF {
				return nil, 0, consumed, fmt.Errorf("%w: missing end marker", ErrTruncatedTrace)
			}
			return nil, 0, consumed, err
		}
		consumed++
		switch marker {
		case colEndMarker:
			return nil, 0, consumed, io.EOF
		case colBlockMarker:
		default:
			return nil, 0, consumed, fmt.Errorf("%w: bad block marker 0x%02x", ErrMalformedTrace, marker)
		}

		var hdr [colHeaderLen]byte
		if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
			return nil, 0, consumed, fmt.Errorf("trace: block header: %w", err)
		}
		consumed += colHeaderLen
		n := le32(hdr[0:])
		minT := Time(int64(le64(hdr[4:])))
		maxT := Time(int64(le64(hdr[12:])))
		procMin := int(int32(le32(hdr[20:])))
		procMax := int(int32(le32(hdr[24:])))
		kindMask := binary.LittleEndian.Uint16(hdr[28:])
		payloadLen := le32(hdr[31:])
		if flags := hdr[30]; flags != 0 {
			return nil, 0, consumed, fmt.Errorf("%w: block flags 0x%02x, want 0", ErrMalformedTrace, flags)
		}
		if n > colMaxBlockEvents {
			return nil, 0, consumed, fmt.Errorf("%w: implausible block event count %d", ErrMalformedTrace, n)
		}
		if payloadLen > colMaxPayload {
			return nil, 0, consumed, fmt.Errorf("%w: implausible block payload size %d", ErrMalformedTrace, payloadLen)
		}

		if !c.filter.keepBlock(minT, maxT, procMin, procMax, kindMask) {
			if _, err := c.br.Discard(int(payloadLen)); err != nil {
				return nil, 0, consumed, fmt.Errorf("trace: skipping block: %w", err)
			}
			c.blocksSkip++
			if obs.Enabled() {
				obsReadBlocksSkip.Add(1)
				obsReadSkippedBytes.Add(int64(payloadLen))
			}
			continue
		}

		if cap(buf) < int(payloadLen) {
			buf = make([]byte, payloadLen)
		}
		payload = buf[:payloadLen]
		if _, err := io.ReadFull(c.br, payload); err != nil {
			return nil, 0, consumed, fmt.Errorf("trace: block payload: %w", err)
		}
		consumed += int64(payloadLen)
		c.blocksRead++
		if obs.Enabled() {
			obsReadBlocks.Add(1)
		}
		return payload, int(n), consumed, nil
	}
}

// blockBuffered reports whether the next block, or the end marker, has
// fully arrived in the read buffer. Any other marker byte is an error
// that needs no more input, so it counts as arrived.
func (c *ColumnarReader) blockBuffered() bool {
	buf, _ := c.br.Peek(c.br.Buffered())
	switch {
	case len(buf) == 0:
		return false
	case buf[0] != colBlockMarker:
		return true
	case len(buf) < 1+colHeaderLen:
		return false
	}
	return uint64(len(buf)) >= 1+colHeaderLen+uint64(le32(buf[1+31:]))
}

// readAllEvents is the whole-trace fast path ReadAllContext dispatches
// to. Column decoding is cheap next to the allocator traffic a streaming
// drain pays — growth reallocation alone copies the event slice several
// times over — so this path first reads the surviving blocks' still-encoded
// payloads, each into its own slice (together about the encoded size, an
// order of magnitude below the decoded events), learns the exact event
// count, and then decodes every block straight into its final position in
// one allocation.
func (c *ColumnarReader) readAllEvents(check func() error) (*Trace, error) {
	t := New(c.procs)
	// Events already decoded by interleaved streaming Reads come first.
	head := append([]Event(nil), c.blk[c.blkPos:]...)
	c.blkPos = len(c.blk)
	if c.err != nil {
		if c.err == io.EOF {
			t.Events = head
			return t, nil
		}
		return nil, c.err
	}
	type block struct {
		payload    []byte
		start, end int // the block's range of t.Events
	}
	var (
		blocks   []block
		total    = len(head)
		consumed int64
	)
	for {
		if err := check(); err != nil {
			return nil, err
		}
		payload, n, b, err := c.readBlockRaw(true, nil)
		consumed += b
		if err == io.EOF {
			break
		}
		if err != nil {
			c.err = err
			return nil, err
		}
		blocks = append(blocks, block{payload: payload, start: total, end: total + n})
		total += n
	}
	c.err = io.EOF

	t.Events = make([]Event, total)
	copy(t.Events, head)

	// Blocks are self-contained and land in disjoint ranges of the event
	// slice, so phase two decodes them concurrently: the workers take
	// blocks from one cursor, each with its own column scratch and first
	// error, and the caller is one of them. A failure moves the cursor
	// past the last block, so every worker stops at its next take.
	workers := min(runtime.GOMAXPROCS(0), len(blocks), colMaxDecodeWorkers)
	var (
		next atomic.Int64
		errs = make([]error, workers)
		wg   sync.WaitGroup
	)
	decode := func(w int, scratch *[]int64) {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(blocks) {
				return
			}
			b := blocks[i]
			if errs[w] = check(); errs[w] == nil {
				errs[w] = decodeBlockInto(b.payload, t.Events[b.start:b.end], scratch)
			}
			if errs[w] != nil {
				next.Store(int64(len(blocks)))
				return
			}
		}
	}
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch []int64
			decode(w, &scratch)
		}()
	}
	if workers > 0 {
		decode(0, &c.scratch)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			c.err = err
			return nil, err
		}
	}
	noteRead(total, total, consumed)
	return t, nil
}

// decodeBlockInto decodes a block's six column sections into blk, one
// slot per event of the block, through the column scratch *scratch.
func decodeBlockInto(payload []byte, blk []Event, scratch *[]int64) error {
	n := len(blk)
	// One cache line of padding between columns: with the default block
	// size the columns would otherwise sit exactly 32KiB apart and map to
	// the same cache sets, making the assembly pass thrash.
	stride := n + 8
	if cap(*scratch) < colNumColumns*stride {
		*scratch = make([]int64, colNumColumns*stride)
	}
	// Decode each column into its own scratch slice, then assemble whole
	// events in a single pass: one contiguous 48-byte store per event
	// beats six strided field-store sweeps over the block.
	var cols [colNumColumns][]int64
	pos := 0
	for ci := 0; ci < colNumColumns; ci++ {
		cols[ci] = (*scratch)[ci*stride : ci*stride+n : ci*stride+n]
		var err error
		pos, err = decodeColumn(payload, pos, cols[ci])
		if err != nil {
			return fmt.Errorf("%w: column %d: %v", ErrMalformedTrace, ci, err)
		}
	}
	if pos != len(payload) {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrMalformedTrace, len(payload)-pos)
	}
	ts, ss, ps := cols[0], cols[1], cols[2]
	ks, is, vs := cols[3], cols[4], cols[5]
	for i := range blk {
		blk[i] = Event{
			Time: Time(ts[i]),
			Stmt: int(ss[i]),
			Proc: int(ps[i]),
			Kind: Kind(ks[i]),
			Iter: int(is[i]),
			Var:  int(vs[i]),
		}
	}
	return nil
}

// decodeColumn decodes one `tag; len; data` section from payload at pos
// into col, returning the position after the section.
func decodeColumn(payload []byte, pos int, col []int64) (int, error) {
	if pos >= len(payload) {
		return 0, fmt.Errorf("truncated column header")
	}
	tag := payload[pos]
	pos++
	dataLen, m := binary.Uvarint(payload[pos:])
	if m <= 0 {
		return 0, fmt.Errorf("bad column length")
	}
	pos += m
	if dataLen > uint64(len(payload)-pos) {
		return 0, fmt.Errorf("column data overruns payload")
	}
	data := payload[pos : pos+int(dataLen)]
	pos += int(dataLen)

	switch tag {
	case colEncConst:
		u, m := binary.Uvarint(data)
		if m <= 0 || m != len(data) {
			return 0, fmt.Errorf("bad const column")
		}
		v := unzigzag(u)
		for i := range col {
			col[i] = v
		}
	case colEncDelta:
		if err := decodeDelta(data, col); err != nil {
			return 0, err
		}
	case colEncDeltaRLE:
		if err := decodeDeltaRLE(data, col); err != nil {
			return 0, err
		}
	case colEncPacked:
		if err := decodePacked(data, col); err != nil {
			return 0, err
		}
	default:
		return 0, fmt.Errorf("unknown column encoding %d", tag)
	}
	return pos, nil
}

// uvarintAt is binary.Uvarint with an explicit offset and a fast path for
// the dominant one-byte case.
func uvarintAt(data []byte, i int) (uint64, int) {
	if i < len(data) {
		if b := data[i]; b < 0x80 {
			return uint64(b), i + 1
		}
	}
	u, m := binary.Uvarint(data[i:])
	if m <= 0 {
		return 0, -1
	}
	return u, i + m
}

func decodeDelta(data []byte, col []int64) error {
	if len(col) == 0 {
		if len(data) != 0 {
			return fmt.Errorf("delta column data for empty block")
		}
		return nil
	}
	u, i := uvarintAt(data, 0)
	if i < 0 {
		return fmt.Errorf("bad delta column start")
	}
	v := unzigzag(u)
	col[0] = v
	for k := 1; k < len(col); k++ {
		u, i = uvarintAt(data, i)
		if i < 0 {
			return fmt.Errorf("truncated delta column")
		}
		v += unzigzag(u)
		col[k] = v
	}
	if i != len(data) {
		return fmt.Errorf("trailing delta column bytes")
	}
	return nil
}

func decodeDeltaRLE(data []byte, col []int64) error {
	if len(col) == 0 {
		if len(data) != 0 {
			return fmt.Errorf("rle column data for empty block")
		}
		return nil
	}
	u, i := uvarintAt(data, 0)
	if i < 0 {
		return fmt.Errorf("bad rle column start")
	}
	v := unzigzag(u)
	col[0] = v
	k := 1
	for k < len(col) {
		u, i = uvarintAt(data, i)
		if i < 0 {
			return fmt.Errorf("truncated rle column delta")
		}
		d := unzigzag(u)
		var cnt uint64
		cnt, i = uvarintAt(data, i)
		if i < 0 {
			return fmt.Errorf("truncated rle column count")
		}
		if cnt == 0 || cnt > uint64(len(col)-k) {
			return fmt.Errorf("rle run of %d exceeds remaining %d values", cnt, len(col)-k)
		}
		if d == 0 {
			// The hot case on simulator traces: a run of equal values.
			for range int(cnt) {
				col[k] = v
				k++
			}
			continue
		}
		for range int(cnt) {
			v += d
			col[k] = v
			k++
		}
	}
	if i != len(data) {
		return fmt.Errorf("trailing rle column bytes")
	}
	return nil
}

func decodePacked(data []byte, col []int64) error {
	u, i := uvarintAt(data, 0)
	if i < 0 {
		return fmt.Errorf("bad packed column base")
	}
	base := unzigzag(u)
	if i >= len(data) {
		return fmt.Errorf("missing packed column width")
	}
	width := int(data[i])
	i++
	if width == 0 || width > 32 {
		return fmt.Errorf("bad packed width %d", width)
	}
	need := (len(col)*width + 7) / 8
	if len(data)-i != need {
		return fmt.Errorf("packed column holds %d bytes, need %d", len(data)-i, need)
	}
	bits := data[i:]
	mask := uint64(1)<<width - 1
	bitpos := 0
	k := 0
	// For widths up to 7 bits, eight values consume exactly width bytes
	// and fit one 64-bit load, so the hot loop unpacks them eight at a
	// time with no per-value position arithmetic.
	if width <= 7 {
		for k+8 <= len(col) && (bitpos>>3)+8 <= len(bits) {
			w := binary.LittleEndian.Uint64(bits[bitpos>>3:])
			col[k+0] = base + int64(w&mask)
			col[k+1] = base + int64(w>>(width)&mask)
			col[k+2] = base + int64(w>>(2*width)&mask)
			col[k+3] = base + int64(w>>(3*width)&mask)
			col[k+4] = base + int64(w>>(4*width)&mask)
			col[k+5] = base + int64(w>>(5*width)&mask)
			col[k+6] = base + int64(w>>(6*width)&mask)
			col[k+7] = base + int64(w>>(7*width)&mask)
			k += 8
			bitpos += 8 * width
		}
	}
	// Each value's bits span at most width+7 <= 39 bits, so one unaligned
	// 64-bit load at the value's first byte always covers it; only values
	// whose load would run past the buffer take the byte-gather tail.
	if len(bits) >= 8 {
		safe := len(bits) - 8 // last byte index with a full window behind it
		for k < len(col) {
			byteIdx := bitpos >> 3
			if byteIdx > safe {
				break
			}
			w := binary.LittleEndian.Uint64(bits[byteIdx:])
			col[k] = base + int64(w>>(bitpos&7)&mask)
			bitpos += width
			k++
		}
	}
	for ; k < len(col); k++ {
		var w uint64
		for j, byteIdx := 0, bitpos>>3; j < 8 && byteIdx+j < len(bits); j++ {
			w |= uint64(bits[byteIdx+j]) << (8 * j)
		}
		col[k] = base + int64(w>>(bitpos&7)&mask)
		bitpos += width
	}
	return nil
}

// WriteColumnar writes the trace in the columnar block format.
func (t *Trace) WriteColumnar(w io.Writer) error {
	cw, err := NewColumnarWriter(w, t.Procs)
	if err != nil {
		return err
	}
	if err := cw.Write(t.Events); err != nil {
		return err
	}
	return cw.Flush()
}

// ReadColumnar parses a trace in the columnar format. It is the
// whole-trace form of NewColumnarReader.
func ReadColumnar(r io.Reader) (*Trace, error) {
	cr, err := NewColumnarReader(r)
	if err != nil {
		return nil, err
	}
	return ReadAll(cr)
}
