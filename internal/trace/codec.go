package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"iter"
	"slices"
)

// Text codec
//
// The text format is line oriented and human inspectable:
//
//	# perturb-trace v1 procs=8
//	<time> p<proc> s<stmt> <kind> i<iter> v<var>
//
// Lines beginning with '#' after the header are comments and are ignored.

const textMagic = "# perturb-trace v1"

// WriteText writes the trace in the text format.
func (t *Trace) WriteText(w io.Writer) error {
	tw, err := NewTextWriter(w, t.Procs)
	if err != nil {
		return err
	}
	if err := tw.Write(t.Events); err != nil {
		return err
	}
	return tw.Flush()
}

// ReadText parses a trace in the text format. It is the whole-trace form
// of NewTextReader.
func ReadText(r io.Reader) (*Trace, error) {
	tr, err := NewTextReader(r)
	if err != nil {
		return nil, err
	}
	return ReadAll(tr)
}

// Binary codec
//
// The binary format is a compact little-endian encoding:
//
//	magic   [8]byte  "PTRACE1\x00"
//	procs   uint32
//	count   uint64
//	events  count * { time int64; stmt int32; proc int32; kind uint8;
//	                  iter int32; var int32 }
//
// A count of 2^64-1 marks a stream of unknown length (see
// NewBinaryWriter): events follow until EOF.

var binMagic = [8]byte{'P', 'T', 'R', 'A', 'C', 'E', '1', 0}

// eventSize is the encoded size of one binary event record.
const eventSize = 25

// binaryHeader returns a 64 KB encoding buffer holding the binary
// header.
func binaryHeader(procs int, count uint64) []byte {
	buf := append(make([]byte, 0, 1<<16), binMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(procs))
	return binary.LittleEndian.AppendUint64(buf, count)
}

func encodeEvent(buf []byte, e *Event) {
	binary.LittleEndian.PutUint64(buf[0:], uint64(e.Time))
	binary.LittleEndian.PutUint32(buf[8:], uint32(int32(e.Stmt)))
	binary.LittleEndian.PutUint32(buf[12:], uint32(int32(e.Proc)))
	buf[16] = byte(e.Kind)
	binary.LittleEndian.PutUint32(buf[17:], uint32(int32(e.Iter)))
	binary.LittleEndian.PutUint32(buf[21:], uint32(int32(e.Var)))
}

func decodeEvent(buf []byte) Event {
	return Event{
		Time: Time(int64(binary.LittleEndian.Uint64(buf[0:]))),
		Stmt: int(int32(binary.LittleEndian.Uint32(buf[8:]))),
		Proc: int(int32(binary.LittleEndian.Uint32(buf[12:]))),
		Kind: Kind(buf[16]),
		Iter: int(int32(binary.LittleEndian.Uint32(buf[17:]))),
		Var:  int(int32(binary.LittleEndian.Uint32(buf[21:]))),
	}
}

func le32(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }
func le64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// WriteBinary writes the trace in the binary format with an exact event
// count in the header: WriteBinarySeq over the trace's own events.
func (t *Trace) WriteBinary(w io.Writer) error {
	return WriteBinarySeq(w, t.Procs, len(t.Events), slices.Values(t.Events))
}

// WriteBinarySeq writes a trace of procs processors in the binary format:
// n as the header's event count, then one record per event events
// yields, so a trace held in another order or form is encoded without
// being collected first. It fails when events yields other than n
// events.
func WriteBinarySeq(w io.Writer, procs, n int, events iter.Seq[Event]) error {
	buf, got, err := appendRecords(w, binaryHeader(procs, uint64(n)), events)
	if err != nil {
		return err
	}
	if got != n {
		return fmt.Errorf("trace: binary header counts %d events, the sequence yielded %d", n, got)
	}
	return writeBuffered(w, buf)
}

// appendRecords is the binary codec's one encoding loop: it appends each
// event of events to buf as one record, writing buf to w and starting
// over whenever it is full, and returns the bytes left unwritten and how
// many events it encoded.
func appendRecords(w io.Writer, buf []byte, events iter.Seq[Event]) ([]byte, int, error) {
	n := 0
	for e := range events {
		if len(buf) > cap(buf)-eventSize {
			if err := writeBuffered(w, buf); err != nil {
				return buf, n, err
			}
			buf = buf[:0]
		}
		k := len(buf)
		buf = buf[:k+eventSize]
		encodeEvent(buf[k:], &e)
		n++
	}
	return buf, n, nil
}

// writeBuffered writes what an encoding buffer holds, if anything: an
// empty write would block on a pipe until the reader takes it.
func writeBuffered(w io.Writer, buf []byte) error {
	if len(buf) == 0 {
		return nil
	}
	_, err := w.Write(buf)
	return err
}

// ReadBinary parses a trace in the binary format. It is the whole-trace
// form of NewBinaryReader.
func ReadBinary(r io.Reader) (*Trace, error) {
	br, err := NewBinaryReader(r)
	if err != nil {
		return nil, err
	}
	return ReadAll(br)
}
