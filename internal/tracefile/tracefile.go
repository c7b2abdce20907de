// Package tracefile defines a compact binary trace format so the simulator
// can consume externally produced micro-op traces (e.g. from a Pin/DynamoRIO
// tool or another simulator) instead of the built-in synthetic suite — the
// main adoption path for anyone wanting to evaluate RFP on their own
// workloads.
//
// Format (little-endian):
//
//	header:  magic "RFPT" | u16 version | u16 flags | u64 uop count (0 = unknown)
//	record:  u8 class | u8 dst | u8 src1 | u8 src2 | u8 size | u8 flags |
//	         uvarint pc | uvarint addr | uvarint value | uvarint target
//
// PCs, addresses, values and targets are delta-encoded against the previous
// record of the same kind (zig-zag varints), which compresses typical traces
// by 4-6x versus fixed-width records. Branch direction lives in record flag
// bit 0.
package tracefile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"rfpsim/internal/isa"
)

// Magic identifies a trace file.
var Magic = [4]byte{'R', 'F', 'P', 'T'}

// Version is the current format version.
const Version = 1

// record flag bits.
const (
	flagTaken = 1 << 0
)

// ErrBadMagic reports a file that is not a trace.
var ErrBadMagic = errors.New("tracefile: bad magic")

// ErrBadVersion reports an unsupported format version.
var ErrBadVersion = errors.New("tracefile: unsupported version")

// Writer streams micro-ops to a trace file.
type Writer struct {
	w     *bufio.Writer
	count uint64

	lastPC     uint64
	lastAddr   uint64
	lastValue  uint64
	lastTarget uint64

	headerDone bool
	buf        [binary.MaxVarintLen64]byte
}

// NewWriter wraps w. The header is emitted lazily on the first record; the
// uop count in the header is written as 0 (unknown) because the writer
// cannot seek.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

func (t *Writer) header() error {
	if t.headerDone {
		return nil
	}
	t.headerDone = true
	if _, err := t.w.Write(Magic[:]); err != nil {
		return err
	}
	var h [12]byte
	binary.LittleEndian.PutUint16(h[0:], Version)
	binary.LittleEndian.PutUint16(h[2:], 0)
	binary.LittleEndian.PutUint64(h[4:], 0) // unknown count
	_, err := t.w.Write(h[:])
	return err
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }
func unzig(v uint64) int64  { return int64(v>>1) ^ -int64(v&1) }
func delta(prev, cur uint64) uint64 {
	return zigzag(int64(cur) - int64(prev))
}

func (t *Writer) varint(v uint64) error {
	n := binary.PutUvarint(t.buf[:], v)
	_, err := t.w.Write(t.buf[:n])
	return err
}

// Write appends one micro-op.
func (t *Writer) Write(op *isa.MicroOp) error {
	if err := t.header(); err != nil {
		return err
	}
	var flags byte
	if op.Taken {
		flags |= flagTaken
	}
	fixed := [6]byte{byte(op.Class), byte(op.Dst), byte(op.Src1), byte(op.Src2), op.Size, flags}
	if _, err := t.w.Write(fixed[:]); err != nil {
		return err
	}
	for _, f := range [4]struct {
		prev *uint64
		cur  uint64
	}{
		{&t.lastPC, op.PC},
		{&t.lastAddr, op.Addr},
		{&t.lastValue, op.Value},
		{&t.lastTarget, op.Target},
	} {
		if err := t.varint(delta(*f.prev, f.cur)); err != nil {
			return err
		}
		*f.prev = f.cur
	}
	t.count++
	return nil
}

// Count returns the number of records written so far.
func (t *Writer) Count() uint64 { return t.count }

// Flush writes buffered data through to the underlying writer.
func (t *Writer) Flush() error {
	if err := t.header(); err != nil { // an empty trace still gets a header
		return err
	}
	return t.w.Flush()
}

// Reader decodes a trace file and implements isa.Generator.
type Reader struct {
	r    byteReader
	name string
	seq  uint64
	err  error

	lastPC     uint64
	lastAddr   uint64
	lastValue  uint64
	lastTarget uint64
}

// byteReader is what the decoder reads through: a buffered stream, or an
// in-memory trace read directly.
type byteReader interface {
	io.Reader
	io.ByteReader
}

// NewReader validates the header and returns a generator named name. A
// *bytes.Reader is decoded in place, without a buffering layer, which
// makes the Reader cloneable (see Clone).
func NewReader(r io.Reader, name string) (*Reader, error) {
	var br byteReader
	if b, ok := r.(*bytes.Reader); ok {
		br = b
	} else {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("tracefile: reading magic: %w", err)
	}
	if magic != Magic {
		return nil, ErrBadMagic
	}
	var h [12]byte
	if _, err := io.ReadFull(br, h[:]); err != nil {
		return nil, fmt.Errorf("tracefile: reading header: %w", err)
	}
	if v := binary.LittleEndian.Uint16(h[0:]); v != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	return &Reader{r: br, name: name}, nil
}

// Factory validates the header of an in-memory trace once and returns a
// re-instantiable generator factory over it: every call re-decodes raw
// from the start, so each generator replays the identical stream, and
// each decodes raw in place and so is an isa.Cloner. This is the uop
// source a trace-sourced runner.Job carries as NewGen; sampled replay
// needs both properties (one generator to profile, one to fast-forward
// and fork). raw must not be modified afterwards.
func Factory(raw []byte, name string) (func() isa.Generator, error) {
	if _, err := NewReader(bytes.NewReader(raw), name); err != nil {
		return nil, err
	}
	return func() isa.Generator {
		r, err := NewReader(bytes.NewReader(raw), name)
		if err != nil {
			// The header was validated above and raw is immutable.
			panic("tracefile: validated trace failed to reopen: " + err.Error())
		}
		return r
	}, nil
}

// Name implements isa.Generator.
func (t *Reader) Name() string { return t.name }

// Clone implements isa.Cloner. A Reader over a *bytes.Reader clones by
// copying the read position and the delta-decoding state; the trace bytes
// themselves are immutable and shared. A Reader over any other stream
// cannot rewind and returns nil.
func (t *Reader) Clone() isa.Generator {
	b, ok := t.r.(*bytes.Reader)
	if !ok {
		return nil
	}
	pos := *b
	c := *t
	c.r = &pos
	return &c
}

// Err returns the first decode error encountered (io.EOF is not an error:
// it is the normal end of the trace).
func (t *Reader) Err() error {
	if t.err == io.EOF {
		return nil
	}
	return t.err
}

// Next implements isa.Generator.
func (t *Reader) Next(op *isa.MicroOp) bool {
	if t.err != nil {
		return false
	}
	var fixed [6]byte
	if _, err := io.ReadFull(t.r, fixed[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = io.ErrUnexpectedEOF // truncated mid-record: a real error
		}
		t.err = err
		return false
	}
	*op = isa.MicroOp{
		Class: isa.OpClass(fixed[0]),
		Dst:   isa.RegID(fixed[1]),
		Src1:  isa.RegID(fixed[2]),
		Src2:  isa.RegID(fixed[3]),
		Size:  fixed[4],
		Taken: fixed[5]&flagTaken != 0,
	}
	for _, f := range [4]struct {
		prev *uint64
		dst  *uint64
	}{
		{&t.lastPC, &op.PC},
		{&t.lastAddr, &op.Addr},
		{&t.lastValue, &op.Value},
		{&t.lastTarget, &op.Target},
	} {
		d, err := binary.ReadUvarint(t.r)
		if err != nil {
			t.err = fmt.Errorf("tracefile: truncated record: %w", err)
			return false
		}
		*f.prev = uint64(int64(*f.prev) + unzig(d))
		*f.dst = *f.prev
	}
	op.Seq = t.seq
	t.seq++
	return true
}
