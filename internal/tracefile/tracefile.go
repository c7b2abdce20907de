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
//
// Neither direction allocates per record. Reader decodes each record in
// place from a 64 KiB window it refills from its source, whatever the
// source is, when less than one maximal record (46 bytes) is left in it.
// Writer appends each record whole into its buffer's free space and
// writes it once. A Reader over a *bytes.Reader, which is what Factory
// hands out, clones in O(1) (see Reader.Clone); docs/traces.md gives the
// codec's cost per uop.
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

// Write appends one micro-op. It appends the whole record to the
// buffer's free space and writes it once, flushing first if the space
// left could not hold a maximal record.
func (t *Writer) Write(op *isa.MicroOp) error {
	if err := t.header(); err != nil {
		return err
	}
	if t.w.Available() < maxRecord {
		if err := t.w.Flush(); err != nil {
			return err
		}
	}
	var flags byte
	if op.Taken {
		flags |= flagTaken
	}
	b := append(t.w.AvailableBuffer(), byte(op.Class), byte(op.Dst), byte(op.Src1), byte(op.Src2), op.Size, flags)
	b = binary.AppendUvarint(b, delta(t.lastPC, op.PC))
	b = binary.AppendUvarint(b, delta(t.lastAddr, op.Addr))
	b = binary.AppendUvarint(b, delta(t.lastValue, op.Value))
	b = binary.AppendUvarint(b, delta(t.lastTarget, op.Target))
	if _, err := t.w.Write(b); err != nil {
		return err
	}
	t.lastPC, t.lastAddr, t.lastValue, t.lastTarget = op.PC, op.Addr, op.Value, op.Target
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
//
// It decodes every record in place from a window of bytes read ahead from
// its source, whatever the source is, and refills the window only when
// less than one maximal record is left in it.
type Reader struct {
	src    io.Reader
	srcErr error  // the source's first error (io.EOF at its end); no Read follows it
	win    []byte // the window: win[:pos] is decoded, win[pos:] not yet
	pos    int
	// head is the window NewReader reads the header through: it reads no
	// byte past the header, and a Reader that never decodes a record (a
	// header check) allocates no window.
	head [16]byte

	name string
	seq  uint64
	err  error

	lastPC     uint64
	lastAddr   uint64
	lastValue  uint64
	lastTarget uint64
}

const (
	// windowSize is the capacity of a Reader's window.
	windowSize = 1 << 16
	// fixedLen is the length of a record's fixed fields.
	fixedLen = 6
	// maxRecord is the length of the longest record: the fixed fields and
	// four 10-byte uvarints.
	maxRecord = fixedLen + 4*binary.MaxVarintLen64
)

// errOverflow is the error binary.ReadUvarint reports for a uvarint that
// does not fit 64 bits.
var errOverflow = errors.New("binary: varint overflows a 64-bit integer")

// NewReader validates the header and returns a generator named name. A
// Reader over a *bytes.Reader is cloneable (see Clone).
func NewReader(r io.Reader, name string) (*Reader, error) {
	t := &Reader{src: r, name: name}
	t.win = t.head[:0]
	magic, err := t.take(len(Magic))
	if err != nil {
		return nil, fmt.Errorf("tracefile: reading magic: %w", err)
	}
	if [4]byte(magic) != Magic {
		return nil, ErrBadMagic
	}
	h, err := t.take(12)
	if err != nil {
		return nil, fmt.Errorf("tracefile: reading header: %w", err)
	}
	if v := binary.LittleEndian.Uint16(h[0:]); v != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	return t, nil
}

// fill slides the window's undecoded bytes to its front and reads from the
// source until at least n bytes are undecoded or the source fails. Like
// bufio.Reader, it gives up with io.ErrNoProgress after 100 empty reads.
// A window too small for n bytes (the header's, or a clone's nil one) is
// replaced by a full-size one.
func (t *Reader) fill(n int) {
	if cap(t.win) < n {
		t.win = append(make([]byte, 0, windowSize), t.win[t.pos:]...)
	} else {
		t.win = t.win[:copy(t.win[:cap(t.win)], t.win[t.pos:])]
	}
	t.pos = 0
	for empty := 0; len(t.win) < n && t.srcErr == nil; {
		k, err := t.src.Read(t.win[len(t.win):cap(t.win)])
		t.win = t.win[:len(t.win)+k]
		switch {
		case err != nil:
			t.srcErr = err
		case k > 0:
			empty = 0
		default:
			if empty++; empty == 100 {
				t.srcErr = io.ErrNoProgress
			}
		}
	}
}

// short is the error for a read that needed more bytes than are left and
// found got of them, as io.ReadFull and binary.ReadUvarint report it: the
// source's own error, except that an end of input after some of the bytes
// is io.ErrUnexpectedEOF.
func (t *Reader) short(got int) error {
	if got > 0 && t.srcErr == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return t.srcErr
}

// take consumes the next n bytes, or reports what io.ReadFull would.
func (t *Reader) take(n int) ([]byte, error) {
	if len(t.win)-t.pos < n {
		t.fill(n)
	}
	b := t.win[t.pos:]
	if len(b) < n {
		return nil, t.short(len(b))
	}
	t.pos += n
	return b[:n], nil
}

// uvarint decodes the uvarint at the start of b and returns it with its
// length. A length of 0 means b ends inside the uvarint; a negative one
// means it overflows 64 bits, which binary.ReadUvarint reports at the same
// byte.
func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if i == len(b) {
			return 0, 0
		}
		c := b[i]
		if c < 0x80 {
			if i == binary.MaxVarintLen64-1 && c > 1 {
				return 0, -1
			}
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, -1
}

// Factory validates the header of an in-memory trace once and returns a
// re-instantiable generator factory over it: every call re-decodes raw
// from the start, so each generator replays the identical stream, and
// each reads raw through a *bytes.Reader and so is an isa.Cloner. This
// is the uop source a trace-sourced runner.Job carries as NewGen; sampled
// replay needs both properties (one generator to profile, one to
// fast-forward and fork). raw must not be modified afterwards.
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
// copying the source's read position, moved back over the bytes this
// Reader holds in its window undecoded, and the delta-decoding state; the
// trace bytes themselves are immutable and shared, and the clone fills a
// window of its own on its first Next. A Reader over any other stream
// cannot rewind and returns nil.
func (t *Reader) Clone() isa.Generator {
	b, ok := t.src.(*bytes.Reader)
	if !ok {
		return nil
	}
	src := *b
	// The window's bytes were all read from src, so the position stays
	// non-negative and Seek cannot fail.
	_, _ = src.Seek(-int64(len(t.win)-t.pos), io.SeekCurrent)
	c := *t
	c.src, c.srcErr, c.win, c.pos = &src, nil, nil, 0
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
	if len(t.win)-t.pos < maxRecord && t.srcErr == nil {
		t.fill(maxRecord)
	}
	b := t.win[t.pos:]
	if len(b) < fixedLen {
		t.err = t.short(len(b)) // io.EOF on a record boundary: the clean end
		return false
	}
	var d [4]uint64
	n := fixedLen
	for i := range d {
		v, k := uvarint(b[n:])
		if k <= 0 {
			err := errOverflow
			if k == 0 {
				err = t.short(len(b) - n)
			}
			t.err = fmt.Errorf("tracefile: truncated record: %w", err)
			return false
		}
		d[i] = v
		n += k
	}
	t.pos += n
	t.lastPC += uint64(unzig(d[0]))
	t.lastAddr += uint64(unzig(d[1]))
	t.lastValue += uint64(unzig(d[2]))
	t.lastTarget += uint64(unzig(d[3]))
	*op = isa.MicroOp{
		Seq:    t.seq,
		PC:     t.lastPC,
		Class:  isa.OpClass(b[0]),
		Dst:    isa.RegID(b[1]),
		Src1:   isa.RegID(b[2]),
		Src2:   isa.RegID(b[3]),
		Addr:   t.lastAddr,
		Size:   b[4],
		Value:  t.lastValue,
		Taken:  b[5]&flagTaken != 0,
		Target: t.lastTarget,
	}
	t.seq++
	return true
}
