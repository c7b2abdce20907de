package tracefile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"rfpsim/internal/isa"
)

// refReader is the reference decoder the windowed Reader must match: it
// reads the fixed fields with io.ReadFull and each delta with
// binary.ReadUvarint, one interface call per byte. Its NewReader errors,
// its uop sequence and its Err are the contract FuzzDecodeMatchesReference
// holds Reader to.
type refReader struct {
	r    refByteReader
	name string
	seq  uint64
	err  error

	lastPC     uint64
	lastAddr   uint64
	lastValue  uint64
	lastTarget uint64
}

// refByteReader is what the reference decoder reads through: a buffered
// stream, or an in-memory trace read directly.
type refByteReader interface {
	io.Reader
	io.ByteReader
}

// newRefReader validates the header. A *bytes.Reader is decoded in
// place, without a buffering layer.
func newRefReader(r io.Reader, name string) (*refReader, error) {
	var br refByteReader
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
	return &refReader{r: br, name: name}, nil
}

// Err returns the first decode error encountered (io.EOF is not an error:
// it is the normal end of the trace).
func (t *refReader) Err() error {
	if t.err == io.EOF {
		return nil
	}
	return t.err
}

// Next decodes one record.
func (t *refReader) Next(op *isa.MicroOp) bool {
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
