package tracefile

import (
	"bytes"
	"io"
	"testing"

	"rfpsim/internal/isa"
)

// FuzzTracefileDecode feeds arbitrary bytes to the trace reader: it must
// reject or decode them without panicking, and never loop forever.
func FuzzTracefileDecode(f *testing.F) {
	// Seed with a valid one-record trace and a few corruptions.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	op := isa.MicroOp{PC: 0x40, Class: isa.OpLoad, Dst: 1, Src1: 2, Src2: isa.NoReg, Addr: 0x8000, Size: 8}
	w.Write(&op)
	w.Flush()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte("RFPT"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data), "fuzz")
		if err != nil {
			return // rejected: fine
		}
		var op isa.MicroOp
		for i := 0; i < 1000 && r.Next(&op); i++ {
			if !op.Dst.Valid() && op.Dst != isa.NoReg {
				// Arbitrary bytes may decode to out-of-range registers;
				// the reader's contract is only lossless round-tripping
				// of valid traces, so this is acceptable — the simulator
				// validates uops separately. Nothing to assert here.
				_ = op
			}
		}
	})
}

// FuzzRoundTrip checks that any single uop encodes and decodes losslessly.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(0x40), uint8(6), uint8(1), uint8(2), uint8(255), uint64(0x8000), uint8(8), uint64(42), true, uint64(0))
	f.Fuzz(func(t *testing.T, pc uint64, class, dst, s1, s2 uint8, addr uint64, size uint8, value uint64, taken bool, target uint64) {
		in := isa.MicroOp{
			PC: pc, Class: isa.OpClass(class % uint8(isa.NumOpClasses)),
			Dst: isa.RegID(dst), Src1: isa.RegID(s1), Src2: isa.RegID(s2),
			Addr: addr, Size: size, Value: value, Taken: taken, Target: target,
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Write(&in); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(&buf, "fuzz")
		if err != nil {
			t.Fatal(err)
		}
		var out isa.MicroOp
		if !r.Next(&out) {
			t.Fatalf("decode failed: %v", r.Err())
		}
		in.Seq = 0
		if out != in {
			t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, out)
		}
	})
}

// FuzzDecodeMatchesReference runs Reader and the reference decoder
// (refReader) over the same bytes, from a *bytes.Reader and from a
// bytes.Buffer that cannot rewind. Both must give the same NewReader
// error, the same uops and the same Err.
func FuzzDecodeMatchesReference(f *testing.F) {
	valid, _ := encodeWorkload(f, "spec06_mcf", 64)
	f.Add(valid)
	for n := 0; n < 200 && n < len(valid); n++ {
		f.Add(valid[:n])
	}
	header := valid[:16]
	record := []byte{byte(isa.OpALU), 1, 2, 3, 0, 0}
	// An 11-byte uvarint: ten continuation bytes, then a terminator.
	long := append(append(append([]byte{}, header...), record...), bytes.Repeat([]byte{0x80}, 10)...)
	f.Add(append(long, 0))
	// A 10th uvarint byte above 1 overflows 64 bits.
	f.Add(append(append(append(append([]byte{}, header...), record...), bytes.Repeat([]byte{0xff}, 9)...), 2))

	f.Fuzz(func(t *testing.T, data []byte) {
		for name, open := range map[string]func() io.Reader{
			"bytes.Reader": func() io.Reader { return bytes.NewReader(data) },
			"bytes.Buffer": func() io.Reader { return bytes.NewBuffer(data) },
		} {
			matchReference(t, name, open)
		}
	})
}

// matchReference decodes the stream open returns with Reader and with the
// reference decoder and fails t where the two differ.
func matchReference(t *testing.T, name string, open func() io.Reader) {
	t.Helper()
	got, gotErr := NewReader(open(), "x")
	want, wantErr := newRefReader(open(), "x")
	if errString(gotErr) != errString(wantErr) {
		t.Fatalf("%s: NewReader error %q, reference %q", name, errString(gotErr), errString(wantErr))
	}
	if wantErr != nil {
		return
	}
	var g, w isa.MicroOp
	for i := 0; ; i++ {
		gok, wok := got.Next(&g), want.Next(&w)
		if gok != wok {
			t.Fatalf("%s: uop %d: Next = %v, reference %v (Err %q, reference %q)",
				name, i, gok, wok, errString(got.Err()), errString(want.Err()))
		}
		if !wok {
			break
		}
		if g != w {
			t.Fatalf("%s: uop %d is %+v, reference %+v", name, i, g, w)
		}
	}
	if errString(got.Err()) != errString(want.Err()) {
		t.Fatalf("%s: Err %q, reference %q", name, errString(got.Err()), errString(want.Err()))
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
