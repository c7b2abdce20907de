package tracefile

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/iotest"
	"testing/quick"

	"rfpsim/internal/isa"
	"rfpsim/internal/prng"
	"rfpsim/internal/trace"
)

func roundTrip(t *testing.T, ops []isa.MicroOp) []isa.MicroOp {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := range ops {
		if err := w.Write(&ops[i]); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf, "test")
	if err != nil {
		t.Fatal(err)
	}
	var out []isa.MicroOp
	var op isa.MicroOp
	for r.Next(&op) {
		out = append(out, op)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("reader error: %v", err)
	}
	return out
}

func TestRoundTripBasic(t *testing.T) {
	ops := []isa.MicroOp{
		{PC: 0x1000, Class: isa.OpLoad, Dst: 3, Src1: 1, Src2: isa.NoReg, Addr: 0x8000, Size: 8, Value: 42},
		{PC: 0x1004, Class: isa.OpALU, Dst: 4, Src1: 3, Src2: 2},
		{PC: 0x1008, Class: isa.OpStore, Dst: isa.NoReg, Src1: 1, Src2: 4, Addr: 0x9000, Size: 8},
		{PC: 0x100c, Class: isa.OpBranch, Dst: isa.NoReg, Src1: 4, Src2: isa.NoReg, Taken: true, Target: 0x1000},
	}
	got := roundTrip(t, ops)
	if len(got) != len(ops) {
		t.Fatalf("decoded %d of %d", len(got), len(ops))
	}
	for i := range ops {
		want := ops[i]
		want.Seq = uint64(i) // reader assigns sequence numbers
		if got[i] != want {
			t.Errorf("record %d:\n want %+v\n got  %+v", i, want, got[i])
		}
	}
}

func TestRoundTripSyntheticWorkload(t *testing.T) {
	// A real workload through the codec must survive bit-exactly, and the
	// reader must behave as a drop-in isa.Generator.
	spec, ok := trace.ByName("spec06_gcc")
	if !ok {
		t.Fatal("workload missing")
	}
	gen := spec.New()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var want []isa.MicroOp
	var op isa.MicroOp
	for i := 0; i < 20000; i++ {
		gen.Next(&op)
		want = append(want, op)
		if err := w.Write(&op); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 20000 {
		t.Errorf("count = %d", w.Count())
	}
	// Compression sanity: delta varints should be well under the 46-byte
	// fixed-width record.
	if perOp := float64(buf.Len()) / 20000; perOp > 25 {
		t.Errorf("encoded %.1f bytes/op, too large for a compact format", perOp)
	}

	r, err := NewReader(&buf, spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != spec.Name {
		t.Error("reader name mismatch")
	}
	for i := range want {
		if !r.Next(&op) {
			t.Fatalf("trace ended at %d: %v", i, r.Err())
		}
		if op != want[i] {
			t.Fatalf("record %d mismatch:\n want %+v\n got  %+v", i, want[i], op)
		}
	}
	if r.Next(&op) {
		t.Error("trace did not end")
	}
	if err := r.Err(); err != nil {
		t.Errorf("clean EOF reported as error: %v", err)
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf, "empty")
	if err != nil {
		t.Fatal(err)
	}
	var op isa.MicroOp
	if r.Next(&op) {
		t.Error("empty trace produced a record")
	}
	if err := r.Err(); err != nil {
		t.Errorf("empty trace EOF is an error: %v", err)
	}
}

func TestBadMagicRejected(t *testing.T) {
	_, err := NewReader(bytes.NewReader([]byte("NOPE0123456789ABCDEF")), "x")
	if !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestBadVersionRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(Magic[:])
	buf.Write([]byte{99, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	_, err := NewReader(&buf, "x")
	if !errors.Is(err, ErrBadVersion) {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
}

func TestTruncatedHeaderRejected(t *testing.T) {
	_, err := NewReader(bytes.NewReader(Magic[:]), "x")
	if err == nil {
		t.Error("truncated header accepted")
	}
}

func TestTruncatedRecordReported(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	op := isa.MicroOp{PC: 0x4000, Class: isa.OpLoad, Dst: 1, Src1: 2, Src2: isa.NoReg, Addr: 0xFFF0, Size: 8}
	if err := w.Write(&op); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	r, err := NewReader(bytes.NewReader(trunc), "x")
	if err != nil {
		t.Fatal(err)
	}
	var got isa.MicroOp
	if r.Next(&got) {
		t.Error("truncated record decoded")
	}
	if r.Err() == nil {
		t.Error("truncation not reported as an error")
	}
}

// Property: any sequence of micro-ops round-trips exactly (with Seq
// renumbered).
func TestRoundTripProperty(t *testing.T) {
	f := func(raw []struct {
		PC, Addr, Value, Target uint64
		Class, Dst, S1, S2, Sz  uint8
		Taken                   bool
	}) bool {
		ops := make([]isa.MicroOp, len(raw))
		for i, r := range raw {
			ops[i] = isa.MicroOp{
				PC:    r.PC,
				Class: isa.OpClass(r.Class % uint8(isa.NumOpClasses)),
				Dst:   isa.RegID(r.Dst), Src1: isa.RegID(r.S1), Src2: isa.RegID(r.S2),
				Addr: r.Addr, Size: r.Sz, Value: r.Value, Taken: r.Taken, Target: r.Target,
			}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for i := range ops {
			if w.Write(&ops[i]) != nil {
				return false
			}
		}
		if w.Flush() != nil {
			return false
		}
		r, err := NewReader(&buf, "prop")
		if err != nil {
			return false
		}
		var op isa.MicroOp
		for i := range ops {
			if !r.Next(&op) {
				return false
			}
			want := ops[i]
			want.Seq = uint64(i)
			if op != want {
				return false
			}
		}
		return !r.Next(&op) && r.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 127, -128, 1 << 40, -(1 << 40), -9e15} {
		if got := unzig(zigzag(v)); got != v {
			t.Errorf("zigzag(%d) round-trip = %d", v, got)
		}
	}
}

// The reader must be usable wherever an isa.Generator is expected.
var _ isa.Generator = (*Reader)(nil)

// The writer must accept any io.Writer.
var _ io.Writer = (*bytes.Buffer)(nil)

// failWriter errors after n bytes, exercising the writer's error paths.
type failWriter struct{ left int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.left <= 0 {
		return 0, io.ErrClosedPipe
	}
	n := len(p)
	if n > w.left {
		n = w.left
	}
	w.left -= n
	if n < len(p) {
		return n, io.ErrClosedPipe
	}
	return n, nil
}

func TestWriterErrorPropagation(t *testing.T) {
	op := isa.MicroOp{PC: 0x10, Class: isa.OpALU, Dst: 1, Src1: 2, Src2: isa.NoReg}
	// Fail during the header.
	w := NewWriter(&failWriter{left: 2})
	if err := w.Write(&op); err == nil {
		if err := w.Flush(); err == nil {
			t.Error("header write error swallowed")
		}
	}
	// Fail mid-record: enough for the header, not the stream.
	w2 := NewWriter(&failWriter{left: 20})
	var err error
	for i := 0; i < 100000 && err == nil; i++ {
		err = w2.Write(&op)
		if err == nil {
			err = w2.Flush()
		}
	}
	if err == nil {
		t.Error("record write error never surfaced")
	}
}

func TestFlushOnEmptyWritesHeaderOnce(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 16 { // magic(4) + version(2) + flags(2) + count(8)
		t.Errorf("double flush wrote %d bytes, want one 16-byte header", buf.Len())
	}
}

func TestReaderNextAfterError(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	op := isa.MicroOp{PC: 0x4000, Class: isa.OpLoad, Dst: 1, Src1: 2, Src2: isa.NoReg, Addr: 0xF0, Size: 8}
	w.Write(&op)
	w.Flush()
	trunc := buf.Bytes()[:buf.Len()-1]
	r, err := NewReader(bytes.NewReader(trunc), "x")
	if err != nil {
		t.Fatal(err)
	}
	var got isa.MicroOp
	if r.Next(&got) {
		t.Fatal("truncated record decoded")
	}
	// A second Next must stay failed and not panic.
	if r.Next(&got) {
		t.Error("Next succeeded after an error")
	}
	if r.Err() == nil {
		t.Error("error lost")
	}
}

// TestReaderCloneProperty: a Reader over a *bytes.Reader, cloned at a
// random position, resumes the same stream, and drawing from the clone
// first leaves the original untouched. A Reader over any other stream
// cannot rewind and refuses to clone.
func TestReaderCloneProperty(t *testing.T) {
	spec, ok := trace.ByName("spec06_xalancbmk")
	if !ok {
		t.Fatal("catalog workload spec06_xalancbmk missing")
	}
	const total, n = 20000, 3000
	var buf bytes.Buffer
	w := NewWriter(&buf)
	g := spec.New()
	var op isa.MicroOp
	for i := 0; i < total; i++ {
		g.Next(&op)
		if err := w.Write(&op); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	rng := prng.New(0x7ACE)
	for trial := 0; trial < 20; trial++ {
		r, err := NewReader(bytes.NewReader(raw), "t")
		if err != nil {
			t.Fatal(err)
		}
		skip := rng.Intn(total - n)
		for i := 0; i < skip; i++ {
			r.Next(&op)
		}
		c := isa.Clone(r)
		if c == nil {
			t.Fatal("bytes-backed reader is not cloneable")
		}
		fromClone := make([]isa.MicroOp, n)
		for i := range fromClone {
			if !c.Next(&fromClone[i]) {
				t.Fatalf("clone ended after %d uops", i)
			}
		}
		for i := range fromClone {
			if !r.Next(&op) {
				t.Fatalf("original ended after %d uops", i)
			}
			if op != fromClone[i] {
				t.Fatalf("clone at uop %d diverges %d uops later:\nclone:    %v\noriginal: %v", skip, i, fromClone[i], op)
			}
		}
	}

	streamed, err := NewReader(bytes.NewBuffer(raw), "t")
	if err != nil {
		t.Fatal(err)
	}
	if c := streamed.Clone(); c != nil {
		t.Fatal("a reader over a non-rewindable stream cloned itself")
	}
}

// encodeWorkload writes the first n uops of a catalog workload as an
// in-memory trace and returns its bytes and the uops themselves.
func encodeWorkload(tb testing.TB, name string, n int) ([]byte, []isa.MicroOp) {
	tb.Helper()
	spec, ok := trace.ByName(name)
	if !ok {
		tb.Fatalf("catalog workload %s missing", name)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	g := spec.New()
	ops := make([]isa.MicroOp, n)
	for i := range ops {
		g.Next(&ops[i])
		if err := w.Write(&ops[i]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), ops
}

// TestFactoryReplaysIdenticalStreams: every generator a Factory returns
// replays the whole trace from its first uop, however far an earlier one
// was drawn, and carries the given name.
func TestFactoryReplaysIdenticalStreams(t *testing.T) {
	raw, want := encodeWorkload(t, "spec06_mcf", 5000)
	newGen, err := Factory(raw, "mcf.rfpt")
	if err != nil {
		t.Fatal(err)
	}
	first := newGen()
	var op isa.MicroOp
	for i := 0; i < 1234; i++ {
		first.Next(&op)
	}
	for call := 0; call < 2; call++ {
		g := newGen()
		if g.Name() != "mcf.rfpt" {
			t.Errorf("call %d: name %q, want mcf.rfpt", call, g.Name())
		}
		for i := range want {
			if !g.Next(&op) {
				t.Fatalf("call %d: stream ended after %d uops", call, i)
			}
			if op != want[i] {
				t.Fatalf("call %d: uop %d is %+v, want %+v", call, i, op, want[i])
			}
		}
		if g.Next(&op) {
			t.Fatalf("call %d: stream runs past the trace", call)
		}
	}
}

// TestFactoryGeneratorsClone: a generator from a Factory is an
// isa.Cloner, and a clone taken mid-stream continues exactly where the
// original does.
func TestFactoryGeneratorsClone(t *testing.T) {
	raw, want := encodeWorkload(t, "spec06_gcc", 5000)
	newGen, err := Factory(raw, "gcc")
	if err != nil {
		t.Fatal(err)
	}
	g := newGen()
	var op isa.MicroOp
	const at = 2000
	for i := 0; i < at; i++ {
		g.Next(&op)
	}
	c := isa.Clone(g)
	if c == nil {
		t.Fatal("a Factory generator is not cloneable")
	}
	var fromOrig isa.MicroOp
	for i := at; i < len(want); i++ {
		if !c.Next(&op) || !g.Next(&fromOrig) {
			t.Fatalf("stream ended at uop %d", i)
		}
		if op != want[i] || fromOrig != want[i] {
			t.Fatalf("uop %d: clone %+v, original %+v, want %+v", i, op, fromOrig, want[i])
		}
	}
}

// TestFactoryRejectsBadHeader: a malformed header fails when the factory
// is built, not later inside the closure.
func TestFactoryRejectsBadHeader(t *testing.T) {
	raw, _ := encodeWorkload(t, "spec06_mcf", 10)
	badVersion := append([]byte(nil), raw...)
	badVersion[len(Magic)] = 99
	for name, bad := range map[string][]byte{
		"magic":     []byte("NOPE0123456789ABCDEF"),
		"version":   badVersion,
		"truncated": Magic[:],
	} {
		newGen, err := Factory(bad, "x")
		if err == nil || newGen != nil {
			t.Errorf("%s: Factory returned (%v, %v), want an error and no factory", name, newGen != nil, err)
		}
	}
}

// TestWriterBytesPinned pins the encoder's bytes: the SHA-256 of the trace
// Writer makes from a catalog workload's first n uops, which is also the
// trace's content address. spark's 250K uops are the trace behind every
// trace-sourced request of rfpbench's service-mix. Decoding gives back
// the uops that were encoded.
func TestWriterBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		sha  string
	}{
		{"spark", 250000, "99f6c00a826f7c0841249a0a2836066d61268c3603e761112031359a8945293c"},
		{"spec06_mcf", 50000, "6f89969330284997ee709c8c1eda24b0ce3d611645ebe80a6c7893df4a4e17fc"},
		{"spec17_x264", 50000, "19035873cc812c737e0f0bccc0b5c65cc3fa5944cf47bd3b1276179f53520974"},
	} {
		raw, want := encodeWorkload(t, tc.name, tc.n)
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != tc.sha {
			t.Errorf("%s, %d uops: SHA-256 %s, want %s", tc.name, tc.n, got, tc.sha)
		}
		r, err := NewReader(bytes.NewReader(raw), tc.name)
		if err != nil {
			t.Fatal(err)
		}
		var op isa.MicroOp
		for i := range want {
			if !r.Next(&op) || op != want[i] {
				t.Fatalf("%s: uop %d decodes as %+v, want %+v (Err %v)", tc.name, i, op, want[i], r.Err())
			}
		}
		if r.Next(&op) || r.Err() != nil {
			t.Fatalf("%s: trace does not end cleanly after %d uops (Err %v)", tc.name, tc.n, r.Err())
		}
	}
}

// TestDecodeMatchesReferenceOnShortReads: over sources that return a few
// bytes per Read, and over sources that fail with their own error part
// way, Reader matches the reference decoder at every cut tried: in the
// header, in the first records, around a window refill and at the end.
func TestDecodeMatchesReferenceOnShortReads(t *testing.T) {
	raw, _ := encodeWorkload(t, "spec06_gcc", 5000)
	if len(raw) < windowSize+100 {
		t.Fatalf("trace of %d bytes does not span a window refill", len(raw))
	}
	boom := errors.New("source failed")
	var cuts []int
	for n := 0; n < 64; n++ {
		cuts = append(cuts, n, windowSize-32+n, len(raw)-n)
	}
	for _, cut := range cuts {
		for name, open := range map[string]func() io.Reader{
			"one byte per read": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(raw[:cut])) },
			"half per read":     func() io.Reader { return iotest.HalfReader(bytes.NewReader(raw[:cut])) },
			"EOF with data":     func() io.Reader { return iotest.DataErrReader(bytes.NewReader(raw[:cut])) },
			"failing source": func() io.Reader {
				return io.MultiReader(bytes.NewReader(raw[:cut]), iotest.ErrReader(boom))
			},
		} {
			matchReference(t, fmt.Sprintf("%s, cut at %d", name, cut), open)
		}
	}
}
