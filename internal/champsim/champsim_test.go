package champsim_test

import (
	"bytes"
	"compress/gzip"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"rfpsim/internal/champsim"
	"rfpsim/internal/isa"
	"rfpsim/internal/tracefile"
)

var update = flag.Bool("update", false, "rewrite the committed ChampSim fixture")

// fixtureRecords is the deterministic synthetic instruction stream behind
// testdata/tiny.champsim.gz: a xorshift-driven mix of ALU ops, loads
// (including two-slot load records), stores, and taken/not-taken branches
// over a small strided address region. TestFixtureUpToDate pins the
// committed file to exactly this stream.
func fixtureRecords() []champsim.Record {
	const n = 6000
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	recs := make([]champsim.Record, 0, n)
	ip := uint64(0x400000)
	for i := 0; i < n; i++ {
		r := champsim.Record{IP: ip}
		ip += 4
		switch roll := next() % 100; {
		case roll < 18: // load (a few with two source-memory slots)
			r.DstRegs[0] = uint8(1 + next()%16)
			r.SrcRegs[0] = uint8(1 + next()%16)
			r.SrcMem[0] = 0x10000000 + (next()%4096)*8
			if roll < 3 {
				r.SrcMem[1] = 0x20000000 + (next()%512)*8
			}
		case roll < 30: // store
			r.SrcRegs[0] = uint8(1 + next()%16)
			r.SrcRegs[1] = uint8(1 + next()%16)
			r.DstMem[0] = 0x30000000 + (next()%2048)*8
		case roll < 45: // branch
			r.IsBranch = true
			r.Taken = next()%3 != 0
			r.SrcRegs[0] = uint8(1 + next()%16)
			if r.Taken {
				ip = 0x400000 + (next()%2048)*4
			}
		default: // alu
			r.DstRegs[0] = uint8(1 + next()%16)
			r.SrcRegs[0] = uint8(1 + next()%16)
			r.SrcRegs[1] = uint8(1 + next()%16)
		}
		recs = append(recs, r)
	}
	return recs
}

func encodeRecords(recs []champsim.Record) []byte {
	buf := make([]byte, 0, len(recs)*champsim.RecordBytes)
	var b [champsim.RecordBytes]byte
	for i := range recs {
		champsim.EncodeRecord(&recs[i], b[:])
		buf = append(buf, b[:]...)
	}
	return buf
}

func TestDecodeEncodeRoundTrip(t *testing.T) {
	recs := fixtureRecords()
	raw := encodeRecords(recs)
	dec := champsim.NewDecoder(bytes.NewReader(raw))
	var got champsim.Record
	for i := range recs {
		if !dec.Next(&got) {
			t.Fatalf("decoder ended at record %d of %d: %v", i, len(recs), dec.Err())
		}
		if got != recs[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got, recs[i])
		}
	}
	if dec.Next(&got) {
		t.Fatal("decoder yielded a record past the end")
	}
	if err := dec.Err(); err != nil {
		t.Fatalf("clean stream errored: %v", err)
	}
	if dec.Records() != uint64(len(recs)) {
		t.Fatalf("Records() = %d, want %d", dec.Records(), len(recs))
	}
}

// TestConverterMapping pins the record→uop cracking on hand-built
// instructions: ordering, register folding, scratch destinations, the
// load-op collapse, branch-target lookahead and the nop fallback.
func TestConverterMapping(t *testing.T) {
	recs := []champsim.Record{
		// load-op: one source-memory slot + a register destination
		{IP: 0x100, DstRegs: [2]uint8{3}, SrcRegs: [4]uint8{5}, SrcMem: [4]uint64{0x1000}},
		// two loads: first feeds the destination, second the scratch reg
		{IP: 0x104, DstRegs: [2]uint8{7}, SrcRegs: [4]uint8{5, 9}, SrcMem: [4]uint64{0x2000, 0x2008}},
		// taken branch: target is the NEXT record's ip
		{IP: 0x108, IsBranch: true, Taken: true, SrcRegs: [4]uint8{26}},
		// store with two register sources: src2 is the data register
		{IP: 0x200, SrcRegs: [4]uint8{5, 9}, DstMem: [2]uint64{0x3000}},
		// plain alu, register id 40 folds to (40-1)%32 = 7
		{IP: 0x204, DstRegs: [2]uint8{40}, SrcRegs: [4]uint8{33}},
		// nothing at all: a nop
		{IP: 0x208},
		// not-taken branch: no target
		{IP: 0x20c, IsBranch: true},
	}
	conv := champsim.NewConverter(champsim.NewDecoder(bytes.NewReader(encodeRecords(recs))), "t")
	want := []isa.MicroOp{
		{PC: 0x100, Class: isa.OpLoad, Dst: 2, Src1: 4, Src2: isa.NoReg, Addr: 0x1000, Size: 8},
		{PC: 0x104, Class: isa.OpLoad, Dst: 6, Src1: 4, Src2: isa.NoReg, Addr: 0x2000, Size: 8},
		{PC: 0x104, Class: isa.OpLoad, Dst: champsim.ScratchReg, Src1: 4, Src2: isa.NoReg, Addr: 0x2008, Size: 8},
		{PC: 0x108, Class: isa.OpBranch, Dst: isa.NoReg, Src1: 25, Src2: isa.NoReg, Taken: true, Target: 0x200},
		{PC: 0x200, Class: isa.OpStore, Dst: isa.NoReg, Src1: 4, Src2: 8, Addr: 0x3000, Size: 8},
		{PC: 0x204, Class: isa.OpALU, Dst: 7, Src1: 0, Src2: isa.NoReg},
		{PC: 0x208, Class: isa.OpNop, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg},
		{PC: 0x20c, Class: isa.OpBranch, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg},
	}
	var op isa.MicroOp
	for i, w := range want {
		if !conv.Next(&op) {
			t.Fatalf("converter ended at uop %d of %d: %v", i, len(want), conv.Err())
		}
		w.Seq = uint64(i)
		if op != w {
			t.Fatalf("uop %d:\n got %+v\nwant %+v", i, op, w)
		}
	}
	if conv.Next(&op) {
		t.Fatalf("unexpected extra uop %+v", op)
	}
	if err := conv.Err(); err != nil {
		t.Fatalf("converter errored: %v", err)
	}
	if conv.Records() != uint64(len(recs)) || conv.Uops() != uint64(len(want)) {
		t.Fatalf("counters: records %d uops %d, want %d/%d", conv.Records(), conv.Uops(), len(recs), len(want))
	}
}

func TestTruncatedTrace(t *testing.T) {
	raw := encodeRecords(fixtureRecords()[:3])
	dec := champsim.NewDecoder(bytes.NewReader(raw[:len(raw)-5]))
	var rec champsim.Record
	n := 0
	for dec.Next(&rec) {
		n++
	}
	if n != 2 {
		t.Fatalf("decoded %d records from a 2.9-record stream, want 2", n)
	}
	if err := dec.Err(); err == nil {
		t.Fatal("truncated stream reported no error")
	}
}

// TestRoundTripThroughTracefile is the converter↔tracefile property test:
// encoding the converted uop stream as .rfpt and decoding it back
// preserves the uop count, the PC stream and every memory-op address.
func TestRoundTripThroughTracefile(t *testing.T) {
	raw := encodeRecords(fixtureRecords())

	var direct []isa.MicroOp
	conv := champsim.NewConverter(champsim.NewDecoder(bytes.NewReader(raw)), "direct")
	var op isa.MicroOp
	for conv.Next(&op) {
		direct = append(direct, op)
	}
	if err := conv.Err(); err != nil {
		t.Fatalf("convert: %v", err)
	}

	var rfpt bytes.Buffer
	w := tracefile.NewWriter(&rfpt)
	conv = champsim.NewConverter(champsim.NewDecoder(bytes.NewReader(raw)), "encode")
	for conv.Next(&op) {
		if err := w.Write(&op); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	r, err := tracefile.NewReader(bytes.NewReader(rfpt.Bytes()), "decode")
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	for i := range direct {
		if !r.Next(&op) {
			t.Fatalf("rfpt stream ended at uop %d of %d: %v", i, len(direct), r.Err())
		}
		if op != direct[i] {
			t.Fatalf("uop %d:\n got %+v\nwant %+v", i, op, direct[i])
		}
		if (op.Class == isa.OpLoad || op.Class == isa.OpStore) && op.Addr == 0 {
			t.Fatalf("uop %d: memory op with zero address", i)
		}
	}
	if r.Next(&op) {
		t.Fatal("rfpt stream has extra uops")
	}
}

// TestFixtureUpToDate pins testdata/tiny.champsim.gz to fixtureRecords():
// the committed bytes must decode (through OpenFile's gzip sniffing) to
// exactly the generated stream. -update rewrites the fixture.
func TestFixtureUpToDate(t *testing.T) {
	path := filepath.Join("testdata", "tiny.champsim.gz")
	want := fixtureRecords()
	if *update {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(encodeRecords(want)); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := champsim.OpenFile(path)
	if err != nil {
		t.Fatalf("open fixture (regenerate with -update): %v", err)
	}
	defer f.Close()
	dec := champsim.NewDecoder(f)
	var rec champsim.Record
	for i := range want {
		if !dec.Next(&rec) {
			t.Fatalf("fixture ended at record %d of %d: %v", i, len(want), dec.Err())
		}
		if rec != want[i] {
			t.Fatalf("fixture record %d drifted (regenerate with -update):\n got %+v\nwant %+v", i, rec, want[i])
		}
	}
	if dec.Next(&rec) {
		t.Fatal("fixture has extra records (regenerate with -update)")
	}
}

func TestOpenFileSniffing(t *testing.T) {
	recs := fixtureRecords()[:16]
	raw := encodeRecords(recs)
	dir := t.TempDir()

	readAll := func(path string) []byte {
		t.Helper()
		f, err := champsim.OpenFile(path)
		if err != nil {
			t.Fatalf("open %s: %v", path, err)
		}
		defer f.Close()
		b, err := io.ReadAll(f)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return b
	}

	rawPath := filepath.Join(dir, "t.champsim")
	if err := os.WriteFile(rawPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := readAll(rawPath); !bytes.Equal(got, raw) {
		t.Fatal("raw file did not round-trip")
	}

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(raw)
	zw.Close()
	gzPath := filepath.Join(dir, "t.champsim.gz")
	if err := os.WriteFile(gzPath, gz.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := readAll(gzPath); !bytes.Equal(got, raw) {
		t.Fatal("gzip file did not round-trip")
	}

	if _, err := exec.LookPath("xz"); err != nil {
		t.Skip("xz tool not on PATH")
	}
	xzPath := filepath.Join(dir, "t.champsim.xz")
	cmd := exec.Command("xz", "-k", "-c", rawPath)
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("xz compress: %v", err)
	}
	if err := os.WriteFile(xzPath, out, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := readAll(xzPath); !bytes.Equal(got, raw) {
		t.Fatal("xz file did not round-trip")
	}
}

// TestOpenFileXZClose pins the xz pipe's Close contract: a caller that
// stops before EOF (tracegen -from-champsim -n) closes cleanly even though
// xz dies writing into the closed pipe, while a caller that reads to EOF
// still sees xz's exit status, so a corrupt file errors.
func TestOpenFileXZClose(t *testing.T) {
	if _, err := exec.LookPath("xz"); err != nil {
		t.Skip("xz tool not on PATH")
	}
	dir := t.TempDir()
	// 384 KB decompressed: far more than a pipe buffer, so xz is still
	// blocked writing when the early Close lands.
	raw := encodeRecords(fixtureRecords())
	cmd := exec.Command("xz", "-c")
	cmd.Stdin = bytes.NewReader(raw)
	packed, err := cmd.Output()
	if err != nil {
		t.Fatalf("xz compress: %v", err)
	}
	good := filepath.Join(dir, "good.champsim.xz")
	bad := filepath.Join(dir, "truncated.champsim.xz")
	if err := os.WriteFile(good, packed, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, packed[:len(packed)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	f, err := champsim.OpenFile(good)
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, champsim.RecordBytes)
	if _, err := io.ReadFull(f, rec); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Errorf("Close after one record = %v, want nil", err)
	}

	f, err = champsim.OpenFile(good)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Errorf("Close after a full read = %v, want nil", err)
	}
	if !bytes.Equal(got, raw) {
		t.Error("xz stream did not round-trip")
	}

	f, err = champsim.OpenFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, f)
	if err := f.Close(); err == nil {
		t.Error("Close after reading a truncated xz file = nil, want xz's exit error")
	}
}
