// Package champsim ingests ChampSim instruction traces — the de-facto
// interchange format for cache/prefetcher research artifacts (SPEC CPU
// trace drops, the DPC/CRC championship suites) — and converts them into
// the simulator's micro-op stream so externally captured workloads flow
// through the same runner, service and sweep paths as the synthetic
// catalog (cmd/tracegen -from-champsim writes the converted .rfpt file).
//
// A ChampSim trace is a flat array of 64-byte little-endian records, one
// per retired instruction:
//
//	u64 ip | u8 is_branch | u8 branch_taken |
//	u8 destination_registers[2] | u8 source_registers[4] |
//	u64 destination_memory[2]   | u64 source_memory[4]
//
// Register number 0 and memory address 0 mean "slot unused". Traces are
// conventionally xz- or gzip-compressed; OpenFile sniffs the compression
// magic (gzip decodes in-process, xz through the external xz tool).
//
// # Conversion and its lossiness
//
// ChampSim records carry no opcode, data values, access sizes or
// explicit targets, so the mapping onto isa.MicroOp is lossy in
// documented, deterministic ways (docs/traces.md tabulates them):
//
//   - Each instruction cracks into uops in this order: one OpLoad per
//     used source_memory slot, then one OpBranch (branch instructions)
//     or one OpALU (instructions with a register destination and no
//     load), then one OpStore per used destination_memory slot.
//     Instructions with no registers, memory or branch bit become OpNop.
//   - Load-op instructions collapse into a single OpLoad writing the
//     architectural destination; only the first load of an instruction
//     gets the destination, further loads write the scratch register.
//   - There are no opcode classes: OpMul/OpDiv/OpFP/OpFMA never occur,
//     so execution-latency mix is flattened to single-cycle ALU ops.
//   - Register IDs are x86/Pin numbers (up to 255); they are folded onto
//     the 32 integer architectural registers as (id-1) mod 32. FP/vector
//     registers are not distinguished — FP register-file pressure and FP
//     latencies are lost.
//   - Data values are absent: every Value is 0, so value-predictor (vp)
//     results on converted traces are meaningless and should stay off.
//   - Access sizes are absent: every memory uop reads/writes MemSize (8)
//     bytes.
//   - Branch targets are absent: a taken branch's Target is the next
//     record's ip (one-record lookahead); not-taken branches carry
//     Target 0.
//
// What survives exactly — the per-PC load/store/branch structure, the
// dynamic PC stream, virtual addresses and register dependencies — is
// what RFP, the L1 prefetcher zoo and the cache-level predictor key on,
// which is the point of ingesting these traces.
package champsim

import (
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"

	"rfpsim/internal/isa"
)

// Format geometry of one ChampSim trace record.
const (
	// RecordBytes is the fixed size of one instruction record.
	RecordBytes = 64
	// NumDst is the destination slot count (registers and memory).
	NumDst = 2
	// NumSrc is the source slot count (registers and memory).
	NumSrc = 4
	// MemSize is the access size assumed for every converted memory uop;
	// ChampSim records carry none.
	MemSize = 8
)

// ScratchReg receives the results of loads beyond the first of an
// instruction (ChampSim does not say which destination each load feeds).
const ScratchReg = isa.RegID(31)

// ErrTruncated reports a trace that ends mid-record — bytes were lost,
// as opposed to the clean end-of-stream on a record boundary.
var ErrTruncated = errors.New("champsim: trace truncated mid-record")

// Record is one decoded ChampSim instruction record.
type Record struct {
	// IP is the instruction pointer.
	IP uint64
	// IsBranch and Taken are the branch bit and its outcome.
	IsBranch, Taken bool
	// DstRegs and SrcRegs are x86/Pin register numbers; 0 = slot unused.
	DstRegs [NumDst]uint8
	SrcRegs [NumSrc]uint8
	// DstMem and SrcMem are store/load virtual addresses; 0 = slot unused.
	DstMem [NumDst]uint64
	SrcMem [NumSrc]uint64
}

// DecodeRecord parses one 64-byte record (b must hold RecordBytes).
func DecodeRecord(b []byte, rec *Record) {
	rec.IP = binary.LittleEndian.Uint64(b[0:])
	rec.IsBranch = b[8] != 0
	rec.Taken = b[9] != 0
	copy(rec.DstRegs[:], b[10:12])
	copy(rec.SrcRegs[:], b[12:16])
	for i := 0; i < NumDst; i++ {
		rec.DstMem[i] = binary.LittleEndian.Uint64(b[16+8*i:])
	}
	for i := 0; i < NumSrc; i++ {
		rec.SrcMem[i] = binary.LittleEndian.Uint64(b[32+8*i:])
	}
}

// EncodeRecord writes rec as one 64-byte record (b must hold
// RecordBytes). It is the exact inverse of DecodeRecord, used by tests
// and fixture generators.
func EncodeRecord(rec *Record, b []byte) {
	for i := range b[:RecordBytes] {
		b[i] = 0
	}
	binary.LittleEndian.PutUint64(b[0:], rec.IP)
	if rec.IsBranch {
		b[8] = 1
	}
	if rec.Taken {
		b[9] = 1
	}
	copy(b[10:12], rec.DstRegs[:])
	copy(b[12:16], rec.SrcRegs[:])
	for i := 0; i < NumDst; i++ {
		binary.LittleEndian.PutUint64(b[16+8*i:], rec.DstMem[i])
	}
	for i := 0; i < NumSrc; i++ {
		binary.LittleEndian.PutUint64(b[32+8*i:], rec.SrcMem[i])
	}
}

// Decoder reads ChampSim records from an (already decompressed) stream.
type Decoder struct {
	r     io.Reader
	buf   [RecordBytes]byte
	count uint64
	err   error
}

// NewDecoder wraps r, which must yield raw (decompressed) record bytes.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: r} }

// Next decodes the next record. It returns false at end of stream or on
// error; Err distinguishes the two.
func (d *Decoder) Next(rec *Record) bool {
	if d.err != nil {
		return false
	}
	if _, err := io.ReadFull(d.r, d.buf[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("%w (after %d records)", ErrTruncated, d.count)
		}
		d.err = err
		return false
	}
	DecodeRecord(d.buf[:], rec)
	d.count++
	return true
}

// Err returns the first decode error (nil on a clean end of stream).
func (d *Decoder) Err() error {
	if d.err == io.EOF {
		return nil
	}
	return d.err
}

// Records returns the number of records decoded so far.
func (d *Decoder) Records() uint64 { return d.count }

// Converter cracks decoded records into micro-ops; it implements
// isa.Generator, so a ChampSim trace can drive a core directly or be
// re-encoded as .rfpt through tracefile.Writer.
type Converter struct {
	dec  *Decoder
	name string

	cur  Record
	have bool

	pending      [1 + NumDst + NumSrc]isa.MicroOp
	npend, ipend int

	seq     uint64
	records uint64
}

// NewConverter wraps dec as a generator named name.
func NewConverter(dec *Decoder, name string) *Converter {
	return &Converter{dec: dec, name: name}
}

// Name implements isa.Generator.
func (c *Converter) Name() string { return c.name }

// Err surfaces the decoder's error (nil on a clean end of stream).
func (c *Converter) Err() error { return c.dec.Err() }

// Records returns the number of instructions converted so far.
func (c *Converter) Records() uint64 { return c.records }

// Uops returns the number of micro-ops emitted so far.
func (c *Converter) Uops() uint64 { return c.seq }

// Next implements isa.Generator.
func (c *Converter) Next(op *isa.MicroOp) bool {
	for c.ipend >= c.npend {
		if !c.advance() {
			return false
		}
	}
	*op = c.pending[c.ipend]
	c.ipend++
	op.Seq = c.seq
	c.seq++
	return true
}

// advance cracks the next record into the pending buffer, keeping one
// record of lookahead so a taken branch's target can be the next ip.
func (c *Converter) advance() bool {
	if !c.have {
		if !c.dec.Next(&c.cur) {
			return false
		}
		c.have = true
	}
	var next Record
	nextIP := uint64(0)
	hasNext := c.dec.Next(&next)
	if hasNext {
		nextIP = next.IP
	}
	c.crack(&c.cur, nextIP)
	c.records++
	c.cur = next
	c.have = hasNext
	return true
}

// mapReg folds an x86/Pin register number onto the integer architectural
// registers; 0 means "slot unused".
func mapReg(id uint8) isa.RegID {
	if id == 0 {
		return isa.NoReg
	}
	return isa.RegID((id - 1) % isa.NumIntRegs)
}

// crack appends rec's micro-ops to the pending buffer (see the package
// comment for the mapping and its lossiness).
func (c *Converter) crack(rec *Record, nextIP uint64) {
	c.npend, c.ipend = 0, 0
	emit := func(op isa.MicroOp) {
		op.PC = rec.IP
		c.pending[c.npend] = op
		c.npend++
	}
	dst := isa.NoReg
	for _, id := range rec.DstRegs {
		if r := mapReg(id); r != isa.NoReg {
			dst = r
			break
		}
	}
	src1, src2 := isa.NoReg, isa.NoReg
	for _, id := range rec.SrcRegs {
		r := mapReg(id)
		if r == isa.NoReg {
			continue
		}
		if src1 == isa.NoReg {
			src1 = r
		} else if src2 == isa.NoReg {
			src2 = r
			break
		}
	}

	loads := 0
	for _, a := range rec.SrcMem {
		if a == 0 {
			continue
		}
		ld := isa.MicroOp{Class: isa.OpLoad, Addr: a, Size: MemSize, Src1: src1, Src2: isa.NoReg, Dst: ScratchReg}
		if loads == 0 && dst != isa.NoReg {
			ld.Dst = dst
		}
		emit(ld)
		loads++
	}
	switch {
	case rec.IsBranch:
		br := isa.MicroOp{Class: isa.OpBranch, Src1: src1, Src2: src2, Dst: isa.NoReg, Taken: rec.Taken}
		if rec.Taken {
			br.Target = nextIP
		}
		emit(br)
	case loads == 0 && dst != isa.NoReg:
		emit(isa.MicroOp{Class: isa.OpALU, Dst: dst, Src1: src1, Src2: src2})
	}
	for _, a := range rec.DstMem {
		if a == 0 {
			continue
		}
		data := src2
		if data == isa.NoReg {
			data = src1
		}
		emit(isa.MicroOp{Class: isa.OpStore, Addr: a, Size: MemSize, Src1: src1, Src2: data, Dst: isa.NoReg})
	}
	if c.npend == 0 {
		emit(isa.MicroOp{Class: isa.OpNop, Dst: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg})
	}
}

// Compression magics OpenFile sniffs.
var (
	gzipMagic = []byte{0x1f, 0x8b}
	xzMagic   = []byte{0xfd, '7', 'z', 'X', 'Z', 0x00}
)

// OpenFile opens a ChampSim trace file and returns a reader over its raw
// record bytes, sniffing the compression by magic: gzip decodes
// in-process; xz (the conventional distribution format) is decompressed
// through the external xz tool, with a clear error when the tool is not
// on PATH (the module deliberately has no third-party xz decoder).
// Anything else is read as uncompressed records.
func OpenFile(path string) (io.ReadCloser, error) {
	return OpenFileContext(context.Background(), path)
}

// OpenFileContext is OpenFile bound to a context. Cancelling ctx kills an
// xz decompressor: later reads fail with ctx's error instead of ending the
// stream early, and Close reaps the process.
func OpenFileContext(ctx context.Context, path string) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	magic := make([]byte, len(xzMagic))
	n, err := io.ReadFull(f, magic)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		f.Close()
		return nil, err
	}
	magic = magic[:n]
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	switch {
	case hasPrefix(magic, xzMagic):
		f.Close()
		return openXZ(ctx, path)
	case hasPrefix(magic, gzipMagic):
		zr, err := gzip.NewReader(f)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("champsim: %s: %w", path, err)
		}
		return &gzipFile{zr: zr, f: f}, nil
	default:
		return f, nil
	}
}

func hasPrefix(b, prefix []byte) bool {
	if len(b) < len(prefix) {
		return false
	}
	for i := range prefix {
		if b[i] != prefix[i] {
			return false
		}
	}
	return true
}

// gzipFile closes both the decompressor and the underlying file.
type gzipFile struct {
	zr *gzip.Reader
	f  *os.File
}

// Read implements io.Reader over the decompressed stream.
func (g *gzipFile) Read(p []byte) (int, error) { return g.zr.Read(p) }

// Close implements io.Closer.
func (g *gzipFile) Close() error {
	err := g.zr.Close()
	if cerr := g.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// openXZ streams `xz -dc path` — the Go standard library has no xz
// decoder and the module takes no third-party dependencies, so the tool
// is required for xz-compressed traces. The process runs under ctx, so a
// cancellation kills it.
func openXZ(ctx context.Context, path string) (io.ReadCloser, error) {
	xz, err := exec.LookPath("xz")
	if err != nil {
		return nil, fmt.Errorf("champsim: %s is xz-compressed but no xz tool is on PATH; install xz-utils or decompress the trace first", path)
	}
	cmd := exec.CommandContext(ctx, xz, "-dc", path)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &xzPipe{ctx: ctx, cmd: cmd, out: out}, nil
}

// xzPipe reaps the xz subprocess on Close.
type xzPipe struct {
	ctx context.Context
	cmd *exec.Cmd
	out io.ReadCloser
	eof bool // the decompressed stream was read to its end
}

// Read implements io.Reader over the decompressed stream. Once ctx is
// cancelled the stream is cut short wherever xz died, so Read reports
// ctx's error rather than a clean end of stream.
func (p *xzPipe) Read(b []byte) (int, error) {
	if err := p.ctx.Err(); err != nil {
		return 0, fmt.Errorf("champsim: xz decompression: %w", err)
	}
	n, err := p.out.Read(b)
	if err == io.EOF {
		if cerr := p.ctx.Err(); cerr != nil {
			return n, fmt.Errorf("champsim: xz decompression: %w", cerr)
		}
		p.eof = true
	}
	return n, err
}

// Close implements io.Closer. After a read to EOF it reports xz's exit
// status, so a corrupt or truncated file is an error. A caller that stops
// early does not want the rest of the stream: xz is killed and reaped,
// and the signal it dies of is not an error.
func (p *xzPipe) Close() error {
	if !p.eof {
		p.cmd.Process.Kill()
		p.out.Close()
		p.cmd.Wait()
		return nil
	}
	p.out.Close()
	return p.cmd.Wait()
}
