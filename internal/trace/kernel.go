// Package trace synthesizes the 65-workload suite of the paper's Table 3.
//
// The paper evaluates on proprietary traces of SPEC CPU 2006/2017, Cloud and
// Client applications. Those cannot be redistributed, so each workload here
// is a deterministic, seeded composition of micro-kernels whose memory and
// dependence behaviour spans the same axes the paper's analysis relies on:
//
//   - strided streams (RFP-friendly, high ILP)
//   - strided pointer chases (RFP-friendly AND latency-critical: each load's
//     address operand is the previous load's result, the Figure 3 pattern)
//   - random pointer chases (memory-bound, unpredictable: mcf/omnetpp)
//   - gathers A[B[i]] (predictable index load feeding an unpredictable one)
//   - stencils (multiple parallel strided streams plus stores)
//   - FP/FMA chains (execution-latency-bound: FSPEC, low RFP sensitivity)
//   - branchy scans (front-end bound phases)
//   - stack frames (store-to-load forwarding and memory disambiguation)
//   - hash probes (computed addresses: stride-unpredictable L2/LLC traffic)
//
// The RFP hardware only ever observes program counters, virtual addresses
// and register dependencies, so these kernels exercise exactly the code
// paths a real trace would.
package trace

import (
	"maps"

	"rfpsim/internal/isa"
	"rfpsim/internal/prng"
)

// kernel produces one loop iteration of micro-ops at a time.
type kernel interface {
	// emit appends one iteration of uops via e.
	emit(e *emitter)
	// clone returns an independent copy of the kernel's iteration state.
	clone() kernel
}

// Every kernel holds only plain values, so a shallow struct copy is a
// deep one.
func (k *streamKernel) clone() kernel    { c := *k; return &c }
func (k *chaseKernel) clone() kernel     { c := *k; return &c }
func (k *randChaseKernel) clone() kernel { c := *k; return &c }
func (k *gatherKernel) clone() kernel    { c := *k; return &c }
func (k *stencilKernel) clone() kernel   { c := *k; return &c }
func (k *fpKernel) clone() kernel        { c := *k; return &c }
func (k *branchyKernel) clone() kernel   { c := *k; return &c }
func (k *stackKernel) clone() kernel     { c := *k; return &c }
func (k *searchKernel) clone() kernel    { c := *k; return &c }
func (k *hashKernel) clone() kernel      { c := *k; return &c }

// emitter appends uops to the generator's pending queue on behalf of one
// kernel instance. Each instance owns a PC region (so static load PCs are
// stable across iterations, which stride predictors require) and a register
// window (so kernels do not create false cross-kernel dependencies).
type emitter struct {
	g      *generator
	pcBase uint64
	rng    *prng.Source
	vals   *valueModel
}

func (e *emitter) push(op isa.MicroOp) { e.g.queue = append(e.g.queue, op) }

// pc returns the static PC for a slot within the kernel's region.
func (e *emitter) pc(slot int) uint64 { return e.pcBase + uint64(slot)*4 }

// alu emits a single-cycle integer op dst <- s1 op s2.
func (e *emitter) alu(slot int, dst, s1, s2 isa.RegID) {
	e.push(isa.MicroOp{PC: e.pc(slot), Class: isa.OpALU, Dst: dst, Src1: s1, Src2: s2})
}

// opc emits a generic computation of the given class.
func (e *emitter) opc(slot int, class isa.OpClass, dst, s1, s2 isa.RegID) {
	e.push(isa.MicroOp{PC: e.pc(slot), Class: class, Dst: dst, Src1: s1, Src2: s2})
}

// load emits a load of addr into dst whose address depends on addrSrc.
func (e *emitter) load(slot int, dst, addrSrc isa.RegID, addr uint64) {
	pc := e.pc(slot)
	e.push(isa.MicroOp{
		PC: pc, Class: isa.OpLoad, Dst: dst, Src1: addrSrc, Src2: isa.NoReg,
		Addr: addr, Size: 8, Value: e.vals.valueFor(pc, addr, e.rng),
	})
}

// loadPtr emits a pointer load: its value is inherently unpredictable (a
// heap address), so value predictors must not be able to break the
// dependence chain through it — mispricing this is what made naive VP
// models look unrealistically strong.
func (e *emitter) loadPtr(slot int, dst, addrSrc isa.RegID, addr uint64) {
	e.push(isa.MicroOp{
		PC: e.pc(slot), Class: isa.OpLoad, Dst: dst, Src1: addrSrc, Src2: isa.NoReg,
		Addr: addr, Size: 8, Value: e.rng.Uint64(),
	})
}

// store emits a store of dataSrc to addr; addrSrc carries the address
// dependence.
func (e *emitter) store(slot int, addrSrc, dataSrc isa.RegID, addr uint64) {
	e.push(isa.MicroOp{
		PC: e.pc(slot), Class: isa.OpStore, Dst: isa.NoReg,
		Src1: addrSrc, Src2: dataSrc, Addr: addr, Size: 8,
	})
}

// branch emits a conditional branch; condSrc carries the condition
// dependence (loads feeding branches create critical resolution chains).
func (e *emitter) branch(slot int, condSrc isa.RegID, taken bool) {
	e.push(isa.MicroOp{
		PC: e.pc(slot), Class: isa.OpBranch, Dst: isa.NoReg,
		Src1: condSrc, Src2: isa.NoReg,
		Taken: taken, Target: e.pcBase,
	})
}

// valueModel assigns each static load PC a value pattern so that value
// predictors see realistic predictability: some loads return constants
// (flags, vtable pointers), some return strided values (induction data),
// the rest are effectively random.
type valueModel struct {
	classes   map[uint64]uint8 // 0 const, 1 stride, 2 random
	next      map[uint64]uint64
	constFrac float64
	strideVal float64
}

const (
	valConst  = 0
	valStride = 1
	valRandom = 2
)

func newValueModel(constFrac, strideFrac float64) *valueModel {
	return &valueModel{
		classes:   make(map[uint64]uint8),
		next:      make(map[uint64]uint64),
		constFrac: constFrac,
		strideVal: strideFrac,
	}
}

// clone deep-copies the per-PC value state.
func (v *valueModel) clone() *valueModel {
	c := *v
	c.classes = maps.Clone(v.classes)
	c.next = maps.Clone(v.next)
	return &c
}

func (v *valueModel) valueFor(pc, addr uint64, rng *prng.Source) uint64 {
	cls, ok := v.classes[pc]
	if !ok {
		switch r := rng.Float64(); {
		case r < v.constFrac:
			cls = valConst
		case r < v.constFrac+v.strideVal:
			cls = valStride
		default:
			cls = valRandom
		}
		v.classes[pc] = cls
		v.next[pc] = pc * 0x9E3779B97F4A7C15
	}
	switch cls {
	case valConst:
		return v.next[pc]
	case valStride:
		v.next[pc] += 8
		return v.next[pc]
	default:
		return rng.Uint64()
	}
}

// regWindow doles out architectural registers to kernel instances.
type regWindow struct {
	next   isa.RegID
	fpNext isa.RegID
}

func newRegWindow() *regWindow { return &regWindow{next: 1, fpNext: isa.FirstFPReg} }

// intReg allocates the next free integer register, wrapping if the workload
// has very many kernel instances (wrapping creates benign extra
// dependencies, as real register pressure would).
func (w *regWindow) intReg() isa.RegID {
	r := w.next
	w.next++
	if w.next >= isa.FirstFPReg {
		w.next = 1
	}
	return r
}

func (w *regWindow) fpReg() isa.RegID {
	r := w.fpNext
	w.fpNext++
	if w.fpNext >= isa.NumArchRegs {
		w.fpNext = isa.FirstFPReg
	}
	return r
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

// streamKernel walks an array with a fixed stride, accumulating. High ILP:
// successive loads are independent, so the OOO window hides much of the L1
// latency; RFP mostly saves scheduler replays and bandwidth.
type streamKernel struct {
	base, footprint, stride, off uint64
	storeEvery                   int
	iter                         int
	strideBreak                  float64
	idx, addr, data, data2, acc  isa.RegID
}

func (k *streamKernel) emit(e *emitter) {
	k.iter++
	e.alu(0, k.addr, k.idx, isa.NoReg) // address computation
	e.load(1, k.data, k.addr, k.base+k.off)
	e.load(2, k.data2, k.addr, k.base+2*k.footprint+k.off) // second input stream
	e.alu(3, k.acc, k.acc, k.data)
	e.alu(4, k.acc, k.acc, k.data2)
	e.alu(5, k.idx, k.idx, isa.NoReg)
	if k.storeEvery > 0 && k.iter%k.storeEvery == 0 {
		e.store(6, k.addr, k.acc, k.base+k.footprint+k.off)
	}
	e.branch(7, k.idx, true)
	if k.strideBreak > 0 && e.rng.Bool(k.strideBreak) {
		k.off = e.rng.Uint64n(k.footprint) &^ 7
	} else {
		k.off = (k.off + k.stride) % k.footprint
	}
}

// chaseKernel is a *strided* pointer chase: each load's address operand is
// the previous load's destination (a serial, 5-cycles-per-hop chain), while
// the address sequence itself advances by a constant stride — the layout of
// sequentially allocated linked lists and array-embedded recurrences. This
// is RFP's sweet spot: stride-predictable and latency-critical (Figure 3).
type chaseKernel struct {
	base, footprint, stride, off uint64
	strideBreak                  float64
	workALUs                     int
	ptr, acc                     isa.RegID
}

func (k *chaseKernel) emit(e *emitter) {
	addr := k.base + k.off
	if k.strideBreak > 0 && e.rng.Bool(k.strideBreak) {
		k.off = e.rng.Uint64n(k.footprint) &^ 7
	} else {
		k.off = (k.off + k.stride) % k.footprint
	}
	// The loaded VALUE is the next node's address (sequential allocation
	// makes node->next pointers strided): value predictors can break the
	// chain too — but they pay a pipeline flush at every stride break,
	// where RFP just re-reads the cache. This asymmetry is the paper's
	// §5.3 argument, and it emerges here mechanically.
	e.push(isa.MicroOp{
		PC: e.pc(0), Class: isa.OpLoad, Dst: k.ptr, Src1: k.ptr, Src2: isa.NoReg,
		Addr: addr, Size: 8, Value: k.base + k.off,
	})
	e.alu(1, k.acc, k.acc, k.ptr)
	for i := 0; i < k.workALUs; i++ {
		e.alu(2+i, k.acc, k.acc, isa.NoReg)
	}
	e.branch(2+k.workALUs, k.acc, true)
}

// randChaseKernel is a random pointer walk over a configurable footprint —
// the mcf/omnetpp pattern. Addresses are unpredictable, so neither RFP nor
// stride prefetching helps; large footprints make it DRAM-bound. Real
// pointer codes have partial memory-level parallelism (several chains in
// flight), modelled by depProb: each load depends on the previous load's
// value with that probability and is otherwise independent.
type randChaseKernel struct {
	base, footprint uint64
	depProb         float64
	ptr, idx, acc   isa.RegID
}

func (k *randChaseKernel) emit(e *emitter) {
	off := e.rng.Uint64n(k.footprint) &^ 7
	src := k.idx // independent: address from a cheap ALU chain
	if e.rng.Bool(k.depProb) {
		src = k.ptr // dependent: address needs the previous load's value
	}
	e.alu(0, k.idx, k.idx, isa.NoReg)
	e.loadPtr(1, k.ptr, src, k.base+off)
	e.alu(2, k.acc, k.acc, k.ptr)
	e.branch(3, k.acc, true)
}

// gatherKernel computes acc += A[B[i]]: the index load is strided and
// RFP-predictable; the data load's address depends on the index load's
// result and is unpredictable. Accelerating the index load shortens the
// critical path into the data load.
type gatherKernel struct {
	idxBase, idxFoot, idxStride, idxOff uint64
	dataBase, dataFoot                  uint64
	dataHotProb                         float64 // skewed reuse: most probes hit a hot subset
	idxAddr, idx, data, acc             isa.RegID
}

func (k *gatherKernel) emit(e *emitter) {
	e.alu(0, k.idxAddr, k.idxAddr, isa.NoReg)
	// Index arrays hold strided integers (B[i] = c + k*i in real gathers),
	// so the index load's VALUE is predictable even though the data
	// load's address is not — the load population value predictors
	// genuinely help, because breaking the idx->data dependence removes
	// a whole load latency from the critical path.
	e.push(isa.MicroOp{
		PC: e.pc(1), Class: isa.OpLoad, Dst: k.idx, Src1: k.idxAddr, Src2: isa.NoReg,
		Addr: k.idxBase + k.idxOff, Size: 8, Value: k.idxOff * 3,
	})
	span := k.dataFoot
	if e.rng.Bool(k.dataHotProb) {
		span = k.dataFoot / 16
	}
	dataOff := e.rng.Uint64n(span) &^ 7
	e.load(2, k.data, k.idx, k.dataBase+dataOff) // depends on index load
	e.alu(3, k.acc, k.acc, k.data)
	e.branch(4, k.acc, true)
	k.idxOff = (k.idxOff + k.idxStride) % k.idxFoot
}

// stencilKernel reads three neighbouring strided streams, combines them
// with FP ops and stores the result — the compiled shape of array stencils
// (zeusmp/leslie3d/cactus).
type stencilKernel struct {
	base, footprint, stride, off uint64
	strideBreak                  float64
	outBase                      uint64
	addr                         isa.RegID
	in                           [3]isa.RegID
	out                          isa.RegID
}

func (k *stencilKernel) emit(e *emitter) {
	e.alu(0, k.addr, k.addr, isa.NoReg)
	for i := 0; i < 3; i++ {
		e.load(1+i, k.in[i], k.addr, k.base+(k.off+uint64(i)*8)%k.footprint)
	}
	e.opc(4, isa.OpFP, k.out, k.in[0], k.in[1])
	e.opc(5, isa.OpFMA, k.out, k.out, k.in[2])
	e.store(6, k.addr, k.out, k.outBase+k.off)
	e.branch(7, k.addr, true)
	if k.strideBreak > 0 && e.rng.Bool(k.strideBreak) {
		k.off = e.rng.Uint64n(k.footprint) &^ 7
	} else {
		k.off = (k.off + k.stride) % k.footprint
	}
}

// fpKernel is a serial FMA chain fed by an occasional strided load — the
// FSPEC pattern. The chain's FP latency dominates, so even perfectly
// prefetched loads barely move IPC (the paper's wrf observation).
type fpKernel struct {
	base, footprint, stride, off uint64
	strideBreak                  float64
	chainLen                     int
	addr, data                   isa.RegID
	f                            [2]isa.RegID
}

func (k *fpKernel) emit(e *emitter) {
	e.alu(0, k.addr, k.addr, isa.NoReg)
	e.load(1, k.data, k.addr, k.base+k.off)
	for i := 0; i < k.chainLen; i++ {
		e.opc(2+i, isa.OpFMA, k.f[0], k.f[0], k.f[1]) // serial FMA chain
	}
	e.opc(2+k.chainLen, isa.OpFP, k.f[1], k.data, k.f[1])
	e.branch(3+k.chainLen, k.addr, true)
	if k.strideBreak > 0 && e.rng.Bool(k.strideBreak) {
		k.off = e.rng.Uint64n(k.footprint) &^ 7
	} else {
		k.off = (k.off + k.stride) % k.footprint
	}
}

// branchyKernel loads a strided value and branches on it with configurable
// predictability — compression/interpreter/game-tree codes (gobmk, sjeng,
// perlbench). Low takenProb entropy keeps the predictor accurate; values
// near 0.5 make it hard and shift the bottleneck to the front-end.
type branchyKernel struct {
	base, footprint, stride, off uint64
	takenProb                    float64
	addr, data, acc              isa.RegID
}

func (k *branchyKernel) emit(e *emitter) {
	e.alu(0, k.addr, k.addr, isa.NoReg)
	// The loaded value controls a data-dependent branch, so by definition
	// it varies unpredictably — a value predictor must not be able to
	// constant-fold the branch condition.
	e.loadPtr(1, k.data, k.addr, k.base+k.off)
	e.alu(2, k.acc, k.acc, k.data)
	e.branch(3, k.data, e.rng.Bool(k.takenProb)) // data-dependent branch
	e.branch(4, k.acc, true)                     // loop branch
	k.off = (k.off + k.stride) % k.footprint
}

// stackKernel writes then shortly reads back stack slots: store-to-load
// forwarding, unresolved-store disambiguation and the occasional ordering
// violation — call-frame behaviour (perlbench/gcc/xalancbmk).
type stackKernel struct {
	base       uint64
	slots      uint64 // power of two
	sp         uint64
	depth      uint64 // how far back the reload reaches
	sReg, dReg isa.RegID
	vReg, side isa.RegID
}

func (k *stackKernel) emit(e *emitter) {
	spAddr := k.base + (k.sp%k.slots)*8
	e.alu(0, k.sReg, k.sReg, isa.NoReg)
	e.store(1, k.sReg, k.vReg, spAddr)
	e.alu(2, k.vReg, k.vReg, isa.NoReg)
	// Reload two recently written slots (a frame saves/restores several
	// registers): forwarded from the SQ most times.
	back := k.sp - e.rng.Uint64n(k.depth+1)
	e.load(3, k.dReg, k.sReg, k.base+(back%k.slots)*8)
	back2 := k.sp - e.rng.Uint64n(k.depth+1)
	e.load(4, k.side, k.sReg, k.base+(back2%k.slots)*8)
	// Most reloads feed side computation; only occasionally does one sit
	// on the loop-carried chain (a reloaded frame pointer or callee-saved
	// register), as in real call-heavy code.
	if k.sp%4 == 0 {
		e.alu(5, k.vReg, k.vReg, k.dReg)
	} else {
		e.alu(5, k.side, k.side, k.dReg)
	}
	e.branch(6, k.vReg, true)
	k.sp++
}

// searchKernel performs a binary search over a sorted array: a short burst
// of dependent loads (each address derived from the previous comparison)
// with data-dependent branches — the B-tree/index-probe pattern of
// transaction processing (specjbb, tpcc). Neither the addresses (halving
// intervals around a random key) nor the branch directions are predictable,
// but each probe is only log2(n) deep, so the machine restarts a fresh
// chain every iteration — unlike the unbounded randChase.
type searchKernel struct {
	base, elems uint64 // sorted array of 8-byte keys
	depth       int    // probe depth per search (≈ log2 elems)
	ptr, acc    isa.RegID
}

func (k *searchKernel) emit(e *emitter) {
	lo, hi := uint64(0), k.elems
	slot := 0
	for d := 0; d < k.depth && lo < hi; d++ {
		mid := (lo + hi) / 2
		// The next probe address depends on the previous load's value
		// (the comparison result), so probes within a search are serial.
		e.loadPtr(slot, k.ptr, k.ptr, k.base+mid*8)
		e.branch(slot+1, k.ptr, e.rng.Bool(0.5)) // compare: unpredictable
		slot += 2
		if e.rng.Bool(0.5) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	e.alu(slot, k.acc, k.acc, k.ptr)
	e.branch(slot+1, k.acc, true) // loop branch
}

// hashKernel probes a table at hash-computed addresses: stride-free and
// value-free, the pattern behind tonto/gamess/milc's low RFP coverage.
// Real hash tables have skewed key popularity, so most probes land in a
// hot subset (which stays L1-resident) while the tail sweeps the full
// footprint (L2/LLC-resident depending on the preset).
type hashKernel struct {
	base, footprint uint64
	hotFoot         uint64  // hot-subset size (0 = footprint/16)
	hotProb         float64 // probability a probe targets the hot subset
	h, data, acc    isa.RegID
	state           uint64
}

func (k *hashKernel) emit(e *emitter) {
	// Cheap integer hash: two ALUs to compute the probe address.
	k.state = k.state*0x2545F4914F6CDD1D + 1
	hot := k.hotFoot
	if hot == 0 {
		hot = k.footprint / 16
	}
	span := k.footprint
	if e.rng.Bool(k.hotProb) {
		span = hot
	}
	off := (k.state >> 17) % span &^ 7
	e.alu(0, k.h, k.h, k.acc)
	e.alu(1, k.h, k.h, isa.NoReg)
	e.load(2, k.data, k.h, k.base+off)
	e.alu(3, k.acc, k.acc, k.data)
	e.branch(4, k.acc, true)
}
