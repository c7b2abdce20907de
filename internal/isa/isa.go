// Package isa defines the micro-operation (uop) abstraction that the whole
// simulator operates on.
//
// The paper evaluates RFP on an x86 core; RFP itself is ISA-agnostic — it
// keys on load program counters, virtual addresses and register
// dependencies. We therefore model a generic RISC-like micro-op stream: each
// dynamic instruction is a single uop with up to two register sources, one
// register destination, and (for memory ops) one virtual address. x86
// load-op instructions are represented as a load uop followed by an ALU uop,
// which is exactly what the decoded uop stream of a modern x86 core looks
// like.
package isa

import "fmt"

// RegID names an architectural register. The machine has 32 integer and 32
// floating-point architectural registers; renaming maps them onto a much
// larger physical register file.
type RegID uint8

const (
	// NumIntRegs is the number of architectural integer registers.
	NumIntRegs = 32
	// NumFPRegs is the number of architectural floating-point registers.
	NumFPRegs = 32
	// NumArchRegs is the total architectural register count.
	NumArchRegs = NumIntRegs + NumFPRegs
	// NoReg marks an absent register operand.
	NoReg RegID = 0xFF
)

// FirstFPReg is the architectural index of the first FP register.
const FirstFPReg RegID = NumIntRegs

// IsFP reports whether r names a floating-point architectural register.
func (r RegID) IsFP() bool { return r != NoReg && r >= FirstFPReg }

// Valid reports whether r names a real register (not NoReg).
func (r RegID) Valid() bool { return r != NoReg && r < NumArchRegs }

// String implements fmt.Stringer.
func (r RegID) String() string {
	switch {
	case r == NoReg:
		return "-"
	case r.IsFP():
		return fmt.Sprintf("f%d", r-FirstFPReg)
	default:
		return fmt.Sprintf("r%d", r)
	}
}

// OpClass categorizes a micro-op by the execution resource and latency it
// needs.
type OpClass uint8

const (
	// OpNop does nothing; it still occupies frontend/ROB slots.
	OpNop OpClass = iota
	// OpALU is a single-cycle integer operation.
	OpALU
	// OpMul is a pipelined 3-cycle integer multiply.
	OpMul
	// OpDiv is a long-latency (18-cycle) integer divide.
	OpDiv
	// OpFP is a pipelined 4-cycle floating-point add/multiply (also used
	// for vector ops).
	OpFP
	// OpFMA is a pipelined 5-cycle fused multiply-add.
	OpFMA
	// OpLoad reads memory into a register.
	OpLoad
	// OpStore writes a register to memory.
	OpStore
	// OpBranch is a conditional or unconditional control transfer.
	OpBranch
	numOpClasses
)

// NumOpClasses is the number of distinct op classes.
const NumOpClasses = int(numOpClasses)

var opClassNames = [...]string{
	OpNop:    "nop",
	OpALU:    "alu",
	OpMul:    "mul",
	OpDiv:    "div",
	OpFP:     "fp",
	OpFMA:    "fma",
	OpLoad:   "load",
	OpStore:  "store",
	OpBranch: "branch",
}

// String implements fmt.Stringer.
func (c OpClass) String() string {
	if int(c) < len(opClassNames) {
		return opClassNames[c]
	}
	return fmt.Sprintf("opclass(%d)", uint8(c))
}

// IsMem reports whether the class accesses memory.
func (c OpClass) IsMem() bool { return c == OpLoad || c == OpStore }

// ExecLatency returns the execution latency, in cycles, of the op class on
// its execution unit. Load latency is not included here: it is determined by
// the memory hierarchy (5 cycles for an L1 hit on the baseline core).
func (c OpClass) ExecLatency() int {
	switch c {
	case OpALU, OpBranch, OpStore, OpNop, OpLoad:
		return 1
	case OpMul:
		return 3
	case OpDiv:
		return 18
	case OpFP:
		return 4
	case OpFMA:
		return 5
	default:
		return 1
	}
}

// MicroOp is one dynamic micro-operation of the workload trace.
//
// The generator fills in the architectural view (PC, registers, address,
// value, branch outcome); the core fills in the microarchitectural state
// during simulation.
type MicroOp struct {
	// Seq is the dynamic sequence number, unique and monotonically
	// increasing over a run.
	Seq uint64
	// PC is the static program counter of the instruction. RFP's Prefetch
	// Table, the value predictors and the branch predictor all index on
	// it.
	PC uint64
	// Class selects the execution resource and latency.
	Class OpClass
	// Src1 and Src2 are the architectural source registers (NoReg if
	// absent). For stores, Src1 is the address base and Src2 the data.
	Src1, Src2 RegID
	// Dst is the architectural destination register (NoReg for stores,
	// branches and nops).
	Dst RegID
	// Addr is the virtual byte address touched by a load or store.
	Addr uint64
	// Size is the access size in bytes for memory ops.
	Size uint8
	// Value is the data value loaded or stored; value predictors are
	// trained against and validated on it.
	Value uint64
	// Taken is the branch outcome.
	Taken bool
	// Target is the branch target when taken.
	Target uint64
}

// IsLoad reports whether the uop is a load.
func (u *MicroOp) IsLoad() bool { return u.Class == OpLoad }

// IsStore reports whether the uop is a store.
func (u *MicroOp) IsStore() bool { return u.Class == OpStore }

// IsBranch reports whether the uop is a branch.
func (u *MicroOp) IsBranch() bool { return u.Class == OpBranch }

// String implements fmt.Stringer; it is meant for debug logs.
func (u *MicroOp) String() string {
	switch u.Class {
	case OpLoad:
		return fmt.Sprintf("#%d pc=%#x load %s <- [%#x]", u.Seq, u.PC, u.Dst, u.Addr)
	case OpStore:
		return fmt.Sprintf("#%d pc=%#x store [%#x] <- %s", u.Seq, u.PC, u.Addr, u.Src2)
	case OpBranch:
		return fmt.Sprintf("#%d pc=%#x branch taken=%v -> %#x", u.Seq, u.PC, u.Taken, u.Target)
	default:
		return fmt.Sprintf("#%d pc=%#x %s %s <- %s,%s", u.Seq, u.PC, u.Class, u.Dst, u.Src1, u.Src2)
	}
}

// Generator produces a dynamic micro-op stream. Implementations must be
// deterministic for a given construction seed.
type Generator interface {
	// Next fills op with the next dynamic uop and reports whether one was
	// produced. Generators used in this repository are infinite; Next
	// returning false means the workload genuinely ended.
	Next(op *MicroOp) bool
	// Name identifies the workload.
	Name() string
}

// Cloner is implemented by generators whose position can be forked.
// Clone returns an independent generator that produces the same remaining
// stream as the receiver, sharing no mutable state with it, or nil when
// this particular instance cannot be cloned (a trace reader over a
// non-rewindable stream).
type Cloner interface {
	Clone() Generator
}

// Clone returns an independent copy of g at its current position, or nil
// when g cannot be cloned.
func Clone(g Generator) Generator {
	if c, ok := g.(Cloner); ok {
		return c.Clone()
	}
	return nil
}

// PageSize is the virtual memory page size assumed throughout (4 KiB).
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// PageFrame returns the page frame number (address bits 63:12) of addr.
func PageFrame(addr uint64) uint64 { return addr >> PageShift }

// PageOffset returns the within-page offset (bits 11:0) of addr.
func PageOffset(addr uint64) uint64 { return addr & (PageSize - 1) }

// CacheLineSize is the cache line size in bytes (64, as on all modern x86).
const CacheLineSize = 64

// LineAddr returns the cache-line-aligned address of addr.
func LineAddr(addr uint64) uint64 { return addr &^ uint64(CacheLineSize-1) }
