// Package core is the cycle-based out-of-order core timing model the whole
// study runs on, with the paper's RFP pipeline integration (§3.2–3.3),
// value/address prediction hooks (§5.3–5.4) and the Figure 1 oracle modes.
//
// The model is the same abstraction level as the paper's Figures 6–9: an
// instruction selected for execution at cycle c delivers its result to
// dependents at c + latency; loads' latency comes from the memory
// hierarchy; wrongly speculated wakeups are cancelled and re-issued,
// consuming scheduler bandwidth. Structural resources (ROB, RS, LQ/SQ,
// physical registers, execution and L1 ports) are modelled discretely.
package core

import "rfpsim/internal/isa"

// farFuture marks an unknown completion time.
const farFuture = ^uint64(0) >> 1

// rfpState tracks a load's prefetch through its life cycle.
type rfpState uint8

const (
	// rfpNone: no prefetch was injected for this load.
	rfpNone rfpState = iota
	// rfpQueued: a prefetch packet is waiting in the RFP queue.
	rfpQueued
	// rfpExecuted: the prefetch won L1 arbitration and (will have)
	// brought data into the load's physical register.
	rfpExecuted
	// rfpDropped: the packet was cancelled before execution.
	rfpDropped
)

// entry is one in-flight micro-op: a fused ROB/RS/LSQ record.
type entry struct {
	op    isa.MicroOp
	valid bool

	// Renaming: srcSeq holds the sequence numbers of the producing
	// in-flight uops for each source operand, or 0 when the source was
	// architecturally ready at rename. (Sequence 0 cannot be a producer
	// because Seq is pre-incremented at dispatch.) srcIdx caches the
	// producer's ROB ring slot — stable while the producer is in flight —
	// so readiness checks are O(1): a slot whose occupant's Seq no longer
	// matches means the producer committed (flushed producers are
	// impossible: the consumer would have been flushed with them).
	srcSeq [2]uint64
	srcIdx [2]int32

	// Scheduling state.
	inRS       bool
	issued     bool
	prfClaimed bool // late-allocation mode: physical register claimed
	// Physical register bookkeeping (free-list mode): pReg is this uop's
	// allocated destination register; prevPReg is the register its
	// architectural destination mapped to before rename. prevPReg is
	// freed when this uop commits (the old value is then unreachable);
	// pReg is freed if this uop is squashed.
	pReg          int32
	prevPReg      int32
	earliestIssue uint64 // dispatch cycle + scheduling depth
	retryAt       uint64 // next cycle a blocked/replayed entry may retry
	// wakeAt is a cycle before which this RS entry cannot pass the
	// speculative-wakeup check (specWake); its RS index member holds a
	// copy.
	wakeAt uint64

	// doneSpec is when dependents believe the result arrives (speculative
	// wakeup time); doneReal is when it actually does. They differ only
	// while a load's hit/miss speculation is unresolved.
	doneSpec uint64
	doneReal uint64
	// execDone is when the uop itself finished executing (for VP loads
	// doneSpec/doneReal are the early predicted-value times while
	// execDone tracks the validation access).
	execDone uint64

	dispatchCycle  uint64
	pathAtDispatch uint64
	pathAtFetch    uint64

	// Memory state.
	addrKnown        bool // store: address computed (it issued)
	forwarded        bool
	forwardedFromSeq uint64
	hitLevel         int

	// RFP state (§3.2-3.3).
	rfp          rfpState
	rfpAddr      uint64
	rfpFillAt    uint64 // prefetched data lands in the PRF
	rfpArmedAt   uint64 // RFP-inflight bit visible to the scheduler
	rfpLevel     int    // hierarchy level the prefetch hit
	rfpMDStale   bool   // an older store overwrote the prefetched data
	rfpFwdWaitPC uint64 // unresolved same-set store PC the prefetch waits on
	rfpConsumed  bool   // the load consumed prefetched register file data

	// Cache-level-prediction state (the CLP-driven arming schedule).
	clpPredicted bool  // a confident level prediction was made at dispatch
	clpLevel     uint8 // the predicted hierarchy level (valid iff clpPredicted)
	clpEarlyArm  bool  // predicted L1/L2 hit: arm the RFP bit a cycle early

	// Checker shadow-value state (checker.go), tracked only when the
	// checking layer is attached. delivered is the store value the
	// datapath read for this load; deliveredInit marks a read that saw
	// pre-store memory. rfpData* snapshot the value an executed prefetch
	// brought into the register file, consumed if the load accepts it.
	delivered      uint64
	deliveredKnown bool
	deliveredInit  bool
	rfpData        uint64
	rfpDataKnown   bool
	rfpDataInit    bool

	// Value prediction state.
	vpPredicted  bool
	vpValue      uint64
	vpWrong      bool
	vpFlushed    bool
	apPredicted  bool // the value came from an early L1 probe (DLVP/EPP)
	eppPredicted bool

	// Predictor bookkeeping so squash/commit can undo allocations.
	ptAllocated   bool // rfp prefetcher Allocate() was called
	evesAllocated bool
	dlvpAllocated bool

	// stalledHead records that this entry blocked the commit head for at
	// least one cycle — the criticality estimator's training signal.
	stalledHead bool

	// Branch state.
	predictedTaken bool
	mispredicted   bool
}

// reset clears the entry for reuse.
func (e *entry) reset() { *e = entry{} }

// isLoad reports whether the entry is a load.
func (e *entry) isLoad() bool { return e.op.Class == isa.OpLoad }

// isStore reports whether the entry is a store.
func (e *entry) isStore() bool { return e.op.Class == isa.OpStore }

// sameWord reports whether two byte addresses fall in the same aligned
// 8-byte word — the granularity at which the LSQ disambiguates.
func sameWord(a, b uint64) bool { return a>>3 == b>>3 }
