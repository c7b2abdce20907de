package rfp

import (
	"rfpsim/internal/config"
	"rfpsim/internal/isa"
	"rfpsim/internal/prng"
)

// ptEntry is one Prefetch Table entry (§3.1): logically a 16-bit tag, 2-bit
// utility, configurable-width confidence, 8-bit stride, 7-bit in-flight
// counter and the base address (a full VA, or a PAT pointer + 12-bit page
// offset when the area optimization is on).
type ptEntry struct {
	tag      uint16
	valid    bool
	util     uint8 // 2-bit utility, replacement victim selection
	conf     uint8 // saturating confidence, width configurable (Fig 17)
	stride   int16 // 8-bit encodable stride; out-of-range strides never train
	inflight int16 // 7-bit outstanding-instance counter
	lru      uint64

	// hasBase records whether a retirement has established the base
	// address yet (entries are created at allocation so the in-flight
	// counter counts every instance from the start).
	hasBase bool
	// Full-VA mode base address (the last retired address).
	lastAddr uint64
	// PAT mode base address.
	patIdx  int16
	pageOff uint16
	usePAT  bool
}

// Stride encodability limits (8-bit signed field).
const (
	strideMin = -128
	strideMax = 127
)

// utilMax saturates the 2-bit utility counter.
const utilMax = 3

// inflightMax saturates the 7-bit in-flight counter.
const inflightMax = 127

// Table is the Prefetch Table: an 8-way set-associative, static-load-PC
// indexed stride predictor trained at load retirement (which makes stride
// detection trivial: retirement is program order). Confidence increments
// probabilistically (p = 1/ConfidenceProb) on a repeating stride and resets
// on a stride change; once saturated, the load PC is RFP-eligible.
type Table struct {
	cfg     config.RFPConfig
	sets    int
	ways    int
	entries []ptEntry
	pat     *PAT
	rng     *prng.Source
	confMax uint8
	stamp   uint64

	// inflightDebt holds pending decrements with no counted increment to
	// match: evicting a live entry discards its in-flight count, and a
	// saturated counter swallows increments, yet every such instance still
	// commits or squashes later. Decrements that find a zero counter
	// consume this debt first; only a decrement with no live count AND no
	// debt is a genuine underflow (a double decrement somewhere).
	inflightDebt uint64
	underflows   uint64
}

// NewTable builds the Prefetch Table (and its PAT when cfg.UsePAT).
func NewTable(cfg config.RFPConfig, seed uint64) *Table {
	if cfg.PTEntries <= 0 || cfg.PTWays <= 0 || cfg.PTEntries%cfg.PTWays != 0 {
		panic("rfp: invalid prefetch table geometry")
	}
	t := &Table{
		cfg:     cfg,
		sets:    cfg.PTEntries / cfg.PTWays,
		ways:    cfg.PTWays,
		entries: make([]ptEntry, cfg.PTEntries),
		rng:     prng.New(seed),
		confMax: uint8(1<<uint(cfg.ConfidenceBits) - 1),
	}
	if cfg.UsePAT {
		t.pat = NewPAT(cfg.PATEntries, cfg.PATWays)
	}
	return t
}

// copyFrom copies src's entries, PAT, rng state, stamp and in-flight
// bookkeeping into t, which must share its configuration.
func (t *Table) copyFrom(src *Table) {
	copy(t.entries, src.entries)
	if t.pat != nil {
		t.pat.copyFrom(src.pat)
	}
	*t.rng = *src.rng
	t.stamp, t.inflightDebt, t.underflows = src.stamp, src.inflightDebt, src.underflows
}

func (t *Table) setFor(pc uint64) int { return int((pc >> 2) % uint64(t.sets)) }

func (t *Table) tagFor(pc uint64) uint16 {
	return uint16((pc >> 2) / uint64(t.sets))
}

// find returns the entry for pc, or nil.
func (t *Table) find(pc uint64) *ptEntry {
	set := t.setFor(pc)
	tag := t.tagFor(pc)
	base := set * t.ways
	for i := base; i < base+t.ways; i++ {
		e := &t.entries[i]
		if e.valid && e.tag == tag {
			return e
		}
	}
	return nil
}

// alloc victimizes the lowest-utility (ties: LRU) way of pc's set and
// returns a fresh entry for pc.
func (t *Table) alloc(pc uint64) *ptEntry {
	set := t.setFor(pc)
	base := set * t.ways
	victim := base
	for i := base; i < base+t.ways; i++ {
		e := &t.entries[i]
		if !e.valid {
			victim = i
			break
		}
		v := &t.entries[victim]
		if e.util < v.util || (e.util == v.util && e.lru < v.lru) {
			victim = i
		}
	}
	if v := &t.entries[victim]; v.valid && v.inflight > 0 {
		t.inflightDebt += uint64(v.inflight)
	}
	t.stamp++
	t.entries[victim] = ptEntry{tag: t.tagFor(pc), valid: true, lru: t.stamp}
	return &t.entries[victim]
}

// base returns the entry's base address (last retired address),
// reconstructing through the PAT when the area optimization is on.
func (t *Table) base(e *ptEntry) (uint64, bool) {
	if !e.usePAT {
		return e.lastAddr, true
	}
	return t.pat.Reconstruct(int(e.patIdx), e.pageOff)
}

// setBase records addr as the entry's base address in the configured
// encoding.
func (t *Table) setBase(e *ptEntry, addr uint64) {
	if t.pat == nil {
		e.lastAddr = addr
		e.usePAT = false
		return
	}
	e.usePAT = true
	e.patIdx = int16(t.pat.LookupOrInsert(isa.PageFrame(addr)))
	e.pageOff = uint16(isa.PageOffset(addr))
}

// Allocate is called when a load at pc is allocated into the OOO. It bumps
// the entry's in-flight counter and, if the entry's confidence is
// saturated, returns the predicted address for this dynamic instance:
// base + stride × inflight (the counter accounts for older in-flight
// instances of the same PC whose retirement has not yet advanced the base,
// per §3.1).
//
// A missing entry is created here rather than at first retirement: the PT
// is looked up at allocation anyway to mark RFP-eligible loads (§3.2), and
// creating the entry at the same point keeps the in-flight counter exact
// from the first dynamic instance. Creating it at retirement instead would
// leave the counter permanently short by however many instances were in
// flight at creation time, mispredicting every address by that skew times
// the stride.
func (t *Table) Allocate(pc uint64) (addr uint64, eligible bool) {
	e := t.find(pc)
	if e == nil {
		e = t.alloc(pc)
	}
	if e.inflight < inflightMax {
		e.inflight++
	} else {
		t.inflightDebt++ // saturated: the swallowed increment becomes debt
	}
	t.stamp++
	e.lru = t.stamp
	if e.conf < t.confMax || !e.hasBase {
		return 0, false
	}
	base, ok := t.base(e)
	if !ok {
		return 0, false
	}
	return uint64(int64(base) + int64(e.stride)*int64(e.inflight)), true
}

// Commit trains the table at load retirement with the load's actual
// address, and releases the in-flight slot taken at allocation.
func (t *Table) Commit(pc, addr uint64) {
	e := t.find(pc)
	if e == nil {
		// The entry allocated for this instance was evicted while it was
		// in flight; its pending decrement sits in the debt pool. Recreate
		// the entry with the base established.
		if t.inflightDebt > 0 {
			t.inflightDebt--
		}
		e = t.alloc(pc)
		t.setBase(e, addr)
		e.hasBase = true
		return
	}
	t.releaseInflight(e)
	if !e.hasBase {
		// First retirement through this entry: establish the base; the
		// stride is learnt from the next one.
		t.setBase(e, addr)
		e.hasBase = true
		return
	}
	base, baseOK := t.base(e)
	stride := int64(addr) - int64(base)
	switch {
	case !baseOK:
		// Stale PAT pointer: relearn the base, keep the stride guess.
		t.setBase(e, addr)
		e.conf = 0
	case stride == int64(e.stride) && stride >= strideMin && stride <= strideMax:
		// Repeating stride: probabilistic confidence (p = 1/ConfidenceProb),
		// which makes eligibility demand a long run of stable strides
		// without paying for wide counters (§3.1).
		if e.conf < t.confMax && t.rng.OneIn(t.cfg.ConfidenceProb) {
			e.conf++
		}
		if e.util < utilMax {
			e.util++
		}
		t.setBase(e, addr)
	case stride >= strideMin && stride <= strideMax:
		// Stride changed: reset confidence and utility; a persistently
		// fluctuating entry keeps low utility and eventually gets evicted.
		e.stride = int16(stride)
		e.conf = 0
		e.util = 0
		t.setBase(e, addr)
	default:
		// Stride not encodable in 8 bits: never becomes eligible.
		e.conf = 0
		e.util = 0
		t.setBase(e, addr)
	}
}

// Squash releases the in-flight slot of a wrong-path load that was
// allocated but will never commit (§3.1: the counter is decremented for
// each squashed load on a branch misprediction).
func (t *Table) Squash(pc uint64) {
	if e := t.find(pc); e != nil {
		t.releaseInflight(e)
	}
}

// releaseInflight performs one in-flight decrement: the live counter if
// positive, otherwise the debt pool (see inflightDebt); a decrement with
// neither is counted as an underflow for the checking layer.
func (t *Table) releaseInflight(e *ptEntry) {
	switch {
	case e.inflight > 0:
		e.inflight--
	case t.inflightDebt > 0:
		t.inflightDebt--
	default:
		t.underflows++
	}
}

// InflightUnderflows returns how many in-flight decrements found neither a
// live counter nor matching debt — each one is a bookkeeping bug, surfaced
// by the checking layer as a PTInflightUnderflow violation.
func (t *Table) InflightUnderflows() uint64 { return t.underflows }

// StorageBits returns the PT's storage in bits, matching Table 1's
// accounting: per entry a 16b tag, confidence bits, 2b utility, 8b stride
// and 7b inflight, plus either a 64b virtual address (full-VA mode) or a
// 6b PAT pointer + 12b page offset (PAT mode, plus the PAT itself).
func (t *Table) StorageBits() int {
	per := 16 + t.cfg.ConfidenceBits + 2 + 8 + 7
	if t.pat != nil {
		per += 6 + 12
		return len(t.entries)*per + t.pat.StorageBits()
	}
	per += 64
	return len(t.entries) * per
}
