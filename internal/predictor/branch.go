// Package predictor implements the speculation substrates the OOO core
// relies on: a gshare conditional branch predictor, the Yoaz et al.
// load hit-miss predictor that drives speculative wakeup of load
// dependents, and a store-set memory-dependence predictor (Chrysos & Emer)
// used both by demand loads and by RFP prefetches for disambiguation
// against in-flight stores.
package predictor

import "math/bits"

// Direction is the interface both branch direction predictors (gshare and
// TAGE) implement; the core is parameterized on it.
type Direction interface {
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Update trains with the resolved direction.
	Update(pc uint64, taken bool)
}

// Compile-time conformance.
var (
	_ Direction = (*Branch)(nil)
	_ Direction = (*TAGE)(nil)
)

// Branch is a gshare direction predictor with 2-bit saturating counters.
// Branch targets come from the trace (the BTB is modelled as perfect, which
// is the common simplification for data-side studies like RFP).
type Branch struct {
	history     uint64
	historyMask uint64
	tableMask   uint64
	counters    []uint8
}

// NewBranch builds a gshare predictor with 2^tableBits counters and
// historyBits bits of global history. tableBits must be in [4, 24].
func NewBranch(tableBits, historyBits uint) *Branch {
	if tableBits < 4 {
		tableBits = 4
	}
	if tableBits > 24 {
		tableBits = 24
	}
	if historyBits > tableBits {
		historyBits = tableBits
	}
	size := 1 << tableBits
	b := &Branch{
		historyMask: 1<<historyBits - 1,
		tableMask:   uint64(size - 1),
		counters:    make([]uint8, size),
	}
	// Initialize to weakly taken: loop branches dominate and are taken.
	for i := range b.counters {
		b.counters[i] = 2
	}
	return b
}

// CopyFrom makes b a copy of src, which must have the same geometry; b
// keeps its own counter storage.
func (b *Branch) CopyFrom(src *Branch) {
	b.history = src.history
	copy(b.counters, src.counters)
}

func (b *Branch) index(pc uint64) uint64 {
	h := pc ^ (pc >> 13) ^ (b.history & b.historyMask)
	return (h ^ bits.RotateLeft64(h, 17)) & b.tableMask
}

// Predict returns the predicted direction for the branch at pc.
func (b *Branch) Predict(pc uint64) bool {
	return b.counters[b.index(pc)] >= 2
}

// Update trains the predictor with the resolved direction and shifts it
// into the global history.
func (b *Branch) Update(pc uint64, taken bool) {
	i := b.index(pc)
	c := b.counters[i]
	if taken {
		if c < 3 {
			b.counters[i] = c + 1
		}
	} else if c > 0 {
		b.counters[i] = c - 1
	}
	b.history = b.history<<1 | boolBit(taken)
}

func boolBit(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// HitMiss is the load hit-miss predictor of Yoaz et al.: it predicts
// whether a load will hit the L1 so the scheduler can speculatively wake
// the load's dependents at L1-hit latency. Per-PC 4-bit saturating counters
// strongly biased towards "hit" (92.8% of loads hit the L1).
type HitMiss struct {
	mask     uint64
	counters []uint8
}

// hitMissMax saturates the counter; predictions are "hit" above the
// midpoint.
const hitMissMax = 15

// NewHitMiss builds a hit-miss predictor with 2^tableBits counters.
func NewHitMiss(tableBits uint) *HitMiss {
	size := 1 << tableBits
	h := &HitMiss{
		mask:     uint64(size - 1),
		counters: make([]uint8, size),
	}
	for i := range h.counters {
		h.counters[i] = hitMissMax // strongly predict hit initially
	}
	return h
}

// CopyFrom makes h a copy of src, which must have the same geometry; h
// keeps its own counter storage.
func (h *HitMiss) CopyFrom(src *HitMiss) { copy(h.counters, src.counters) }

func (h *HitMiss) index(pc uint64) uint64 { return (pc ^ pc>>11) & h.mask }

// Predict reports whether the load at pc is predicted to hit the L1.
func (h *HitMiss) Predict(pc uint64) bool {
	return h.counters[h.index(pc)] > hitMissMax/2
}

// Update trains with the observed outcome. Hits recover slowly (+1) while
// misses penalize strongly (-4), mirroring the asymmetric cost of wrongly
// waking dependents of a missing load.
func (h *HitMiss) Update(pc uint64, hit bool) {
	i := h.index(pc)
	c := int(h.counters[i])
	if hit {
		c++
	} else {
		c -= 4
	}
	if c > hitMissMax {
		c = hitMissMax
	}
	if c < 0 {
		c = 0
	}
	h.counters[i] = uint8(c)
}
