package mem

import (
	"fmt"
	"math/bits"
)

// tlbEntry is one way of one TLB set.
type tlbEntry struct {
	page  uint64
	valid bool
	lru   uint64
}

// TLB is a set-associative translation lookaside buffer indexed by page
// frame number. Translation itself is identity (the simulator runs on
// virtual addresses); the TLB exists to model the latency cliff of a miss
// and the paper's drop-RFP-on-DTLB-miss simplification.
type TLB struct {
	sets    int
	ways    int
	setMask uint64
	entries []tlbEntry
	stamp   uint64
}

// NewTLB builds a TLB with entries total entries and the given
// associativity. entries/ways must be a power of two.
func NewTLB(entries, ways int) *TLB {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic(fmt.Sprintf("mem: invalid TLB geometry %d/%d", entries, ways))
	}
	sets := entries / ways
	if bits.OnesCount(uint(sets)) != 1 {
		panic(fmt.Sprintf("mem: TLB sets %d not a power of two", sets))
	}
	return &TLB{
		sets:    sets,
		ways:    ways,
		setMask: uint64(sets - 1),
		entries: make([]tlbEntry, sets*ways),
	}
}

func (t *TLB) setFor(page uint64) []tlbEntry {
	idx := int(page & t.setMask)
	return t.entries[idx*t.ways : (idx+1)*t.ways]
}

// Lookup probes for a page translation, refreshing LRU on a hit.
func (t *TLB) Lookup(page uint64) bool {
	set := t.setFor(page)
	for i := range set {
		if set[i].valid && set[i].page == page {
			t.stamp++
			set[i].lru = t.stamp
			return true
		}
	}
	return false
}

// Insert installs a translation, evicting LRU if needed.
func (t *TLB) Insert(page uint64) {
	set := t.setFor(page)
	t.stamp++
	victim := 0
	for i := range set {
		if set[i].valid && set[i].page == page {
			set[i].lru = t.stamp
			return
		}
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = tlbEntry{page: page, valid: true, lru: t.stamp}
}

// copyFrom copies src's entries and stamp into t, which must have the
// same geometry.
func (t *TLB) copyFrom(src *TLB) {
	copy(t.entries, src.entries)
	t.stamp = src.stamp
}

// fillCold is Cache.fillCold for a page translation.
func (t *TLB) fillCold(page, lru uint64) bool {
	set := t.setFor(page)
	for i := range set {
		if !set[i].valid {
			set[i] = tlbEntry{page: page, valid: true, lru: lru}
			return true
		}
		if set[i].page == page {
			return false
		}
	}
	return false
}
