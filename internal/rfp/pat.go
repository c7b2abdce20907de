// Package rfp implements the paper's contribution: the Register File
// Prefetch engine of Section 3 — a PC-indexed stride Prefetch Table with
// probabilistic confidence, utility-based replacement and per-entry
// in-flight counters; the area-saving Page Address Table (PAT, §3.5); an
// optional path-based context prefetcher (§5.5.3); and the RFP request
// queue that arbitrates for free L1 ports at the lowest priority (§3.2).
//
// The pipeline integration (RFP-inflight bit, dependent wakeup alignment,
// cancel-on-mismatch) lives in internal/core; this package is the predictor
// and bookkeeping hardware.
package rfp

import "rfpsim/internal/isa"

// patEntry is one way of the Page Address Table.
type patEntry struct {
	frame uint64 // page frame number (address bits 63:12)
	valid bool
	freq  uint8 // 2-bit popularity counter: hot pages resist eviction
	lru   uint64
}

// PAT is the 64-entry, 4-way set-associative Page Address Table of §3.5. It
// memoizes frequently occurring page frame numbers so Prefetch Table
// entries can store a 6-bit PAT pointer plus a 12-bit page offset instead
// of a full virtual address (≈50% storage saving). PAT entries may be
// evicted and reused while PT pointers still reference them; the resulting
// stale reconstructions surface as ordinary RFP address mispredictions and
// are relearnt — exactly the paper's behaviour.
type PAT struct {
	sets    int
	ways    int
	entries []patEntry
	stamp   uint64
}

// NewPAT builds a PAT with the given total entries and associativity.
func NewPAT(entries, ways int) *PAT {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic("rfp: invalid PAT geometry")
	}
	return &PAT{sets: entries / ways, ways: ways, entries: make([]patEntry, entries)}
}

// copyFrom copies src's entries and stamp into p, which must have the
// same geometry.
func (p *PAT) copyFrom(src *PAT) {
	copy(p.entries, src.entries)
	p.stamp = src.stamp
}

func (p *PAT) setFor(frame uint64) int { return int(frame % uint64(p.sets)) }

// LookupOrInsert returns the index of the entry holding frame, installing
// it if absent. The PAT records the *most frequently occurring* page frames
// (§3.5), so replacement victimizes the least popular way (ties broken by
// LRU): pages touched once by a large sweep cannot evict the hot pages the
// strided loads live in.
func (p *PAT) LookupOrInsert(frame uint64) int {
	set := p.setFor(frame)
	base := set * p.ways
	p.stamp++
	victim := base
	for i := base; i < base+p.ways; i++ {
		e := &p.entries[i]
		if e.valid && e.frame == frame {
			e.lru = p.stamp
			if e.freq < 3 {
				e.freq++
			}
			return i
		}
		if !e.valid {
			victim = i
			break
		}
		v := &p.entries[victim]
		if e.freq < v.freq || (e.freq == v.freq && e.lru < v.lru) {
			victim = i
		}
	}
	p.entries[victim] = patEntry{frame: frame, valid: true, lru: p.stamp}
	return victim
}

// Frame returns the page frame currently stored at index idx. A stale
// pointer silently returns whatever frame now occupies the slot; the
// mismatch is caught downstream when the load compares addresses.
func (p *PAT) Frame(idx int) (uint64, bool) {
	if idx < 0 || idx >= len(p.entries) || !p.entries[idx].valid {
		return 0, false
	}
	return p.entries[idx].frame, true
}

// StorageBits returns the PAT's storage cost in bits (44-bit page frames,
// per Table 1).
func (p *PAT) StorageBits() int { return len(p.entries) * 44 }

// Reconstruct rebuilds a full virtual address from a PAT pointer and a page
// offset, reporting whether the pointer was valid.
func (p *PAT) Reconstruct(idx int, pageOff uint16) (uint64, bool) {
	frame, ok := p.Frame(idx)
	if !ok {
		return 0, false
	}
	return frame<<isa.PageShift | uint64(pageOff), true
}
