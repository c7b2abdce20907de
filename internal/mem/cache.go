// Package mem models the data-side memory hierarchy: set-associative cache
// arrays with LRU replacement, an MSHR file with miss merging, a DTLB with
// page-walk latency, and DRAM. Latencies follow the paper's Figure 1
// (5-cycle L1, ~14-cycle L2, ~40-cycle LLC, 200-cycle memory).
package mem

import (
	"fmt"
	"math/bits"

	"rfpsim/internal/isa"
)

// cacheLine is one way of one set.
type cacheLine struct {
	tag   uint64
	valid bool
	pf    bool   // filled by a hardware prefetch and not yet consumed
	lru   uint64 // last-touch stamp; higher is more recent
}

// Cache is a single set-associative cache array with true-LRU replacement.
// It tracks presence only; data values live in the workload model.
type Cache struct {
	sets     int
	ways     int
	setShift uint
	setMask  uint64
	lines    []cacheLine // sets*ways, row-major by set
	stamp    uint64
	pfUnused uint64 // prefetched lines evicted before any consumption
}

// NewCache builds a cache with the given geometry. sets must be a power of
// two and both parameters positive; otherwise NewCache panics, since a bad
// geometry is a programming error in a configuration.
func NewCache(sets, ways int) *Cache {
	if sets <= 0 || ways <= 0 || bits.OnesCount(uint(sets)) != 1 {
		panic(fmt.Sprintf("mem: invalid cache geometry %dx%d", sets, ways))
	}
	return &Cache{
		sets:     sets,
		ways:     ways,
		setShift: uint(bits.TrailingZeros(uint(isa.CacheLineSize))),
		setMask:  uint64(sets - 1),
		lines:    make([]cacheLine, sets*ways),
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// SizeBytes returns the total capacity in bytes.
func (c *Cache) SizeBytes() int { return c.sets * c.ways * isa.CacheLineSize }

func (c *Cache) setFor(addr uint64) []cacheLine {
	idx := int((addr >> c.setShift) & c.setMask)
	return c.lines[idx*c.ways : (idx+1)*c.ways]
}

func (c *Cache) tagFor(addr uint64) uint64 {
	return addr >> (c.setShift + uint(bits.TrailingZeros(uint(c.sets))))
}

// Lookup probes for the line containing addr; on a hit it refreshes LRU
// state and returns true.
func (c *Cache) Lookup(addr uint64) bool {
	set := c.setFor(addr)
	tag := c.tagFor(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.stamp++
			set[i].lru = c.stamp
			return true
		}
	}
	return false
}

// Contains probes for the line without touching replacement state.
func (c *Cache) Contains(addr uint64) bool {
	set := c.setFor(addr)
	tag := c.tagFor(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// fill installs the line containing addr, evicting the LRU way if needed;
// pf marks it prefetched so the hierarchy can attribute the first
// consumption (or an unconsumed eviction) back to the prefetcher. Filling
// a line already present only refreshes its LRU state.
func (c *Cache) fill(addr uint64, pf bool) {
	set := c.setFor(addr)
	tag := c.tagFor(addr)
	c.stamp++
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.stamp
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
	if set[victim].valid && set[victim].pf {
		c.pfUnused++
	}
	set[victim] = cacheLine{tag: tag, valid: true, pf: pf, lru: c.stamp}
}

// fillCold places the line containing addr, stamped lru, in the first
// invalid way of its set, and reports whether it did. It leaves a set that
// already holds the line or has no invalid way untouched. Valid ways are
// never invalidated, so they always form a prefix of the set.
func (c *Cache) fillCold(addr, lru uint64) bool {
	set := c.setFor(addr)
	tag := c.tagFor(addr)
	for i := range set {
		if !set[i].valid {
			set[i] = cacheLine{tag: tag, valid: true, lru: lru}
			return true
		}
		if set[i].tag == tag {
			return false
		}
	}
	return false
}

// LookupConsume is Lookup plus prefetch attribution: on a hit it clears
// and reports the line's prefetched mark, so exactly one demand access
// gets credited per prefetched fill.
func (c *Cache) LookupConsume(addr uint64) (hit, wasPrefetched bool) {
	set := c.setFor(addr)
	tag := c.tagFor(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.stamp++
			set[i].lru = c.stamp
			wasPrefetched = set[i].pf
			set[i].pf = false
			return true, wasPrefetched
		}
	}
	return false, false
}

// ConsumePrefetch clears the prefetched mark on the line containing addr
// without touching replacement state, reporting whether the mark was set.
// The hierarchy uses it when a demand access merges with an in-flight
// prefetch (a "late" prefetch: covered, but not fully).
func (c *Cache) ConsumePrefetch(addr uint64) bool {
	set := c.setFor(addr)
	tag := c.tagFor(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag && set[i].pf {
			set[i].pf = false
			return true
		}
	}
	return false
}

// TakePFUnused returns and resets the count of prefetched lines evicted
// without ever being consumed (the pollution signal).
func (c *Cache) TakePFUnused() uint64 {
	u := c.pfUnused
	c.pfUnused = 0
	return u
}
