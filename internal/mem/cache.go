// Package mem models the data-side memory hierarchy: set-associative cache
// arrays with LRU replacement, an MSHR file with miss merging, a DTLB with
// page-walk latency, and DRAM. Latencies follow the paper's Figure 1
// (5-cycle L1, ~14-cycle L2, ~40-cycle LLC, 200-cycle memory).
package mem

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"rfpsim/internal/isa"
)

// Line state bits in a way's key. A key is tag<<2 | linePF | lineValid,
// and 0 for an invalid way. A tag is an address shifted right by at least
// the 6 line-offset bits, so it never reaches the top two bits.
const (
	lineValid = 1 << 0
	linePF    = 1 << 1 // filled by a hardware prefetch and not yet consumed
)

// Cache is a single set-associative cache array with true-LRU replacement.
// It tracks presence only; data values live in the workload model.
//
// Way state lives in two parallel arrays, sets*ways long and row-major by
// set: a key and a 32-bit last-touch stamp. That is 12 bytes a way. The
// L2 and LLC arrays are most of a core's memory, and sampled replay keeps
// two cores live per job.
type Cache struct {
	sets     int
	ways     int
	setShift uint
	setMask  uint64
	keys     []uint64 // tag<<2 | linePF | lineValid; 0 for an invalid way
	lrus     []uint32 // last-touch stamp; higher is more recent
	stamp    uint32
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
		keys:     make([]uint64, sets*ways),
		lrus:     make([]uint32, sets*ways),
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// SizeBytes returns the total capacity in bytes.
func (c *Cache) SizeBytes() int { return c.sets * c.ways * isa.CacheLineSize }

// setFor returns the keys and stamps of the set addr maps to.
func (c *Cache) setFor(addr uint64) ([]uint64, []uint32) {
	b := int((addr>>c.setShift)&c.setMask) * c.ways
	return c.keys[b : b+c.ways], c.lrus[b : b+c.ways]
}

// keyFor returns the key of a valid, unprefetched way holding the line
// containing addr.
func (c *Cache) keyFor(addr uint64) uint64 {
	return addr>>(c.setShift+uint(bits.TrailingZeros(uint(c.sets))))<<2 | lineValid
}

// tick returns the stamp for a new touch. When the 32-bit stamps run out,
// renumber rewrites each set's stamps as 1..n in their current order
// first, which leaves every later replacement decision unchanged: victims
// are chosen by comparing stamps within one set only.
func (c *Cache) tick() uint32 {
	if c.stamp == math.MaxUint32 {
		c.renumber()
	}
	c.stamp++
	return c.stamp
}

// renumber compacts the stamps of every set to 1..n, keeping their order,
// and restarts the stamp counter above them.
func (c *Cache) renumber() {
	order := make([]int, 0, c.ways)
	for b := 0; b < len(c.keys); b += c.ways {
		order = order[:0]
		for i := b; i < b+c.ways; i++ {
			if c.keys[i] != 0 {
				order = append(order, i)
			}
		}
		slices.SortFunc(order, func(x, y int) int { return cmp.Compare(c.lrus[x], c.lrus[y]) })
		for r, i := range order {
			c.lrus[i] = uint32(r + 1)
		}
	}
	c.stamp = uint32(c.ways)
}

// Lookup probes for the line containing addr; on a hit it refreshes LRU
// state and returns true.
func (c *Cache) Lookup(addr uint64) bool {
	keys, lrus := c.setFor(addr)
	key := c.keyFor(addr)
	for i, k := range keys {
		if k&^linePF == key {
			lrus[i] = c.tick()
			return true
		}
	}
	return false
}

// Contains probes for the line without touching replacement state.
func (c *Cache) Contains(addr uint64) bool {
	keys, _ := c.setFor(addr)
	key := c.keyFor(addr)
	for _, k := range keys {
		if k&^linePF == key {
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
	keys, lrus := c.setFor(addr)
	key := c.keyFor(addr)
	stamp := c.tick()
	victim := 0
	for i, k := range keys {
		if k&^linePF == key {
			lrus[i] = stamp
			return
		}
		if k == 0 {
			victim = i
			break
		}
		if lrus[i] < lrus[victim] {
			victim = i
		}
	}
	if keys[victim]&linePF != 0 {
		c.pfUnused++
	}
	if pf {
		key |= linePF
	}
	keys[victim], lrus[victim] = key, stamp
}

// copyFrom copies src's ways, stamp and unused-prefetch count into c,
// which must have the same geometry: afterwards c holds nothing of its
// own.
func (c *Cache) copyFrom(src *Cache) {
	copy(c.keys, src.keys)
	copy(c.lrus, src.lrus)
	c.stamp, c.pfUnused = src.stamp, src.pfUnused
}

// fillCold places the line containing addr, stamped lru, in the first
// invalid way of its set, and reports whether it did. It leaves a set that
// already holds the line or has no invalid way untouched. Valid ways are
// never invalidated, so they always form a prefix of the set.
func (c *Cache) fillCold(addr uint64, lru uint32) bool {
	keys, lrus := c.setFor(addr)
	key := c.keyFor(addr)
	for i, k := range keys {
		if k == 0 {
			keys[i], lrus[i] = key, lru
			return true
		}
		if k&^linePF == key {
			return false
		}
	}
	return false
}

// LookupConsume is Lookup plus prefetch attribution: on a hit it clears
// and reports the line's prefetched mark, so exactly one demand access
// gets credited per prefetched fill.
func (c *Cache) LookupConsume(addr uint64) (hit, wasPrefetched bool) {
	keys, lrus := c.setFor(addr)
	key := c.keyFor(addr)
	for i, k := range keys {
		if k&^linePF == key {
			lrus[i] = c.tick()
			keys[i] = key
			return true, k&linePF != 0
		}
	}
	return false, false
}

// ConsumePrefetch clears the prefetched mark on the line containing addr
// without touching replacement state, reporting whether the mark was set.
// The hierarchy uses it when a demand access merges with an in-flight
// prefetch (a "late" prefetch: covered, but not fully).
func (c *Cache) ConsumePrefetch(addr uint64) bool {
	keys, _ := c.setFor(addr)
	key := c.keyFor(addr)
	for i, k := range keys {
		if k == key|linePF {
			keys[i] = key
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
