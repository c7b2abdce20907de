package mem

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"rfpsim/internal/isa"
)

func TestNewCachePanicsOnBadGeometry(t *testing.T) {
	cases := [][2]int{{0, 4}, {64, 0}, {3, 4}, {-1, 2}}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCache(%d,%d) did not panic", c[0], c[1])
				}
			}()
			NewCache(c[0], c[1])
		}()
	}
}

func TestCacheBasicHitMiss(t *testing.T) {
	c := NewCache(4, 2)
	addr := uint64(0x1000)
	if c.Lookup(addr) {
		t.Error("cold cache must miss")
	}
	c.fill(addr, false)
	if !c.Lookup(addr) {
		t.Error("inserted line must hit")
	}
	// A different offset in the same line must hit.
	if !c.Lookup(addr + 63) {
		t.Error("same-line access must hit")
	}
	// The next line must miss.
	if c.Lookup(addr + 64) {
		t.Error("next line must miss")
	}
}

func TestCacheSizeBytes(t *testing.T) {
	c := NewCache(64, 12)
	if got := c.SizeBytes(); got != 48*1024 {
		t.Errorf("SizeBytes = %d, want 48KiB", got)
	}
	if c.Sets() != 64 || c.Ways() != 12 {
		t.Error("geometry accessors wrong")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(1, 2) // one set, two ways
	a, b, d := uint64(0), uint64(64), uint64(128)
	c.fill(a, false)
	c.fill(b, false)
	c.Lookup(a)      // a becomes MRU
	c.fill(d, false) // must evict b
	if !c.Contains(a) {
		t.Error("MRU line a was evicted")
	}
	if c.Contains(b) {
		t.Error("LRU line b should have been evicted")
	}
	if !c.Contains(d) {
		t.Error("new line d missing")
	}
}

func TestCacheInsertRefreshesExisting(t *testing.T) {
	c := NewCache(1, 2)
	a, b, d := uint64(0), uint64(64), uint64(128)
	c.fill(a, false)
	c.fill(b, false)
	c.fill(a, false) // refresh, not duplicate
	c.fill(d, false) // should evict b (a is MRU)
	if c.Contains(b) || !c.Contains(a) || !c.Contains(d) {
		t.Error("re-insert did not refresh LRU")
	}
}

func TestCacheContainsDoesNotTouchLRU(t *testing.T) {
	c := NewCache(1, 2)
	a, b, d := uint64(0), uint64(64), uint64(128)
	c.fill(a, false)
	c.fill(b, false)
	c.Contains(a)    // must NOT refresh a
	c.fill(d, false) // evicts a (still LRU)
	if c.Contains(a) {
		t.Error("Contains perturbed replacement state")
	}
}

// Property: a line just inserted is always present; capacity is never
// exceeded per set (inserting `ways` distinct lines of one set keeps all).
func TestCacheInsertionProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := NewCache(16, 4)
		for _, a := range addrs {
			addr := uint64(a)
			c.fill(addr, false)
			if !c.Contains(addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a set retains its `ways` most-recently-touched distinct lines.
func TestCacheLRUStackProperty(t *testing.T) {
	const ways = 4
	c := NewCache(1, ways)
	var touched []uint64
	// Touch a deterministic pseudo-random sequence of 12 distinct lines.
	for i := 0; i < 200; i++ {
		line := uint64((i*7)%12) * isa.CacheLineSize
		c.fill(line, false)
		touched = append(touched, line)
	}
	// Compute the 4 most recently touched distinct lines.
	recent := map[uint64]bool{}
	for i := len(touched) - 1; i >= 0 && len(recent) < ways; i-- {
		recent[touched[i]] = true
	}
	for line := range recent {
		if !c.Contains(line) {
			t.Errorf("recently used line %#x evicted", line)
		}
	}
}

func TestTLBGeometryPanics(t *testing.T) {
	cases := [][2]int{{0, 4}, {64, 0}, {64, 48}, {6, 4}}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTLB(%d,%d) did not panic", c[0], c[1])
				}
			}()
			NewTLB(c[0], c[1])
		}()
	}
}

func TestTLBHitMissAndLRU(t *testing.T) {
	tlb := NewTLB(4, 4) // 1 set, 4 ways
	if tlb.Lookup(1) {
		t.Error("cold TLB must miss")
	}
	for p := uint64(0); p < 4; p++ {
		tlb.Insert(p)
	}
	tlb.Lookup(0) // page 0 now MRU
	tlb.Insert(9) // evicts page 1 (LRU)
	if !tlb.Lookup(0) {
		t.Error("MRU page evicted")
	}
	if tlb.Lookup(1) {
		t.Error("LRU page should be gone")
	}
	// Re-insert existing refreshes.
	tlb.Insert(2)
	tlb.Insert(10)
	if !tlb.Lookup(2) {
		t.Error("refreshed page evicted")
	}
}

// TestCacheStampWrapKeepsReplacement: when the 32-bit stamps run out,
// renumbering keeps every replacement decision. Two caches see the same
// random fills and lookups; one has its stamp counter pushed just below
// the wrap (twice, so the second renumber starts from a full cache), the
// other never wraps.
func TestCacheStampWrapKeepsReplacement(t *testing.T) {
	ref, wrap := NewCache(4, 4), NewCache(4, 4)
	rng := rand.New(rand.NewPCG(7, 11))
	const lines = 48
	for step := 0; step < 6000; step++ {
		if step == 0 || step == 3000 {
			wrap.stamp = math.MaxUint32 - 40 // forward only, so order is kept
		}
		addr := uint64(rng.IntN(lines)) * isa.CacheLineSize
		switch rng.IntN(3) {
		case 0:
			if a, b := ref.Lookup(addr), wrap.Lookup(addr); a != b {
				t.Fatalf("step %d: Lookup %v vs %v", step, a, b)
			}
		case 1:
			pf := rng.IntN(2) == 0
			ref.fill(addr, pf)
			wrap.fill(addr, pf)
		default:
			ha, pa := ref.LookupConsume(addr)
			hb, pb := wrap.LookupConsume(addr)
			if ha != hb || pa != pb {
				t.Fatalf("step %d: LookupConsume (%v,%v) vs (%v,%v)", step, ha, pa, hb, pb)
			}
		}
		for l := uint64(0); l < lines; l++ {
			if a, b := ref.Contains(l*isa.CacheLineSize), wrap.Contains(l*isa.CacheLineSize); a != b {
				t.Fatalf("step %d: line %d resident %v without wrap, %v with", step, l, a, b)
			}
		}
	}
	if a, b := ref.TakePFUnused(), wrap.TakePFUnused(); a != b {
		t.Fatalf("unused prefetches %d without wrap, %d with", a, b)
	}
	if wrap.stamp > 10000 {
		t.Fatalf("stamp %d: the counter never wrapped", wrap.stamp)
	}
}
