package mem

import (
	"cmp"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"rfpsim/internal/config"
	"rfpsim/internal/isa"
	"rfpsim/internal/stats"
)

// warmPerLine is the reference WarmRegions stands for: one Warm call per
// line of every region, in order.
func warmPerLine(h *Hierarchy, regions [][2]uint64) {
	for _, r := range regions {
		for a := r[0]; a < r[0]+r[1]; a += isa.CacheLineSize {
			h.Warm(a)
		}
	}
}

// wayState is one valid way as replacement sees it.
type wayState struct {
	tag, lru uint64
	pf       bool
}

// cacheSets returns each set's valid ways sorted by tag: the state a
// cache exposes to later accesses, independent of way order.
func cacheSets(c *Cache) [][]wayState {
	out := make([][]wayState, c.sets)
	for s := range out {
		for i := s * c.ways; i < (s+1)*c.ways; i++ {
			if k := c.keys[i]; k != 0 {
				out[s] = append(out[s], wayState{k >> 2, uint64(c.lrus[i]), k&linePF != 0})
			}
		}
		slices.SortFunc(out[s], func(a, b wayState) int { return cmp.Compare(a.tag, b.tag) })
	}
	return out
}

// tlbSets is cacheSets for the DTLB.
func tlbSets(t *TLB) [][]wayState {
	out := make([][]wayState, t.sets)
	for s := range out {
		for _, e := range t.entries[s*t.ways : (s+1)*t.ways] {
			if e.valid {
				out[s] = append(out[s], wayState{tag: e.page, lru: e.lru})
			}
		}
		slices.SortFunc(out[s], func(a, b wayState) int { return cmp.Compare(a.tag, b.tag) })
	}
	return out
}

// smallMem shrinks every structure so that random accesses evict often
// and the DTLB reaches more lines (64 pages = 4096 lines) than the LLC
// holds (256 lines): a walk that stopped once the LLC was full would
// leave the DTLB short.
func smallMem() config.MemConfig {
	m := config.Baseline().Mem
	m.L1Sets, m.L1Ways = 8, 2
	m.L2Sets, m.L2Ways = 32, 4
	m.LLCSets, m.LLCWays = 64, 4
	m.DTLBEntries, m.DTLBWays = 64, 4
	return m
}

// unevenTail is a large sweep followed by single lines one LLC set-span
// apart, so the tail of the sweep lands on a handful of sets only.
func unevenTail() [][2]uint64 {
	regions := [][2]uint64{{0x400000, 4 << 20}}
	for i := uint64(0); i < 40; i++ {
		regions = append(regions, [2]uint64{0x10000000 + i*(4096*isa.CacheLineSize) + (i%3)*isa.CacheLineSize, isa.CacheLineSize})
	}
	return regions
}

func TestWarmRegionsMatchesPerLineWarm(t *testing.T) {
	cases := []struct {
		name    string
		regions [][2]uint64
	}{
		{"overlapping-and-duplicate", [][2]uint64{{0x10000, 64 << 10}, {0x18000, 64 << 10}, {0x10000, 64 << 10}, {0x12000, 4 << 10}}},
		{"unaligned-base-and-size", [][2]uint64{{0x20013, 100*isa.CacheLineSize + 17}, {0x9000007, 5000}}},
		{"zero-size-region", [][2]uint64{{0x30000, 0}, {0x40000, 8 << 10}, {0x50000, 0}}},
		{"smaller-than-l1", [][2]uint64{{0x60000, 16 << 10}}},
		{"larger-than-llc", [][2]uint64{{0x1000000, 8 << 20}, {0x3000000, 1 << 20}}},
		{"uneven-tail", unevenTail()},
		{"empty", nil},
	}
	mems := []struct {
		name string
		cfg  config.MemConfig
	}{
		{"baseline", config.Baseline().Mem},
		{"small", smallMem()},
	}
	for _, m := range mems {
		for _, pf := range []string{"", "managed"} {
			for _, tc := range cases {
				cfg := m.cfg
				cfg.Prefetcher = pf
				t.Run(m.name+"/pf="+pf+"/"+tc.name, func(t *testing.T) {
					checkWarmEquivalence(t, cfg, tc.regions)
				})
			}
		}
	}
}

// checkWarmEquivalence warms one cold hierarchy with WarmRegions and one
// with the per-line reference, requires identical array state, then
// requires identical results and statistics under the same random
// accesses.
func checkWarmEquivalence(t *testing.T, cfg config.MemConfig, regions [][2]uint64) {
	stGot, stWant := &stats.Sim{}, &stats.Sim{}
	got := NewHierarchy(cfg, config.OracleNone, stGot)
	want := NewHierarchy(cfg, config.OracleNone, stWant)
	got.WarmRegions(regions)
	warmPerLine(want, regions)

	for i, pair := range [][2]*Cache{{got.l1, want.l1}, {got.l2, want.l2}, {got.llc, want.llc}} {
		g, w := pair[0], pair[1]
		if g.stamp != w.stamp {
			t.Fatalf("cache level %d: stamp %d, want %d", i, g.stamp, w.stamp)
		}
		if gs, ws := cacheSets(g), cacheSets(w); !reflect.DeepEqual(gs, ws) {
			t.Fatalf("cache level %d: set contents differ from the per-line sweep", i)
		}
	}
	if got.tlb.stamp != want.tlb.stamp {
		t.Fatalf("DTLB stamp %d, want %d", got.tlb.stamp, want.tlb.stamp)
	}
	if !reflect.DeepEqual(tlbSets(got.tlb), tlbSets(want.tlb)) {
		t.Fatal("DTLB set contents differ from the per-line sweep")
	}

	rng := rand.New(rand.NewPCG(uint64(len(regions)), 7))
	now := uint64(1000)
	for i := 0; i < 50_000; i++ {
		var addr uint64
		if len(regions) > 0 && rng.IntN(4) != 0 {
			r := regions[rng.IntN(len(regions))]
			addr = r[0] + rng.Uint64N(r[1]+64<<10) // the region and just past it
		} else {
			addr = rng.Uint64N(64 << 20)
		}
		pc := 0x400000 + rng.Uint64N(32)*4
		countLoad := rng.IntN(2) == 0
		now += rng.Uint64N(4)
		gr := got.Access(addr, pc, now, countLoad)
		wr := want.Access(addr, pc, now, countLoad)
		if gr != wr {
			t.Fatalf("access %d to %#x at cycle %d: %+v, want %+v", i, addr, now, gr, wr)
		}
	}
	if !reflect.DeepEqual(stGot, stWant) {
		t.Fatalf("statistics differ after the random accesses:\n got %+v\nwant %+v", *stGot, *stWant)
	}
}

func TestWarmRegionsPanicsWhenNotCold(t *testing.T) {
	for name, touch := range map[string]func(h *Hierarchy){
		"access": func(h *Hierarchy) { h.Access(0x1000, 0, 0, true) },
		"warm":   func(h *Hierarchy) { h.Warm(0x1000) },
		"warm-regions": func(h *Hierarchy) {
			h.WarmRegions([][2]uint64{{0x1000, 64}})
		},
	} {
		t.Run(name, func(t *testing.T) {
			h, _ := testHierarchy(config.OracleNone)
			touch(h)
			defer func() {
				if recover() == nil {
					t.Error("WarmRegions on a touched hierarchy did not panic")
				}
			}()
			h.WarmRegions([][2]uint64{{0x2000, 4096}})
		})
	}
}
