package mem

import (
	"fmt"
	"math"

	"rfpsim/internal/config"
	"rfpsim/internal/isa"
	"rfpsim/internal/stats"
)

// Result describes one hierarchy access.
type Result struct {
	// Level is the stats.Level* constant where the data was found.
	Level int
	// DoneAt is the cycle at which the data becomes available to
	// dependent instructions.
	DoneAt uint64
	// TLBMiss reports whether the access missed the DTLB (the page walk
	// latency is already folded into DoneAt).
	TLBMiss bool
}

// inflightMiss records an outstanding cache miss for MSHR merging: a second
// access to the same line before fillAt completes is an "MSHR hit" and gets
// its data when the original fill returns (Figure 2's MSHR-hits category).
type inflightMiss struct {
	lineAddr uint64
	fillAt   uint64
}

// Hierarchy is the three-level data cache hierarchy plus DTLB and DRAM. It
// is deliberately single-core and non-coherent: the paper's study is
// single-threaded.
type Hierarchy struct {
	cfg config.MemConfig

	l1  *Cache
	l2  *Cache
	llc *Cache
	tlb *TLB

	// latency[level] is the load-to-use latency when data is found at
	// level, after oracle adjustment.
	latency [stats.NumLevels]uint64

	inflight []inflightMiss // bounded by MSHR count; small linear scans

	pf Prefetcher // optional L1 hardware prefetcher (stream/spp/sisb/managed)

	st *stats.Sim
}

// NewHierarchy builds the hierarchy for cfg. oracle applies the Figure 1
// idealization (hits at level N served at level N-1's latency). st may be
// nil, in which case no statistics are recorded.
func NewHierarchy(cfg config.MemConfig, oracle config.OracleMode, st *stats.Sim) *Hierarchy {
	return ReuseHierarchy(nil, cfg, oracle, st)
}

// ReuseHierarchy is NewHierarchy, except that a non-nil old hands over
// its L1, L2, LLC and DTLB arrays instead of the new hierarchy allocating
// its own. They keep whatever old left in them, so the caller must
// overwrite them at once with CopyWarmState, as core.Fork does, and must
// not use old again. old must have cfg's geometry; ReuseHierarchy panics
// otherwise.
func ReuseHierarchy(old *Hierarchy, cfg config.MemConfig, oracle config.OracleMode, st *stats.Sim) *Hierarchy {
	h := &Hierarchy{cfg: cfg, st: st}
	if old != nil {
		if !sameGeometry(old.cfg, cfg) {
			panic("mem: ReuseHierarchy over a hierarchy of another geometry")
		}
		h.l1, h.l2, h.llc, h.tlb = old.l1, old.l2, old.llc, old.tlb
	} else {
		h.l1 = NewCache(cfg.L1Sets, cfg.L1Ways)
		h.l2 = NewCache(cfg.L2Sets, cfg.L2Ways)
		h.llc = NewCache(cfg.LLCSets, cfg.LLCWays)
		h.tlb = NewTLB(cfg.DTLBEntries, cfg.DTLBWays)
	}
	if name := cfg.ActivePrefetcher(); name != "" {
		h.pf = newPrefetcher(name, cfg.HWPrefetchDegree, st)
	}
	h.latency[stats.LevelL1] = uint64(cfg.L1Latency)
	h.latency[stats.LevelL2] = uint64(cfg.L2Latency)
	h.latency[stats.LevelLLC] = uint64(cfg.LLCLatency)
	h.latency[stats.LevelMem] = uint64(cfg.MemLatency)
	switch oracle {
	case config.OracleL1ToRF:
		h.latency[stats.LevelL1] = 1
	case config.OracleL2ToL1:
		h.latency[stats.LevelL2] = uint64(cfg.L1Latency)
	case config.OracleLLCToL2:
		h.latency[stats.LevelLLC] = uint64(cfg.L2Latency)
	case config.OracleMemToLLC:
		h.latency[stats.LevelMem] = uint64(cfg.LLCLatency)
	}
	return h
}

// Latency returns the (oracle-adjusted) load-to-use latency for a given hit
// level.
func (h *Hierarchy) Latency(level int) uint64 { return h.latency[level] }

// NearHit reports whether a load served at level completes within the
// private-cache latency bound (the oracle-adjusted L2 latency). The
// CLP-driven RFP arming schedule treats a predicted near hit as safe to
// arm early: its fill time is short and precisely estimable, unlike an
// MSHR merge (whose latency depends on an unrelated in-flight miss) or an
// LLC/DRAM access (which a rename-time prefetch cannot beat anyway).
func (h *Hierarchy) NearHit(level int) bool {
	if level == stats.LevelMSHR {
		return false
	}
	return h.latency[level] <= h.latency[stats.LevelL2]
}

// L1Contains reports whether the line holding addr is present in the L1,
// without perturbing replacement state. DLVP's early probe uses this.
func (h *Hierarchy) L1Contains(addr uint64) bool {
	return h.l1.Contains(isa.LineAddr(addr))
}

// purge drops completed fills and returns the number of occupied MSHRs and
// the earliest completion among them.
func (h *Hierarchy) purge(now uint64) (occupied int, earliest uint64) {
	earliest = ^uint64(0)
	w := h.inflight[:0]
	for _, m := range h.inflight {
		if m.fillAt > now {
			w = append(w, m)
			if m.fillAt < earliest {
				earliest = m.fillAt
			}
		}
	}
	h.inflight = w
	return len(h.inflight), earliest
}

// findInflight returns the outstanding miss covering lineAddr, if any.
func (h *Hierarchy) findInflight(lineAddr uint64) (inflightMiss, bool) {
	for _, m := range h.inflight {
		if m.lineAddr == lineAddr {
			return m, true
		}
	}
	return inflightMiss{}, false
}

// Access performs a demand or prefetch access to addr at cycle now and
// returns where the data was found and when it is usable. pc is the program
// counter of the instruction behind the access (0 when the caller has none);
// the hardware prefetchers train on it. countLoad selects whether the access
// contributes to the Figure 2 load distribution statistics (demand loads and
// the RFP prefetches that stand in for them do; stores and wrong-address
// re-accesses pass false).
func (h *Hierarchy) Access(addr, pc, now uint64, countLoad bool) Result {
	line := isa.LineAddr(addr)
	page := isa.PageFrame(addr)
	var res Result
	if h.st != nil {
		h.st.L1Accesses++
	}

	start := now
	if !h.tlb.Lookup(page) {
		res.TLBMiss = true
		if h.st != nil {
			h.st.DTLBMisses++
		}
		h.tlb.Insert(page)
		start += uint64(h.cfg.PageWalkLatency)
	}

	// The fill for an in-flight miss has not reached the L1 array yet, so
	// outstanding misses take precedence over (eagerly updated) array
	// state: a second access to the line is an MSHR merge.
	occ, earliest := h.purge(start)
	trueMiss := false
	if m, merged := h.findInflight(line); merged {
		// Merge with the outstanding miss: data arrives with the
		// original fill (plus the L1-pipeline tail to deliver it).
		res.Level = stats.LevelMSHR
		res.DoneAt = m.fillAt
		if res.DoneAt < start+h.latency[stats.LevelL1] {
			res.DoneAt = start + h.latency[stats.LevelL1]
		}
		// A merge with an in-flight *prefetch* is a late prefetch:
		// covered, but the latency was only partly hidden.
		if h.pf != nil && h.l1.ConsumePrefetch(line) {
			h.pf.Hit(line)
			if h.st != nil {
				h.st.L1PF.Useful++
				h.st.L1PF.Late++
			}
		}
	} else if hit, wasPF := h.l1.LookupConsume(line); hit {
		res.Level = stats.LevelL1
		res.DoneAt = start + h.latency[stats.LevelL1]
		if wasPF && h.pf != nil {
			h.pf.Hit(line)
			if h.st != nil {
				h.st.L1PF.Useful++
			}
		}
	} else {
		trueMiss = true
		// A true miss needs a free MSHR; if all are busy the request
		// waits for the earliest completion.
		if occ >= h.cfg.L1MSHRs {
			start = earliest
		}
		switch {
		case h.l2.Lookup(line):
			res.Level = stats.LevelL2
		case h.llc.Lookup(line):
			res.Level = stats.LevelLLC
		default:
			res.Level = stats.LevelMem
		}
		res.DoneAt = start + h.latency[res.Level]
		// Fill the line into every level above the hit level
		// (inclusive hierarchy).
		h.l1.fill(line, false)
		if res.Level >= stats.LevelLLC {
			h.l2.fill(line, false)
		}
		if res.Level == stats.LevelMem {
			h.llc.fill(line, false)
		}
		h.inflight = append(h.inflight, inflightMiss{lineAddr: line, fillAt: res.DoneAt})
	}

	// Hardware prefetching: the prefetcher observes every access (hits
	// train signature/temporal schemes; misses train streams) and its
	// candidates are issued behind the demand access, using leftover MSHRs
	// only.
	if h.pf != nil {
		ev := AccessEvent{Line: line, PC: pc, Miss: trueMiss, Load: countLoad}
		for _, pl := range h.pf.Observe(ev) {
			if len(h.inflight) >= h.cfg.L1MSHRs {
				if h.st != nil {
					h.st.L1PF.Dropped++
				}
				break
			}
			if h.l1.Contains(pl) {
				continue
			}
			if _, busy := h.findInflight(pl); busy {
				continue
			}
			lvl := stats.LevelMem
			if h.l2.Lookup(pl) {
				lvl = stats.LevelL2
			} else if h.llc.Lookup(pl) {
				lvl = stats.LevelLLC
			}
			fill := start + h.latency[lvl]
			h.l1.fill(pl, true)
			if lvl >= stats.LevelLLC {
				h.l2.fill(pl, false)
			}
			if lvl == stats.LevelMem {
				h.llc.fill(pl, false)
			}
			h.inflight = append(h.inflight, inflightMiss{lineAddr: pl, fillAt: fill})
			h.pf.Fill(pl)
			if h.st != nil {
				h.st.L1PF.Issued++
			}
		}
		if h.st != nil {
			h.st.L1PF.Unused += h.l1.TakePFUnused()
		}
	}

	if countLoad && h.st != nil {
		h.st.LoadHitLevel[res.Level]++
	}
	return res
}

// MSHRAvailable reports whether a new miss could take an MSHR at the given
// cycle, or whether the line is already present/in flight (in which case no
// new MSHR is needed). RFP requests, having the lowest priority, consult
// this before issuing so prefetch misses never starve demand loads of miss
// slots.
func (h *Hierarchy) MSHRAvailable(addr uint64, now uint64) bool {
	line := isa.LineAddr(addr)
	occ, _ := h.purge(now)
	if _, merged := h.findInflight(line); merged {
		return true
	}
	if h.l1.Contains(line) {
		return true
	}
	return occ < h.cfg.L1MSHRs
}

// TLBCovers reports whether addr's page currently hits in the DTLB, without
// triggering a walk or refill. RFP consults this to implement the
// drop-on-DTLB-miss simplification before committing L1 bandwidth.
func (h *Hierarchy) TLBCovers(addr uint64) bool {
	return h.tlb.Lookup(isa.PageFrame(addr))
}

// Warm preloads the line holding addr into all levels; workload warmup uses
// it so measurement windows start with realistic cache state.
func (h *Hierarchy) Warm(addr uint64) {
	line := isa.LineAddr(addr)
	h.llc.fill(line, false)
	h.l2.fill(line, false)
	h.l1.fill(line, false)
	h.tlb.Insert(isa.PageFrame(addr))
}

// sameGeometry reports whether two configurations build cache and DTLB
// arrays of the same shape.
func sameGeometry(a, b config.MemConfig) bool {
	return a.L1Sets == b.L1Sets && a.L1Ways == b.L1Ways &&
		a.L2Sets == b.L2Sets && a.L2Ways == b.L2Ways &&
		a.LLCSets == b.LLCSets && a.LLCWays == b.LLCWays &&
		a.DTLBEntries == b.DTLBEntries && a.DTLBWays == b.DTLBWays
}

// CopyWarmState makes h's L1, L2, LLC and DTLB arrays a copy of src's,
// stamps and counters included: everything Warm and WarmRegions write,
// and everything else the arrays hold, so arrays taken over by
// ReuseHierarchy keep nothing of their past. The two hierarchies must
// share a geometry. Core.Fork uses it on a hierarchy that has only been
// warmed, so the MSHR list and the hardware prefetcher are still as
// NewHierarchy built them on both sides and stay h's own.
func (h *Hierarchy) CopyWarmState(src *Hierarchy) {
	h.l1.copyFrom(src.l1)
	h.l2.copyFrom(src.l2)
	h.llc.copyFrom(src.llc)
	h.tlb.copyFrom(src.tlb)
}

// WarmRegions leaves the hierarchy in the state that calling Warm on
// base, base+64, ... below base+size, region by region in order, would
// leave it in, without replaying that sweep. The hierarchy must be cold
// (freshly built and never accessed), and the sweep no longer than the
// 32-bit cache stamps can number; WarmRegions panics otherwise.
//
// Between warming fills there are no lookups, so each true-LRU set ends
// up holding the last ways distinct lines that map to it, each stamped
// with the index of its last touch. WarmRegions walks the sweep from its
// end, stamping the k-th forward call k, and places each line in the
// first invalid way of its set unless the set is full or already holds
// the line (touched later, so a duplicate). Way order within a set is not
// observable: victims are chosen by minimum stamp. The walk stops once
// every cache level and the DTLB are full, so it touches at most the
// LLC's capacity plus duplicates for a contiguous sweep, and never more
// lines than the forward sweep would.
func (h *Hierarchy) WarmRegions(regions [][2]uint64) {
	if h.l1.stamp|h.l2.stamp|h.llc.stamp != 0 || h.tlb.stamp != 0 {
		panic("mem: WarmRegions on a hierarchy that is not cold")
	}
	caches := [...]*Cache{h.l1, h.l2, h.llc}
	var n uint64
	for _, r := range regions {
		n += sweepLines(r[1])
	}
	if n > math.MaxUint32 {
		panic(fmt.Sprintf("mem: WarmRegions over %d lines exceeds the 32-bit cache stamps", n))
	}
	var free [len(caches) + 1]int // empty ways per cache level, then the DTLB
	for i, c := range caches {
		free[i] = len(c.keys)
	}
	free[len(caches)] = len(h.tlb.entries)
	open := len(free)
	take := func(i int, placed bool) {
		if placed {
			if free[i]--; free[i] == 0 {
				open--
			}
		}
	}
	lru := n
	for i := len(regions) - 1; i >= 0 && open > 0; i-- {
		base := regions[i][0]
		for k := sweepLines(regions[i][1]); k > 0 && open > 0; k-- {
			addr := base + (k-1)*isa.CacheLineSize
			line := isa.LineAddr(addr)
			for j, c := range caches {
				if free[j] > 0 {
					take(j, c.fillCold(line, uint32(lru)))
				}
			}
			if free[len(caches)] > 0 {
				take(len(caches), h.tlb.fillCold(isa.PageFrame(addr), lru))
			}
			lru--
		}
	}
	for _, c := range caches {
		c.stamp = uint32(n)
	}
	h.tlb.stamp = n
}

// sweepLines is the number of addresses base, base+64, ... below
// base+size: the Warm calls one region of WarmRegions stands for.
func sweepLines(size uint64) uint64 {
	return size/isa.CacheLineSize + min(size%isa.CacheLineSize, 1)
}
