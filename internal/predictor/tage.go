package predictor

// TAGE is a TAgged GEometric-history-length branch predictor (Seznec &
// Michaud, JILP 2006 — reference [66] territory for the paper's era of
// cores; Tiger-Lake-class machines ship TAGE-like predictors). It backs a
// bimodal base table with several partially tagged tables indexed by
// geometrically increasing history lengths; the longest matching history
// provides the prediction, and the "useful" bits steer replacement.
//
// The simulator uses it as the high-fidelity alternative to gshare: branch
// bubbles compete with load latency for the critical path, so predictor
// quality modulates how much RFP's latency hiding is worth (the bpquality
// experiment).
type TAGE struct {
	base []uint8 // bimodal 2-bit counters

	tables []tageTable
	// ghist is the global history (newest outcome in bit 0).
	ghist uint64
	// useAltOnNA biases between provider and alternate prediction for
	// weak (newly allocated) entries.
	useAltOnNA int8

	// lastCtx caches the lookup context between Predict and Update so the
	// update trains exactly what predicted. (The simulator resolves
	// branches in fetch order relative to their own prediction, so the
	// single-entry cache matches hardware's inflight prediction state.)
	last tageCtx

	allocTick uint64 // pseudo-random allocation tie-breaker
}

type tageTable struct {
	histLen uint
	mask    uint64
	entries []tageEntry
}

type tageEntry struct {
	tag uint16
	ctr int8  // signed 3-bit: >=0 taken
	u   uint8 // 2-bit usefulness
}

// tageCtx is copied by value into t.last on every prediction, so its
// per-table lookup state is fixed-size arrays rather than slices: Predict
// runs once per fetched branch and must not allocate.
type tageCtx struct {
	pc        uint64
	provider  int // table index, -1 = base
	altPred   bool
	provPred  bool
	provIdx   [tageTables]int
	provTag   [tageTables]uint16
	weakEntry bool
	valid     bool
}

// tage geometry.
const (
	tageTables    = 4
	tageTableBits = 10
	tageBaseBits  = 12
	tageCtrMax    = 3
	tageCtrMin    = -4
	tageUMax      = 3
)

// NewTAGE builds the predictor with four tagged tables on history lengths
// 5, 15, 44 and 64 (a geometric series, clamped to the 64-bit history
// register) over a 2^12-entry bimodal base.
func NewTAGE() *TAGE {
	t := &TAGE{base: make([]uint8, 1<<tageBaseBits)}
	for i := range t.base {
		t.base[i] = 2 // weakly taken
	}
	for _, h := range []uint{5, 15, 44, 64} {
		t.tables = append(t.tables, tageTable{
			histLen: h,
			mask:    uint64(1<<tageTableBits - 1),
			entries: make([]tageEntry, 1<<tageTableBits),
		})
	}
	return t
}

// CopyFrom makes t a copy of src: tables, history, the alt-on-new-alloc
// counter, the pending prediction and the allocation tick. Both must come
// from NewTAGE; t keeps its own table storage.
func (t *TAGE) CopyFrom(src *TAGE) {
	base, tables := t.base, t.tables
	*t = *src
	t.base, t.tables = base, tables
	copy(t.base, src.base)
	for i := range t.tables {
		copy(t.tables[i].entries, src.tables[i].entries)
	}
}

// foldHistory compresses len bits of history into width bits.
func foldHistory(h uint64, length, width uint) uint64 {
	if length > 64 {
		length = 64
	}
	h &= (1 << length) - 1
	var folded uint64
	for length > 0 {
		folded ^= h & (1<<width - 1)
		h >>= width
		if length < width {
			break
		}
		length -= width
	}
	return folded
}

func (t *TAGE) tableIndex(ti int, pc uint64) int {
	tab := &t.tables[ti]
	h := foldHistory(t.ghist, tab.histLen, tageTableBits)
	return int((pc>>2 ^ pc>>7 ^ h) & tab.mask)
}

func (t *TAGE) tableTag(ti int, pc uint64) uint16 {
	tab := &t.tables[ti]
	h := foldHistory(t.ghist, tab.histLen, 9)
	return uint16((pc>>2^h<<1^pc>>11)&0x1FF) | 0x200 // 10-bit tag, never 0
}

func (t *TAGE) basePred(pc uint64) bool {
	return t.base[(pc>>2)&(1<<tageBaseBits-1)] >= 2
}

// Predict returns the predicted direction for pc and caches the lookup
// context for the matching Update call.
func (t *TAGE) Predict(pc uint64) bool {
	ctx := tageCtx{pc: pc, provider: -1, valid: true}
	for ti := range t.tables {
		ctx.provIdx[ti] = t.tableIndex(ti, pc)
		ctx.provTag[ti] = t.tableTag(ti, pc)
	}
	ctx.altPred = t.basePred(pc)
	pred := ctx.altPred
	alt := ctx.altPred
	for ti := len(t.tables) - 1; ti >= 0; ti-- {
		e := &t.tables[ti].entries[ctx.provIdx[ti]]
		if e.tag != ctx.provTag[ti] {
			continue
		}
		if ctx.provider == -1 {
			ctx.provider = ti
			ctx.provPred = e.ctr >= 0
			ctx.weakEntry = e.ctr == 0 || e.ctr == -1
		} else {
			alt = e.ctr >= 0
			break
		}
	}
	if ctx.provider >= 0 {
		ctx.altPred = alt
		if ctx.weakEntry && t.useAltOnNA > 0 {
			pred = ctx.altPred
		} else {
			pred = ctx.provPred
		}
	}
	t.last = ctx
	return pred
}

// Update trains the predictor with the resolved direction for pc. It must
// follow the Predict call for the same branch (the simulator's in-order
// fetch guarantees this).
func (t *TAGE) Update(pc uint64, taken bool) {
	ctx := t.last
	if !ctx.valid || ctx.pc != pc {
		// Cold update (e.g. first sight): refresh the context.
		t.Predict(pc)
		ctx = t.last
	}
	t.last.valid = false
	t.allocTick++

	predicted := ctx.provPred
	if ctx.provider == -1 {
		predicted = ctx.altPred
	} else if ctx.weakEntry && t.useAltOnNA > 0 {
		predicted = ctx.altPred
	}

	// Train useAltOnNA on weak-entry disagreements.
	if ctx.provider >= 0 && ctx.weakEntry && ctx.provPred != ctx.altPred {
		if ctx.altPred == taken {
			if t.useAltOnNA < 7 {
				t.useAltOnNA++
			}
		} else if t.useAltOnNA > -8 {
			t.useAltOnNA--
		}
	}

	// Provider counter update.
	if ctx.provider >= 0 {
		e := &t.tables[ctx.provider].entries[ctx.provIdx[ctx.provider]]
		if taken {
			if e.ctr < tageCtrMax {
				e.ctr++
			}
		} else if e.ctr > tageCtrMin {
			e.ctr--
		}
		// Usefulness: provider was right where the alternate was wrong.
		if ctx.provPred != ctx.altPred {
			if ctx.provPred == taken {
				if e.u < tageUMax {
					e.u++
				}
			} else if e.u > 0 {
				e.u--
			}
		}
	} else {
		i := (pc >> 2) & (1<<tageBaseBits - 1)
		if taken {
			if t.base[i] < 3 {
				t.base[i]++
			}
		} else if t.base[i] > 0 {
			t.base[i]--
		}
	}

	// Allocate a longer-history entry on a misprediction.
	if predicted != taken && ctx.provider < len(t.tables)-1 {
		start := ctx.provider + 1
		allocated := false
		for ti := start; ti < len(t.tables); ti++ {
			e := &t.tables[ti].entries[ctx.provIdx[ti]]
			if e.u == 0 {
				e.tag = ctx.provTag[ti]
				e.ctr = ctrInit(taken)
				e.u = 0
				allocated = true
				break
			}
		}
		if !allocated {
			// Decay usefulness so future allocations can land.
			for ti := start; ti < len(t.tables); ti++ {
				e := &t.tables[ti].entries[ctx.provIdx[ti]]
				if e.u > 0 {
					e.u--
				}
			}
		}
	}

	t.ghist = t.ghist<<1 | boolBit(taken)
}

func ctrInit(taken bool) int8 {
	if taken {
		return 0
	}
	return -1
}
