package vp

import (
	"rfpsim/internal/config"
	"rfpsim/internal/prng"
)

// dlvpEntry tracks the address behaviour of a load under one control-flow
// path: base address, address stride, confidence and an in-flight counter.
type dlvpEntry struct {
	tag      uint16
	valid    bool
	hasBase  bool
	lastAddr uint64
	stride   int64
	conf     uint8
	inflight int16
	lru      uint64
}

// DLVP is the path-based load address predictor of Sheikh, Cain and
// Damodaran (MICRO 2017): at fetch it predicts the load's address from the
// load PC hashed with global branch path history, probes the L1 with the
// prediction, and uses the probed data as a value prediction if it arrives
// before the load allocates. Being flush-on-mispredict, it needs a high
// confidence threshold; being fetch-launched, it also needs the no-forward
// filter below to avoid in-flight-store hazards. Both filters, plus L1
// port availability and probe timing, produce the coverage waterfall of
// Figure 16 (instrumented in the core).
type DLVP struct {
	sets    int
	ways    int
	entries []dlvpEntry
	// High-confidence threshold for actually using a prediction; any
	// lower confidence still counts as "address predictable" in the
	// Figure 16 accounting.
	confHigh uint8
	confMax  uint8
	rng      *prng.Source
	prob     int
	stamp    uint64

	// noFwd is a per-PC filter that suppresses predictions for loads that
	// were recently forwarded from in-flight stores: for those, the L1
	// does not hold the right data at probe time.
	noFwd     []uint8
	noFwdMask uint64
}

// dlvpWays is the predictor associativity.
const dlvpWays = 4

// NewDLVP builds the predictor from cfg.
func NewDLVP(cfg config.VPConfig, seed uint64) *DLVP {
	entries := cfg.Entries
	if entries < dlvpWays {
		entries = dlvpWays
	}
	entries -= entries % dlvpWays
	prob := cfg.ConfProb
	if prob <= 0 {
		prob = 1
	}
	nfSize := 4096
	return &DLVP{
		sets:      entries / dlvpWays,
		ways:      dlvpWays,
		entries:   make([]dlvpEntry, entries),
		confHigh:  uint8(cfg.ConfMax),
		confMax:   uint8(cfg.ConfMax),
		rng:       prng.New(seed),
		prob:      prob,
		noFwd:     make([]uint8, nfSize),
		noFwdMask: uint64(nfSize - 1),
	}
}

// CopyFrom makes d's address table a copy of src's: entries, stamp and
// the confidence rng (copied by value, not shared), the state TrainAddr
// writes. The no-forward filter, trained only by the pipeline, stays d's
// own. Both must be built from the same configuration.
func (d *DLVP) CopyFrom(src *DLVP) {
	copy(d.entries, src.entries)
	*d.rng = *src.rng
	d.stamp = src.stamp
}

func (d *DLVP) index(pc, path uint64) uint64 {
	h := pc ^ path*0x9E3779B97F4A7C15
	return (h ^ h>>13) % uint64(d.sets)
}

func (d *DLVP) tagOf(pc, path uint64) uint16 {
	h := pc ^ path>>5
	return uint16(h>>3) | 1
}

func (d *DLVP) find(pc, path uint64) *dlvpEntry {
	base := int(d.index(pc, path)) * d.ways
	tag := d.tagOf(pc, path)
	for i := base; i < base+d.ways; i++ {
		if d.entries[i].valid && d.entries[i].tag == tag {
			return &d.entries[i]
		}
	}
	return nil
}

func (d *DLVP) alloc(pc, path uint64) *dlvpEntry {
	base := int(d.index(pc, path)) * d.ways
	victim := base
	for i := base; i < base+d.ways; i++ {
		e := &d.entries[i]
		if !e.valid {
			victim = i
			break
		}
		// Trained entries are precious: victimize the lowest-confidence
		// way first so one-shot paths do not churn out stable patterns.
		v := &d.entries[victim]
		if e.conf < v.conf || (e.conf == v.conf && e.lru < v.lru) {
			victim = i
		}
	}
	d.stamp++
	d.entries[victim] = dlvpEntry{tag: d.tagOf(pc, path), valid: true, lru: d.stamp}
	return &d.entries[victim]
}

// Prediction is the outcome of a DLVP lookup at fetch.
type Prediction struct {
	// Addr is the predicted address (valid when Match).
	Addr uint64
	// Match reports whether the predictor had any trained entry whose
	// stride pattern currently repeats (the raw "address predictable"
	// population of Figure 16).
	Match bool
	// HighConfidence reports whether the entry passes the usage
	// threshold.
	HighConfidence bool
}

// PredictAddr looks up the predictor at fetch and counts the instance in
// flight. A missing entry is created here (not at first retirement) so the
// in-flight counter counts every instance from the start; creating it at
// retirement would leave the counter permanently short by the pipeline
// occupancy at creation time, shifting every strided prediction.
func (d *DLVP) PredictAddr(pc, path uint64) Prediction {
	e := d.find(pc, path)
	if e == nil {
		e = d.alloc(pc, path)
		e.lastAddr = 0
		e.conf = 0
	}
	if e.inflight < 1<<14 {
		e.inflight++
	}
	d.stamp++
	e.lru = d.stamp
	addr := uint64(int64(e.lastAddr) + e.stride*int64(e.inflight))
	return Prediction{
		Addr:           addr,
		Match:          e.hasBase && e.conf > 0,
		HighConfidence: e.hasBase && e.conf >= d.confHigh,
	}
}

// TrainAddr updates the address pattern at load retirement.
func (d *DLVP) TrainAddr(pc, path, addr uint64) {
	e := d.find(pc, path)
	if e == nil {
		// Entry evicted while the load was in flight: recreate.
		e = d.alloc(pc, path)
		e.lastAddr = addr
		e.hasBase = true
		return
	}
	if e.inflight > 0 {
		e.inflight--
	}
	if !e.hasBase {
		e.lastAddr = addr
		e.hasBase = true
		return
	}
	stride := int64(addr) - int64(e.lastAddr)
	if stride == e.stride {
		if e.conf < d.confMax && d.rng.OneIn(d.prob) {
			e.conf++
		}
	} else {
		e.stride = stride
		e.conf = 0
	}
	e.lastAddr = addr
}

// Squash releases the in-flight slot of a squashed load.
func (d *DLVP) Squash(pc, path uint64) {
	if e := d.find(pc, path); e != nil && e.inflight > 0 {
		e.inflight--
	}
}

func (d *DLVP) nfIndex(pc uint64) uint64 { return (pc >> 2) & d.noFwdMask }

// AllowedByNoFwd reports whether the no-forward filter permits predicting
// this load (i.e. it has not recently taken data from an in-flight store).
func (d *DLVP) AllowedByNoFwd(pc uint64) bool {
	return d.noFwd[d.nfIndex(pc)] < 2
}

// TrainFwd records whether the committed load was store-forwarded. The
// counter saturates at 3 and decays on non-forwarded instances, so a
// phase-change eventually re-enables prediction.
func (d *DLVP) TrainFwd(pc uint64, wasForwarded bool) {
	i := d.nfIndex(pc)
	if wasForwarded {
		if d.noFwd[i] < 3 {
			d.noFwd[i]++
		}
	} else if d.noFwd[i] > 0 {
		d.noFwd[i]--
	}
}
