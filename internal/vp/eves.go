// Package vp implements the prior-art comparison points of Sections 5.3
// and 5.4: an EVES-style load value predictor, the DLVP path-based address
// predictor (with its no-forward filter), the Composite fusion of the two,
// and the SSBF used by the EPP scheme. The pipeline costs (flushes, port
// arbitration, probe timing) are modelled by internal/core; this package is
// the predictor state.
package vp

import (
	"rfpsim/internal/config"
	"rfpsim/internal/prng"
)

// evesEntry tracks one static load's value behaviour: last value, value
// stride, a high saturation confidence counter and an in-flight counter so
// back-to-back instances of a strided value chain predict distinct values.
type evesEntry struct {
	tag      uint16
	valid    bool
	hasBase  bool
	lastVal  uint64
	stride   int64
	conf     uint8
	inflight int16
	lru      uint64
}

// EVES is a last-value + stride (E-Stride flavored) value predictor with
// the very high confidence thresholds value prediction requires: a
// misprediction costs a full pipeline flush (20 cycles in the paper), so
// predictions are only used after a long run of consistent behaviour. That
// accuracy/coverage trade-off is exactly what limits VP coverage relative
// to RFP (§5.3).
type EVES struct {
	sets    int
	ways    int
	entries []evesEntry
	confMax uint8
	rng     *prng.Source
	prob    int
	stamp   uint64
}

// evesWays is the predictor associativity.
const evesWays = 4

// NewEVES builds the predictor from cfg.
func NewEVES(cfg config.VPConfig, seed uint64) *EVES {
	entries := cfg.Entries
	if entries < evesWays {
		entries = evesWays
	}
	entries -= entries % evesWays
	confMax := uint8(cfg.ConfMax)
	if confMax == 0 {
		confMax = 15
	}
	prob := cfg.ConfProb
	if prob <= 0 {
		prob = 1
	}
	return &EVES{
		sets:    entries / evesWays,
		ways:    evesWays,
		entries: make([]evesEntry, entries),
		confMax: confMax,
		rng:     prng.New(seed),
		prob:    prob,
	}
}

// CopyFrom makes v a copy of src's trained state: entries, stamp and the
// confidence rng (copied by value, not shared). Both must be built from
// the same configuration.
func (v *EVES) CopyFrom(src *EVES) {
	copy(v.entries, src.entries)
	*v.rng = *src.rng
	v.stamp = src.stamp
}

func (v *EVES) setFor(pc uint64) int    { return int((pc >> 2) % uint64(v.sets)) }
func (v *EVES) tagFor(pc uint64) uint16 { return uint16((pc>>2)/uint64(v.sets)) | 1 }

func (v *EVES) find(pc uint64) *evesEntry {
	base := v.setFor(pc) * v.ways
	tag := v.tagFor(pc)
	for i := base; i < base+v.ways; i++ {
		if v.entries[i].valid && v.entries[i].tag == tag {
			return &v.entries[i]
		}
	}
	return nil
}

func (v *EVES) alloc(pc uint64) *evesEntry {
	base := v.setFor(pc) * v.ways
	victim := base
	for i := base; i < base+v.ways; i++ {
		e := &v.entries[i]
		if !e.valid {
			victim = i
			break
		}
		// Trained entries resist eviction by cold allocations.
		w := &v.entries[victim]
		if e.conf < w.conf || (e.conf == w.conf && e.lru < w.lru) {
			victim = i
		}
	}
	v.stamp++
	v.entries[victim] = evesEntry{tag: v.tagFor(pc), valid: true, lru: v.stamp}
	return &v.entries[victim]
}

// Predict is called at rename; it returns the predicted value when the
// entry's confidence is saturated, and counts the instance in flight. A
// missing entry is created here (not at first training) so the in-flight
// counter covers every dynamic instance — creating it at retirement would
// leave the counter short by the pipeline occupancy at creation, shifting
// every strided value prediction and turning a "confident" entry into a
// reliable mispredictor (each miss costs a full flush).
func (v *EVES) Predict(pc uint64) (val uint64, ok bool) {
	e := v.find(pc)
	if e == nil {
		e = v.alloc(pc)
	}
	if e.inflight < 1<<14 {
		e.inflight++
	}
	v.stamp++
	e.lru = v.stamp
	if e.conf < v.confMax || !e.hasBase {
		return 0, false
	}
	return uint64(int64(e.lastVal) + e.stride*int64(e.inflight)), true
}

// Train updates the predictor with the committed value.
func (v *EVES) Train(pc uint64, val uint64) {
	e := v.find(pc)
	if e == nil {
		// Evicted while in flight: recreate with the base established.
		e = v.alloc(pc)
		e.lastVal = val
		e.hasBase = true
		return
	}
	if e.inflight > 0 {
		e.inflight--
	}
	if !e.hasBase {
		e.lastVal = val
		e.hasBase = true
		return
	}
	stride := int64(val) - int64(e.lastVal)
	if stride == e.stride {
		if e.conf < v.confMax && v.rng.OneIn(v.prob) {
			e.conf++
		}
	} else {
		e.stride = stride
		e.conf = 0
	}
	e.lastVal = val
}

// Squash releases the in-flight slot of a squashed load.
func (v *EVES) Squash(pc uint64) {
	if e := v.find(pc); e != nil && e.inflight > 0 {
		e.inflight--
	}
}
