package rfp

import "rfpsim/internal/config"

// Prefetcher is the complete RFP address-prediction engine: the stride
// Prefetch Table, optionally backed by the path-based context predictor.
// The core calls Allocate at rename, Commit at retirement and Squash on
// wrong-path loads; the queue and pipeline integration live in the core.
type Prefetcher struct {
	table *Table
	ctx   *Context
	cfg   config.RFPConfig
}

// NewPrefetcher builds the engine for cfg; seed drives the probabilistic
// confidence counters.
func NewPrefetcher(cfg config.RFPConfig, seed uint64) *Prefetcher {
	p := &Prefetcher{table: NewTable(cfg, seed), cfg: cfg}
	if cfg.UseContext {
		p.ctx = NewContext(cfg.ContextEntries)
	}
	return p
}

// Allocate is called when a load allocates into the OOO window. path is the
// global branch-path hash at the load (used only by the context predictor).
// It returns the predicted prefetch address when the load is RFP-eligible.
func (p *Prefetcher) Allocate(pc, path uint64) (addr uint64, eligible bool) {
	addr, eligible = p.table.Allocate(pc)
	if eligible {
		return addr, true
	}
	if p.ctx != nil {
		return p.ctx.Predict(pc, path)
	}
	return 0, false
}

// Commit trains all predictors at load retirement.
func (p *Prefetcher) Commit(pc, path, addr uint64) {
	p.table.Commit(pc, addr)
	if p.ctx != nil {
		p.ctx.Train(pc, path, addr)
	}
}

// CopyFrom makes p a copy of src's trained state: the prefetch table with
// its PAT and confidence rng, and the context predictor. Both must be
// built from the same configuration; p keeps its own storage, and its rng
// is a copy of src's, not shared with it.
func (p *Prefetcher) CopyFrom(src *Prefetcher) {
	p.table.copyFrom(src.table)
	if p.ctx != nil {
		copy(p.ctx.entries, src.ctx.entries)
	}
}

// Squash releases the in-flight slot of a squashed load.
func (p *Prefetcher) Squash(pc uint64) { p.table.Squash(pc) }

// InflightUnderflows exposes the Prefetch Table's in-flight underflow
// count for the runtime invariant layer (config.Checks).
func (p *Prefetcher) InflightUnderflows() uint64 { return p.table.InflightUnderflows() }

// StorageBits returns the total predictor storage in bits (Table 1).
func (p *Prefetcher) StorageBits() int {
	bits := p.table.StorageBits()
	if p.ctx != nil {
		bits += p.ctx.StorageBits()
	}
	return bits
}

// StorageReport describes the Table 1 storage accounting for a
// configuration.
type StorageReport struct {
	// PTBits is the Prefetch Table cost in bits.
	PTBits int
	// PATBits is the Page Address Table cost in bits (0 when disabled).
	PATBits int
	// RFPInflightBits is one bit per reservation-station entry.
	RFPInflightBits int
}

// TotalBits sums the report.
func (r StorageReport) TotalBits() int { return r.PTBits + r.PATBits + r.RFPInflightBits }

// Storage computes the Table 1 storage bill for an RFP configuration and
// reservation-station size.
func Storage(cfg config.RFPConfig, rsEntries int) StorageReport {
	per := 16 + cfg.ConfidenceBits + 2 + 8 + 7
	var patBits int
	if cfg.UsePAT {
		per += 6 + 12
		patBits = cfg.PATEntries * 44
	} else {
		per += 64
	}
	return StorageReport{
		PTBits:          cfg.PTEntries * per,
		PATBits:         patBits,
		RFPInflightBits: rsEntries,
	}
}
