package core

import (
	"fmt"
	"maps"
	"slices"

	"rfpsim/internal/config"
	"rfpsim/internal/isa"
	"rfpsim/internal/mem"
	"rfpsim/internal/predictor"
)

// Fork returns an independent full core built from cfg in the state this
// one is in, for a core that has only been warmed functionally
// (WarmCaches and FastForward, no cycle simulation), built by New or
// NewFunctional. Sampled replay (internal/sample) fast-forwards one
// functional core through a job's stream and forks it at each
// simulation point, once per member of the job's family, instead of
// fast-forwarding a fresh core from uop 0 per point and config.
//
// cfg may differ from the source's configuration, but only outside
// config.FunctionalKey: those fields are invisible to WarmCaches and
// FastForward, so a core warmed under cfg itself would be in the same
// state. The fork is built by New from cfg and a clone of the generator
// at its current position, then receives a copy of exactly the state
// WarmCaches and FastForward write:
//   - the L1, L2, LLC and DTLB arrays and their stamps;
//   - the branch direction predictor (TAGE or gshare);
//   - the hit/miss predictor;
//   - the RFP prefetch table with its PAT and rng, and the context
//     predictor;
//   - EVES and DLVP, rng included;
//   - both path-history registers, the fast-forwarded uop count and the
//     generator-exhausted flag;
//   - the checker's functional store shadow, when a checker exists.
//
// Everything else is New's own: statistics, pipeline structures, the
// predictors FastForward leaves untrained, and the hardware prefetcher.
// Nothing mutable is shared with the source (rng states are copied by
// value, and every statistics pointer in the fork's hierarchy names the
// fork's block), so the two cores can run on independently. Hooks and
// attachments (OnCommit, pipe traces, profiles, injected faults, commit
// digests) are not carried over.
//
// A non-nil reuse is a fork its caller has finished with. The new fork
// takes over its cache and DTLB arrays, which the copy above overwrites
// completely, instead of allocating them; reuse must not be used again.
//
// Fork fails if the core has simulated, if its generator cannot be
// cloned (see isa.Cloner), if cfg does not validate, or if cfg's or
// reuse's configuration has another FunctionalKey than the source's.
func (c *Core) Fork(cfg config.Core, reuse *Core) (*Core, error) {
	if c.cycle != 0 || c.robCount != 0 || c.fetchQLen() != 0 || c.nextSeq != 0 {
		return nil, fmt.Errorf("core: Fork called on a core that already simulated (cycle %d)", c.cycle)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: cannot fork: %w", err)
	}
	key := config.FunctionalKey(c.cfg)
	if config.FunctionalKey(cfg) != key {
		return nil, fmt.Errorf("core: cannot fork a core warmed under config %q into %q: their functional keys differ", c.cfg.Name, cfg.Name)
	}
	if reuse != nil && config.FunctionalKey(reuse.cfg) != key {
		return nil, fmt.Errorf("core: cannot fork over config %q's arrays: its functional key differs from %q's", reuse.cfg.Name, c.cfg.Name)
	}
	return c.fork(cfg, reuse)
}

// fork is Fork without the checks on configurations.
func (c *Core) fork(cfg config.Core, reuse *Core) (*Core, error) {
	gen := isa.Clone(c.gen)
	if gen == nil {
		return nil, fmt.Errorf("core: cannot fork: generator %q is not forkable", c.gen.Name())
	}
	var arrays *mem.Hierarchy
	if reuse != nil {
		arrays = reuse.hier
	}
	f := newFull(cfg, gen, arrays)
	f.hier.CopyWarmState(c.hier)
	switch bp := c.bp.(type) {
	case *predictor.TAGE:
		f.bp.(*predictor.TAGE).CopyFrom(bp)
	case *predictor.Branch:
		f.bp.(*predictor.Branch).CopyFrom(bp)
	default:
		panic(fmt.Sprintf("core: Fork has no copy for direction predictor %T", c.bp))
	}
	f.hm.CopyFrom(c.hm)
	if c.pf != nil {
		f.pf.CopyFrom(c.pf)
	}
	if c.eves != nil {
		f.eves.CopyFrom(c.eves)
	}
	if c.dlvp != nil {
		f.dlvp.CopyFrom(c.dlvp)
	}
	f.pathHash, f.fetchPath = c.pathHash, c.fetchPath
	f.ffConsumed, f.genDone = c.ffConsumed, c.genDone
	if c.chk != nil {
		if f.chk == nil {
			f.chk = newChecker(c.chk.invariants)
		}
		f.chk.copyShadow(c.chk)
	}
	return f, nil
}

// copyShadow makes k's program-order memory image a deep copy of src's:
// the only checker state FastForward writes (noteStoreFunctional).
func (k *checker) copyShadow(src *checker) {
	k.retired = maps.Clone(src.retired)
	k.issued = make(map[uint64][]memVersion, len(src.issued))
	for w, list := range src.issued {
		k.issued[w] = slices.Clone(list)
	}
}
