package core

import (
	"context"
	"fmt"

	"rfpsim/internal/isa"
)

// ffCtxCheckUops is how many functionally consumed uops pass between
// context polls inside FastForward.
const ffCtxCheckUops = 1 << 16

// FastForward consumes n uops from the workload generator without cycle
// simulation, training the long-lived predictive structures along the way
// (SMARTS-style functional warming). It exists for sampled simulation
// (internal/sample): a replayed interval deep inside a workload must see
// the predictor and cache state the full run would have accumulated over
// everything before it, and a short cycle-accurate warmup cannot rebuild
// tables whose useful history spans tens of thousands of uops.
//
// Trained functionally, in program order, exactly as the pipeline would:
//   - the branch direction predictor (Predict+Update per branch — the
//     full run also trains at fetch in fetch order, so the table state
//     matches a full run over the same stream);
//   - both path-history registers (fetch-time and dispatch-time advance
//     identically when nothing is in flight);
//   - cache and TLB contents via Hierarchy.Warm per memory uop;
//   - the RFP prefetch table and context predictor (Commit per load);
//   - the hit/miss predictor (against pre-warm L1 residence);
//   - the EVES and DLVP value/address predictors.
//
// Structures whose training observes pipeline timing — store sets
// (ordering violations), criticality, the cache-level predictor (it
// trains from the level that actually served each load, which only cycle
// simulation produces), the DLVP no-forward filter — are left alone:
// functional warming has no timing to train them with.
//
// FastForward must run before any cycle simulation; it returns an error
// if the core has already fetched or dispatched uops, if the generator
// ends early, or when ctx is cancelled. Statistics are untouched.
func (c *Core) FastForward(ctx context.Context, n uint64) error {
	if n == 0 {
		return nil
	}
	if c.cycle != 0 || c.robCount != 0 || c.fetchQLen() != 0 || c.nextSeq != 0 {
		return fmt.Errorf("core: FastForward called on a core that already simulated (cycle %d)", c.cycle)
	}
	// The scratch uop lives on the Core, as in fetch: a local would escape
	// through the Generator interface call and heap-allocate.
	op := &c.fetchOp
	for i := uint64(0); i < n; i++ {
		if i%ffCtxCheckUops == 0 {
			select {
			case <-ctx.Done():
				return fmt.Errorf("core: fast-forward cancelled at uop %d: %w", i, ctx.Err())
			default:
			}
		}
		if !genNext(c, op) {
			return fmt.Errorf("core: workload ended %d uops into a %d-uop fast-forward", i, n)
		}
		switch {
		case op.IsBranch():
			c.bp.Predict(op.PC)
			c.bp.Update(op.PC, op.Taken)
			step := (op.PC>>2)&0x7 ^ uint64(boolU(op.Taken))
			c.fetchPath = (c.fetchPath<<4 ^ step) & 0xFFFF
			c.pathHash = (c.pathHash<<4 ^ step) & 0xFFFF
		case op.IsLoad():
			if c.hm != nil {
				c.hm.Update(op.PC, c.hier.L1Contains(op.Addr))
			}
			c.trainLoadCommit(op.PC, c.pathHash, c.fetchPath, op.Addr, op.Value)
			c.hier.Warm(op.Addr)
		case op.IsStore():
			if c.chk != nil {
				c.chk.noteStoreFunctional(op.Addr, op.Value)
			}
			c.hier.Warm(op.Addr)
		}
	}
	c.ffConsumed += n
	return nil
}

// genNext pulls the next uop for fast-forward, recording generator
// exhaustion the same way fetch does.
func genNext(c *Core, op *isa.MicroOp) bool {
	if c.genDone || !c.gen.Next(op) {
		c.genDone = true
		return false
	}
	return true
}
