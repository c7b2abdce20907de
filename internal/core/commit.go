package core

import (
	"rfpsim/internal/isa"
	"rfpsim/internal/rfp"
	"rfpsim/internal/stats"
)

// commit retires up to Width completed uops in program order, training the
// retirement-time predictors (the RFP Prefetch Table trains here because
// program order makes stride detection trivial, §3.1) and validating value
// predictions. A wrong predicted value flushes everything younger and
// restarts the frontend after the flush penalty.
func (c *Core) commit() {
	n := 0
	defer func() {
		// Top-down slot accounting: whatever the loop did not retire this
		// cycle is charged to the blocking reason at the head.
		c.st.Slots.Retired += uint64(n)
		lost := uint64(c.cfg.Width - n)
		if lost == 0 {
			return
		}
		if c.robCount == 0 {
			c.st.Slots.StallEmpty += lost
			return
		}
		e := &c.rob[c.robHead]
		switch {
		case !e.valid:
			c.st.Slots.StallEmpty += lost
		case e.isLoad():
			c.st.Slots.StallLoad += lost
		default:
			c.st.Slots.StallExec += lost
		}
	}()
	for ; n < c.cfg.Width && c.robCount > 0; n++ {
		e := &c.rob[c.robHead]
		if !e.valid || !e.issued || c.doneReal[c.robHead] > c.cycle || e.execDone > c.cycle {
			if e.valid && n == 0 {
				c.blameHeadStall(e)
			}
			return
		}

		// EPP retirement validation: a Store Sequence Bloom Filter hit
		// (true or false positive) forces the load to re-execute before
		// it may retire (§2.2).
		if e.eppPredicted && c.ssbf != nil && c.ssbf.MayConflict(isa.LineAddr(e.op.Addr)) {
			e.eppPredicted = false
			e.execDone = c.cycle + c.hier.Latency(stats.LevelL1)
			c.st.EPPReexecutions++
			return
		}

		// Value prediction validation at retirement.
		if e.vpPredicted && !e.vpFlushed {
			if e.vpWrong {
				e.vpFlushed = true
				c.st.VP.Mispredicted++
				c.st.VPFlushes++
				c.flushFrom(1, true) // squash everything younger
				blocked := c.cycle + uint64(c.cfg.FlushPenalty)
				if blocked > c.fetchBlockedUntil {
					c.fetchBlockedUntil = blocked
				}
			} else {
				c.st.VP.Correct++
			}
		}

		c.retire(e)
	}
}

// blameHeadStall attributes a commit-head stall for criticality training.
// If the stalled entry is itself an unfinished load, it is critical; if it
// is waiting on an unfinished source produced by a load (the common case:
// an ALU consumer heads the ROB while its load crawls through the
// hierarchy), the blame propagates to that load.
func (c *Core) blameHeadStall(e *entry) {
	e.stalledHead = true
	if c.crit == nil {
		return
	}
	if e.isLoad() {
		return // marked at its own retirement via stalledHead
	}
	for s := 0; s < 2; s++ {
		if p := c.producerOf(e, s); p >= 0 && c.rob[p].isLoad() && c.doneReal[p] > c.cycle {
			c.crit.MarkCritical(c.rob[p].op.PC)
		}
	}
}

// retire finalizes the head entry and frees its resources.
func (c *Core) retire(e *entry) {
	switch {
	case e.isLoad():
		c.st.Loads++
		c.lq.popHead()
		if c.profile != nil {
			c.profile.record(e)
		}
		c.trainLoadCommit(e.op.PC, e.pathAtDispatch, e.pathAtFetch, e.op.Addr, e.op.Value)
		// The cache-level predictor trains here and only here: the serving
		// level is a timing fact known at retirement, and commit-order
		// training keeps squashed or replayed instances out of the table
		// (FastForward deliberately skips it — functional warming has no
		// levels to observe).
		if c.clp != nil {
			if e.clpPredicted && int(e.clpLevel) == e.hitLevel {
				c.st.CLP.Correct[e.clpLevel]++
			}
			c.clp.Train(e.op.PC, e.hitLevel)
		}
		if c.crit != nil {
			if e.stalledHead {
				c.crit.MarkCritical(e.op.PC)
			} else {
				c.crit.MarkBenign(e.op.PC)
			}
		}
		if c.dlvp != nil {
			c.dlvp.TrainFwd(e.op.PC, e.forwarded)
		}
	case e.isStore():
		c.st.Stores++
		c.sq.popHead()
	case e.op.IsBranch():
		c.st.Branches++
	}
	c.releaseDstAtRetire(e)
	// Release the rename-table mapping if this uop is still the youngest
	// producer of its destination.
	if e.op.Dst.Valid() {
		if p := c.renameTable[e.op.Dst]; p.valid && p.seq == e.op.Seq {
			c.renameTable[e.op.Dst] = producer{}
		}
	}
	if c.chk != nil {
		c.chk.observeRetire(c, e)
	}
	c.traceUopEvent("commit    ", &e.op)
	if c.onRetire != nil {
		c.onRetire(e)
	}
	if c.onCommit != nil {
		c.onCommit(&e.op)
	}
	e.valid = false
	c.retiredSeq = e.op.Seq
	if c.robHead++; c.robHead == len(c.rob) {
		c.robHead = 0
	}
	c.robCount--
	c.committed++
}

// trainLoadCommit trains the retirement-order load predictors shared by
// commit and functional fast-forward: the RFP Prefetch Table / context
// predictor (dispatch-time path), EVES, and the DLVP address table —
// which predicts at fetch, so it must train with the fetch-time path
// history or lookups never hit. The tables are independent of each
// other, so one ordering serves both callers.
func (c *Core) trainLoadCommit(pc, dispatchPath, fetchPath, addr, value uint64) {
	if c.pf != nil {
		c.pf.Commit(pc, dispatchPath, addr)
	}
	if c.eves != nil {
		c.eves.Train(pc, value)
	}
	if c.dlvp != nil {
		c.dlvp.TrainAddr(pc, fetchPath, addr)
	}
}

// flushFrom squashes every in-flight uop from the given ROB offset
// (inclusive) to the tail, returning their uops — plus everything still in
// the fetch queue — to the replay buffer in program order. It rebuilds the
// rename table from the surviving window. Offsets < robCount are required.
func (c *Core) flushFrom(fromOff int, refetch bool) {
	if fromOff >= c.robCount {
		c.requeueFetchQ(nil)
		return
	}
	c.traceFlush(fromOff, c.robCount-fromOff)
	// Collect squashed uops oldest-first and undo their bookkeeping. The
	// collection buffer is owned by the Core and reused across flushes
	// (its contents are copied into the replay buffer before this
	// function returns), keeping branch-mispredict recovery off the heap.
	squashed := c.squashBuf[:0]
	firstSeq := uint64(0)
	for off := fromOff; off < c.robCount; off++ {
		e := &c.rob[c.robIndex(off)]
		if !e.valid {
			continue
		}
		if firstSeq == 0 {
			firstSeq = e.op.Seq
		}
		op := e.op
		op.Seq = 0 // reassigned at re-dispatch
		squashed = append(squashed, op)
		if e.inRS {
			c.rsCount--
		}

		switch {
		case e.isLoad():
			if e.ptAllocated {
				c.pf.Squash(e.op.PC)
				if c.chk != nil && c.chk.invariants {
					c.chk.ptDecrement(c)
				}
			}
			if e.evesAllocated {
				c.eves.Squash(e.op.PC)
			}
			if e.dlvpAllocated {
				c.dlvp.Squash(e.op.PC, e.pathAtFetch)
			}
		case e.isStore():
			if e.addrKnown && c.chk != nil {
				c.chk.dropStoreIssued(e.op.Seq, e.op.Addr)
			}
		}
	}
	// The squashed suffix is the young tail of both LSQ indexes. Wakeup
	// bits of squashed slots go stale, which issue tolerates.
	if firstSeq != 0 {
		c.lq.truncate(firstSeq)
		c.sq.truncate(firstSeq)
	}
	// Walk the squashed suffix youngest-first to unwind the register
	// mappings: each entry's own register returns to the free list and
	// the architectural map rolls back to the previous writer, ending at
	// the youngest SURVIVING mapping.
	for off := c.robCount - 1; off >= fromOff; off-- {
		e := &c.rob[c.robIndex(off)]
		if !e.valid {
			continue
		}
		c.releaseDstAtSquash(e)
		if !c.cfg.LateRegAlloc && e.op.Dst.Valid() {
			c.aratPReg[e.op.Dst] = e.prevPReg
		}
		e.valid = false
	}
	c.robCount = fromOff

	// Squashed prefetch packets evaporate from the RFP queue.
	if c.rfpQ != nil && firstSeq != 0 {
		dropped := c.rfpQ.DropWhere(func(p rfp.Packet) bool {
			return uint64(p.LoadID) >= firstSeq
		})
		c.st.RFP.Dropped += uint64(dropped)
	}

	// Rebuild the rename table from the surviving suffix.
	c.renameTable = [isa.NumArchRegs]producer{}
	for off := 0; off < c.robCount; off++ {
		e := &c.rob[c.robIndex(off)]
		if e.valid && e.op.Dst.Valid() {
			c.renameTable[e.op.Dst] = producer{seq: e.op.Seq, idx: c.robIndex(off), valid: true}
		}
	}

	c.squashBuf = squashed // keep any capacity growth for the next flush
	if refetch {
		c.requeueFetchQ(squashed)
	}

	// The squashed window may have contained the mispredicted branch that
	// was blocking fetch; recompute the halt from what survived.
	c.fetchHalted = false
	for off := 0; off < c.robCount; off++ {
		e := &c.rob[c.robIndex(off)]
		if e.valid && e.op.IsBranch() && e.mispredicted && !e.issued {
			c.fetchHalted = true
			break
		}
	}
}

// requeueFetchQ returns squashed ROB uops plus the current fetch queue to
// the front of the replay buffer, in program order, undoing fetch-time
// predictor allocations. The merged buffer is built in a Core-owned
// scratch slice and swapped with the replay buffer, so steady-state
// flushes reuse the two backing arrays instead of allocating.
func (c *Core) requeueFetchQ(squashed []isa.MicroOp) {
	merged := append(c.mergeBuf[:0], squashed...)
	for i := c.fetchHead; i < len(c.fetchQ); i++ {
		f := &c.fetchQ[i]
		if f.dlvpPredicted {
			c.dlvp.Squash(f.op.PC, f.pathAtFetch)
		}
		op := f.op
		op.Seq = 0
		merged = append(merged, op)
	}
	c.fetchQ = c.fetchQ[:0]
	c.fetchHead = 0

	if len(merged) == 0 {
		c.mergeBuf = merged
		return
	}
	merged = append(merged, c.pending[c.pendingHead:]...)
	// Swap buffers: the old replay backing array becomes the next flush's
	// scratch (its live contents were just copied into merged).
	c.mergeBuf = c.pending[:0]
	c.pending = merged
	c.pendingHead = 0
}
