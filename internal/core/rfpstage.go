package core

import (
	"rfpsim/internal/stats"
)

// rfpArbitrate drains the RFP queue onto whatever L1 load ports demand
// loads left free this cycle (plus any ports dedicated to RFP in the
// Figure 14 study). Requests are served oldest-first; the queue has the
// lowest priority at the L1 so baseline load latency is never hurt (§3.2).
//
// A granted request walks the same pipeline a load would: DTLB, older-store
// scan with memory disambiguation, then the L1 lookup. The RFP-inflight bit
// becomes visible to the scheduler SchedDepth cycles before the data lands
// in the register file — equal to the wakeup/select/register-read depth, so
// a load that observes the bit at wakeup has its dependents arrive exactly
// when the data does (§3.3).
func (c *Core) rfpArbitrate() {
	if c.rfpQ == nil {
		return
	}
	free := c.cfg.LoadPorts - c.loadUsed + c.cfg.RFPDedicatedPorts
	if c.rfpQ.Len() > 0 && free <= 0 {
		c.st.RFP.PortConflicts++
	}
	// Invariant (§4.3): prefetches may only ever win ports demand loads
	// left free this cycle; grants are counted against the budget
	// computed at entry.
	maxGrants, grants := free, 0
	for free > 0 {
		pkt, ok := c.rfpQ.Peek()
		if !ok {
			return
		}
		e := &c.rob[pkt.Slot]
		if !e.valid || e.op.Seq != uint64(pkt.LoadID) || e.rfp != rfpQueued {
			// The load issued, committed or was squashed meanwhile; the
			// packet is stale. (Drop accounting happened at that event.)
			c.rfpQ.Pop()
			continue
		}

		// Lowest priority extends to miss resources: if serving this
		// prefetch would need the last MSHR, it waits so demand misses
		// are never starved.
		if !c.hier.MSHRAvailable(pkt.Addr, c.cycle) {
			c.st.RFP.PortConflicts++
			return
		}

		// DTLB-miss drop (§3.2.2): a page walk would eat the whole
		// run-ahead, so the prefetch is abandoned before taking a port.
		if c.cfg.RFP.DropOnTLBMiss && !c.hier.TLBCovers(pkt.Addr) {
			c.rfpQ.Pop()
			e.rfp = rfpDropped
			c.st.RFP.Dropped++
			c.st.RFP.DroppedTLBMiss++
			continue
		}

		// Older-store scan with the predicted address (§3.2.1): the
		// prefetch is a proxy for the load, so it performs the same
		// memory disambiguation the load would.
		action, fwdStore := c.rfpScanStores(e, pkt.Addr)
		switch action {
		case storeScanWait:
			// An unresolved same-store-set store blocks the request;
			// FIFO order makes this head-of-line blocking, as in the
			// real queue.
			return
		case storeScanForward:
			// The up-to-date data comes from the store queue entry.
			c.rfpQ.Pop()
			free--
			if grants++; grants > maxGrants && c.chk != nil && c.chk.invariants {
				c.st.Checks.RFPPortOvercommit++
			}
			e.rfp = rfpExecuted
			e.rfpAddr = pkt.Addr
			e.rfpFillAt = c.cycle + 1
			e.rfpArmedAt = c.cycle + 1
			e.rfpLevel = stats.LevelL1
			e.forwardedFromSeq = fwdStore.op.Seq
			if c.chk != nil {
				e.rfpData, e.rfpDataKnown, e.rfpDataInit = fwdStore.op.Value, true, false
			}
			c.st.RFP.Executed++
			continue
		}

		// L1 lookup. Optionally drop requests that miss the L1 (§5.5.5
		// sensitivity: serving misses is worth only ~0.02%).
		if !c.cfg.RFP.PrefetchOnL1Miss && !c.hier.L1Contains(pkt.Addr) {
			c.rfpQ.Pop()
			free--
			grants++ // the tag lookup consumed the port
			e.rfp = rfpDropped
			c.st.RFP.Dropped++
			continue
		}
		res := c.hier.Access(pkt.Addr, e.op.PC, c.cycle, false)
		c.rfpQ.Pop()
		free--
		if grants++; grants > maxGrants && c.chk != nil && c.chk.invariants {
			c.st.Checks.RFPPortOvercommit++
		}
		e.rfp = rfpExecuted
		e.rfpAddr = pkt.Addr
		e.rfpFillAt = res.DoneAt
		// The RFP-inflight bit is set in the first L1-lookup cycle, one
		// address-calculation stage after the port grant — for hits this
		// is exactly SchedDepth cycles before the data lands (§3.3); for
		// misses the bit is set at the same early point and the load's
		// dependents simply align to the later fill (§3.2.2). A confident
		// near-hit level prediction arms the bit at the port grant itself:
		// the predicted latency is known, so there is nothing to wait for
		// (the CLP extension deliberately departs from the flat schedule).
		if e.clpEarlyArm {
			e.rfpArmedAt = c.cycle + 1
			c.st.CLP.EarlyArmed++
		} else {
			e.rfpArmedAt = c.cycle + 2
		}
		if res.Level != stats.LevelL1 {
			c.st.RFP.L1Misses++
		}
		e.rfpLevel = res.Level
		if c.chk != nil {
			// Snapshot what the read actually returned: the youngest
			// already-issued older store's value, or pre-store memory.
			if v, ok := c.chk.valueAt(pkt.Addr, e.op.Seq); ok {
				e.rfpData, e.rfpDataKnown, e.rfpDataInit = v, true, false
			} else {
				e.rfpDataKnown, e.rfpDataInit = false, true
			}
			// Invariant (§3.3): for an L1 hit the RFP-inflight bit leads
			// the register file fill by exactly the wakeup/select/read
			// depth — checked when the config keeps the paper's alignment
			// L1Latency == SchedDepth + 2. Early-armed CLP prefetches are
			// exempt: stretching the lead is exactly their point.
			if c.chk.invariants && !e.clpEarlyArm && res.Level == stats.LevelL1 &&
				c.cfg.Mem.L1Latency == c.cfg.SchedDepth+2 &&
				e.rfpFillAt-e.rfpArmedAt != uint64(c.cfg.SchedDepth) {
				c.st.Checks.RFPArmLeadSkew++
			}
		}
		c.st.RFP.Executed++
		c.traceRFPExec(e.op.Seq, pkt.Addr, e.rfpFillAt, e.rfpArmedAt, res.Level)
	}
}

// Older-store scan results.
const (
	storeScanClear   = iota // no conflicting older store: go to the L1
	storeScanWait           // unresolved same-set store: wait for it
	storeScanForward        // resolved older store covers the word: take its data
)

// rfpScanStores performs the §3.2.1 older-store scan for a prefetch to
// addr on behalf of load e: the prefetch disambiguates exactly as its load
// would. On storeScanForward the covering store entry is returned.
func (c *Core) rfpScanStores(e *entry, addr uint64) (action int, fwdStore *entry) {
	if c.faultRFPNoDisambiguation {
		return storeScanClear, nil // injected fault: never scan, never wait
	}
	return c.scanOlderStores(e, addr)
}

// scanOlderStores walks the stores older than load e youngest-first, like
// the LSQ CAM, for an access to addr. The first resolved store to the same
// word forwards its data; an unresolved store the memory-dependence
// predictor places in e's store set makes the access wait. A wrong "skip"
// past an unresolved store is caught when that store issues: a demand load
// is flushed, a prefetch marked stale (no flush, per §3.2.1, because the
// load has not dispatched).
func (c *Core) scanOlderStores(e *entry, addr uint64) (action int, fwdStore *entry) {
	loadSet := c.ss.IDFor(e.op.PC)
	for i := c.sq.olderThan(e.op.Seq) - 1; i >= 0; i-- {
		s := &c.rob[c.sq.at(i).slot]
		if s.addrKnown {
			if sameWord(s.op.Addr, addr) {
				return storeScanForward, s
			}
			continue
		}
		if loadSet != -1 && c.ss.IDFor(s.op.PC) == loadSet {
			return storeScanWait, nil
		}
	}
	return storeScanClear, nil
}
