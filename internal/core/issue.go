package core

import (
	"rfpsim/internal/isa"
	"rfpsim/internal/rfp"
	"rfpsim/internal/stats"
)

// issue scans the reservation stations in age order and selects up to
// IssueWidth ready uops, respecting per-class execution port budgets.
// Wakeup is speculative (based on predicted completion times); an entry
// whose sources turn out not to be ready is dropped by the scoreboard and
// re-issued later, consuming select bandwidth — the replay mechanism of
// Stark et al. that RFP reuses for its cancel/re-dispatch (§3.3).
//
// The walk covers the RS index only and compacts issued entries out of it
// as it goes. An entry whose wakeAt lies ahead is passed over without
// reading the ROB; one that fails the speculative-wakeup check gets a new
// wakeAt. A store that detects an ordering violation flushes younger
// entries mid-walk, truncating the index behind the cursor, so the loop
// re-reads its length every step. A walk in which no entry passes records
// the least wakeAt (issueIdleUntil); until then issue returns at once.
func (c *Core) issue() {
	if c.cycle < c.issueIdleUntil {
		return
	}
	slots := c.cfg.IssueWidth
	woke := false
	idleUntil := uint64(farFuture)
	w, i := 0, 0
	for ; i < len(c.rs) && slots > 0; i++ {
		r := c.rs[i]
		if c.cycle < r.wake {
			idleUntil = min(idleUntil, r.wake)
			c.rs[w] = r
			w++
			continue
		}
		e := &c.rob[r.slot]
		// Speculative wakeup: only entries whose sources *claim* to be
		// ready are selected.
		ready, bound := c.specWake(e)
		if ready {
			woke = true
			// Scoreboard check: a wrongly woken entry (a source's producer
			// missed its speculative latency) burns the select slot and
			// retries when the source actually completes.
			if at := max(c.srcReadyAt(e, 0), c.srcReadyAt(e, 1)); at > c.cycle {
				c.st.Replays++
				e.retryAt = at
				slots--
			} else if c.tryIssue(e) {
				slots--
			}
			bound = e.retryAt
		}
		if e.inRS {
			e.wakeAt = bound
			r.wake = bound
			idleUntil = min(idleUntil, bound)
			c.rs[w] = r
			w++
		}
	}
	if w < i {
		c.rs = c.rs[:w+copy(c.rs[w:], c.rs[i:])]
	}
	if !woke {
		c.issueIdleUntil = idleUntil
	}
}

// tryIssue attempts to start execution of e at the current cycle,
// reporting whether it consumed an issue slot.
func (c *Core) tryIssue(e *entry) bool {
	switch e.op.Class {
	case isa.OpALU, isa.OpMul, isa.OpDiv, isa.OpNop:
		if c.aluUsed >= c.cfg.ALUPorts || !c.claimDst(e) {
			return false
		}
		c.aluUsed++
		c.completeAt(e, c.cycle+uint64(e.op.Class.ExecLatency()))
	case isa.OpFP, isa.OpFMA:
		if c.fpUsed >= c.cfg.FPPorts || !c.claimDst(e) {
			return false
		}
		c.fpUsed++
		c.completeAt(e, c.cycle+uint64(e.op.Class.ExecLatency()))
	case isa.OpBranch:
		if c.branchUsed >= c.cfg.BranchPorts {
			return false
		}
		c.branchUsed++
		c.issueBranch(e)
	case isa.OpStore:
		if c.storeUsed >= c.cfg.StorePorts {
			return false
		}
		c.storeUsed++
		c.issueStore(e)
	case isa.OpLoad:
		return c.issueLoad(e)
	}
	return true
}

// claimDst acquires the physical destination register in the late-
// allocation pipeline variation (§3.3): the register is claimed when the
// value is produced rather than at rename. Returns false — and arranges a
// retry — when the file is exhausted; the virtual pointer simply waits.
func (c *Core) claimDst(e *entry) bool {
	if !c.cfg.LateRegAlloc || e.prfClaimed || !e.op.Dst.Valid() {
		return true
	}
	if e.op.Dst.IsFP() {
		if c.fpPRFFree() <= 0 {
			e.retryAt = c.cycle + 1
			return false
		}
	} else if c.intPRFFree() <= 0 {
		e.retryAt = c.cycle + 1
		return false
	}
	c.chargePRF(e.op.Dst, +1)
	e.prfClaimed = true
	return true
}

// releaseDstAtRetire frees register file resources when e retires: in
// free-list mode the PREVIOUS mapping of e's architectural destination dies
// (no consumer can name it anymore); in the late-allocation variation the
// produced-value count drops.
func (c *Core) releaseDstAtRetire(e *entry) {
	if !e.op.Dst.Valid() {
		return
	}
	if c.cfg.LateRegAlloc {
		if e.prfClaimed {
			c.chargePRF(e.op.Dst, -1)
		}
		return
	}
	c.freePReg(e.op.Dst, e.prevPReg)
}

// releaseDstAtSquash frees register file resources when e is squashed: its
// OWN register returns to the free list (the previous mapping is restored
// by the caller's ARAT walk).
func (c *Core) releaseDstAtSquash(e *entry) {
	if !e.op.Dst.Valid() {
		return
	}
	if c.cfg.LateRegAlloc {
		if e.prfClaimed {
			c.chargePRF(e.op.Dst, -1)
		}
		return
	}
	c.freePReg(e.op.Dst, e.pReg)
}

// completeAt marks e issued with the given completion time.
func (c *Core) completeAt(e *entry, done uint64) {
	c.traceIssue(&e.op, done)
	e.issued = true
	e.inRS = false
	// VP-predicted loads already published an early completion time for
	// their dependents; keep it.
	if !e.vpPredicted {
		e.doneSpec = done
		e.doneReal = done
	}
	e.execDone = done
}

// issueBranch resolves a branch: the direction predictor is trained, and a
// misprediction schedules the frontend redirect that ends the fetch bubble
// started at fetch time.
func (c *Core) issueBranch(e *entry) {
	done := c.cycle + 1
	c.completeAt(e, done)
	if e.mispredicted {
		c.st.BranchMispredicts++
		// Fetch resumes so the first correct-path uop renames about
		// MispredictPenalty cycles after resolution.
		resume := done + uint64(maxInt(0, c.cfg.MispredictPenalty-c.cfg.FrontendLatency))
		if resume > c.fetchBlockedUntil {
			c.fetchBlockedUntil = resume
		}
		c.fetchHalted = false
	}
}

// issueStore computes the store's address, exposing it to younger loads,
// and checks for memory-ordering violations: a younger load that already
// executed and read the same word from a stale source must be flushed and
// re-executed (the store-set predictor is trained so the pair synchronizes
// in the future).
func (c *Core) issueStore(e *entry) {
	c.completeAt(e, c.cycle+1)
	e.addrKnown = true
	// Stores fill the cache (write-allocate) but do not stall commit;
	// the access is fired here for cache-content fidelity.
	c.hier.Access(e.op.Addr, e.op.PC, c.cycle, false)
	if c.chk != nil {
		c.chk.noteStoreIssued(c, e.op.Seq, e.op.Addr, e.op.Value)
	}
	if c.ssbf != nil {
		c.ssbf.InsertStore(isa.LineAddr(e.op.Addr))
	}

	// Ordering-violation scan over younger loads, oldest first.
	first := c.lq.olderThan(e.op.Seq)
	for i := first; i < c.lq.len(); i++ {
		r := c.lq.at(i)
		l := &c.rob[r.slot]
		if !l.issued || !sameWord(l.op.Addr, e.op.Addr) {
			continue
		}
		if l.forwarded && l.forwardedFromSeq > e.op.Seq {
			continue // data came from a store younger than this one
		}
		if c.faultRFPNoDisambiguation && l.rfpConsumed {
			continue // injected fault: RFP consumers dodge the flush
		}
		// Violation: flush from the load (inclusive) and synchronize the
		// pair in the store-set table.
		c.st.MemOrderViolations++
		c.ss.RecordViolation(l.op.PC, e.op.PC)
		c.flushFrom(c.robOffset(r.slot), true)
		return
	}

	if c.faultRFPNoDisambiguation {
		return // injected fault: executed prefetches are never marked stale
	}
	// Any not-yet-issued load whose prefetch covered this word now holds
	// stale data in its register; the load will re-look-up the caches
	// (§3.2.1: no flush needed when the load has not dispatched).
	for i := first; i < c.lq.len(); i++ {
		l := &c.rob[c.lq.at(i).slot]
		if !l.issued && l.rfp == rfpExecuted && sameWord(l.rfpAddr, e.op.Addr) {
			l.rfpMDStale = true
		}
	}
}

// issueLoad runs the demand-load pipeline: RFP consumption, store-queue
// disambiguation, forwarding, and the cache access with speculative
// hit/miss wakeup. Returns whether an issue slot was consumed.
func (c *Core) issueLoad(e *entry) bool {
	// Late-allocation variation: a load needs its destination entry (the
	// one its prefetch may already have claimed on its behalf) before it
	// can produce a value.
	if !c.claimDst(e) {
		return false
	}
	// --- RFP consumption (§3.3) ---
	if e.rfp == rfpQueued {
		// The load beat its own prefetch to the L1: cancel the packet.
		seq := e.op.Seq
		c.rfpQ.DropWhere(func(p rfp.Packet) bool { return uint64(p.LoadID) == seq })
		c.st.RFP.Dropped++
		e.rfp = rfpDropped
	}
	if e.rfp == rfpExecuted {
		if c.cycle < e.rfpArmedAt {
			// The RFP-inflight bit is not visible yet: the load cannot
			// rely on the prefetch and proceeds normally (§3.3); the
			// prefetched data is dropped.
			c.st.RFP.Dropped++
			e.rfp = rfpDropped
		} else if !e.rfpMDStale && e.rfpAddr == e.op.Addr {
			c.traceRFPHit(&e.op, e.rfpFillAt)
			if c.profile != nil {
				// Slack >= 0: data arrived at or before issue (the load is
				// fully hidden); -1: the fill is still in flight (partial).
				slack := -1
				if e.rfpFillAt <= c.cycle {
					slack = int(c.cycle - e.rfpFillAt)
				}
				c.profile.RunAhead.Add(slack)
			}
			// Correct prefetch: the load consumes the register file data
			// and bypasses the caches entirely — no L1 port needed.
			e.rfpConsumed = true
			if c.chk != nil {
				e.delivered, e.deliveredKnown, e.deliveredInit =
					e.rfpData, e.rfpDataKnown, e.rfpDataInit
			}
			c.st.RFP.Useful++
			if e.rfpFillAt <= c.cycle {
				c.st.RFP.FullyHidden++
			}
			e.hitLevel = e.rfpLevel
			c.st.LoadHitLevel[e.rfpLevel]++
			done := c.cycle + 1
			if e.rfpFillAt > done {
				done = e.rfpFillAt
			}
			c.completeAt(e, done)
			return true
		} else {
			// Wrong address (or data invalidated by an older store): the
			// speculatively scheduled dependents are cancelled by the
			// existing replay machinery and the load re-accesses the
			// cache below, costing the extra L1 bandwidth the paper
			// attributes to incorrect prefetches.
			c.st.RFP.Wrong++
			e.rfp = rfpDropped
		}
	}

	// --- Store-queue disambiguation ---
	switch action, s := c.scanOlderStores(e, e.op.Addr); action {
	case storeScanForward:
		// Store-to-load forwarding (needs an AGU/load port).
		if c.loadUsed >= c.cfg.LoadPorts {
			e.retryAt = c.cycle + 1
			return false
		}
		c.loadUsed++
		e.forwarded = true
		e.forwardedFromSeq = s.op.Seq
		if c.chk != nil {
			e.delivered, e.deliveredKnown, e.deliveredInit = s.op.Value, true, false
		}
		c.st.StoreForwarded++
		// A probe-based value prediction read the L1 before this store's
		// data existed there: the prediction is stale.
		if e.apPredicted {
			e.vpWrong = true
		}
		e.hitLevel = stats.LevelL1
		c.st.LoadHitLevel[stats.LevelL1]++
		c.completeAt(e, c.cycle+c.hier.Latency(stats.LevelL1))
		return true
	case storeScanWait:
		e.retryAt = c.cycle + 2 // wait for the store to resolve
		return false
	}

	// --- Cache access with speculative hit/miss wakeup (§2.5) ---
	if c.loadUsed >= c.cfg.LoadPorts {
		e.retryAt = c.cycle + 1
		return false
	}
	c.loadUsed++
	if c.chk != nil {
		c.chk.trackLoadRead(e)
	}
	predictedHit := c.hm.Predict(e.op.PC)
	res := c.hier.Access(e.op.Addr, e.op.PC, c.cycle, true)
	actualHit := levelIsHit(res.Level)
	c.hm.Update(e.op.PC, actualHit)
	e.hitLevel = res.Level

	e.issued = true
	e.inRS = false
	e.execDone = res.DoneAt
	if e.vpPredicted {
		// Dependents already run on the predicted value; the access
		// validates it (checked at commit).
		return true
	}
	e.doneReal = res.DoneAt
	if predictedHit {
		// Dependents are woken assuming an L1 hit; if wrong they replay.
		e.doneSpec = c.cycle + c.hier.Latency(stats.LevelL1)
		if !actualHit {
			c.st.HitMissMispredicts++
		}
	} else {
		e.doneSpec = res.DoneAt
	}
	return true
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
