package core

import (
	"rfpsim/internal/config"
	"rfpsim/internal/isa"
	"rfpsim/internal/rfp"
	"rfpsim/internal/stats"
)

// fetch pulls up to Width uops per cycle from the replay buffer (flushed
// uops awaiting re-fetch) or the workload generator into the fetch queue,
// stamping each with the frontend latency. Fetch halts at an unresolved
// predicted-wrong branch (the machine would be on the wrong path; we model
// the bubble rather than simulating wrong-path uops) and during
// redirect/flush penalties.
func (c *Core) fetch() {
	if c.fetchHalted || c.cycle < c.fetchBlockedUntil {
		return
	}
	// The fetch/decode queue is a bounded structure; when rename is
	// backpressured (window full) fetch stalls rather than running ahead
	// indefinitely.
	maxQ := 4 * c.cfg.Width * c.cfg.FrontendLatency
	for i := 0; i < c.cfg.Width && c.fetchQLen() < maxQ; i++ {
		// The scratch uop lives on the Core: a local here escapes through
		// the Generator interface call and costs one heap allocation per
		// fetched uop.
		op := &c.fetchOp
		if c.pendingHead < len(c.pending) {
			*op = c.pending[c.pendingHead]
			c.pendingHead++
			if c.pendingHead == len(c.pending) {
				c.pending = c.pending[:0]
				c.pendingHead = 0
			}
		} else if !genNext(c, op) {
			return
		}
		f := fetched{
			op:          *op,
			readyAt:     c.cycle + uint64(c.cfg.FrontendLatency),
			pathAtFetch: c.fetchPath,
		}
		if op.IsBranch() {
			f.predTaken = c.bp.Predict(op.PC)
			f.mispredict = f.predTaken != op.Taken
			// Train immediately in fetch order (the standard trace-driven
			// idealization: no wrong path is ever fetched, so the resolved
			// outcome is available). Training at issue instead would make
			// global history depend on issue order, coupling branch
			// accuracy to unrelated scheduling perturbations.
			c.bp.Update(op.PC, op.Taken)
			// The fetch-time path history advances in fetch order, so a
			// static load always observes the same path for the same
			// control flow — required for path-based predictors to train.
			c.fetchPath = (c.fetchPath<<4 ^ (op.PC>>2)&0x7 ^ uint64(boolU(op.Taken))) & 0xFFFF
		}
		if op.IsLoad() {
			c.dlvpAtFetch(&f)
		}
		c.fetchQ = append(c.fetchQ, f)
		if f.mispredict {
			// Stop fetching: everything after this branch would be
			// wrong-path. Issue resolves the branch and schedules the
			// resume.
			c.fetchHalted = true
			return
		}
	}
}

// dlvpAtFetch runs the DLVP/EPP early address prediction and L1 probe at
// instruction fetch (§5.4), instrumenting the Figure 16 constraint
// waterfall: address predictability → high-confidence filter → no-forward
// filter → L1 port availability → probe timeliness (checked at rename).
func (c *Core) dlvpAtFetch(f *fetched) {
	if c.dlvp == nil {
		return
	}
	pred := c.dlvp.PredictAddr(f.op.PC, f.pathAtFetch)
	f.dlvpPredicted = true
	if !pred.Match {
		return
	}
	c.st.AP.AddressPredictable++
	if !pred.HighConfidence {
		return
	}
	c.st.AP.HighConfidence++
	if !c.dlvp.AllowedByNoFwd(f.op.PC) {
		return
	}
	c.st.AP.NoFwdPass++

	if c.cfg.VP.Mode == config.VPEPP {
		// EPP register sharing: if an in-flight load already covers the
		// predicted word, its register file entry is shared and no L1
		// probe is needed.
		for i := 0; i < c.lq.len(); i++ {
			if e := &c.rob[c.lq.at(i).slot]; sameWord(e.op.Addr, pred.Addr) {
				f.eppShared = true
				f.probeLaunched = true
				f.probeAddr = pred.Addr
				f.probeDoneAt = c.cycle
				c.st.AP.ProbeLaunched++
				return
			}
		}
	}

	// The early probe competes for L1 ports at the lowest priority;
	// demand loads, then RFP requests, have already claimed theirs this
	// cycle. Probes to pages without a DTLB translation are dropped (a
	// page walk would outlast the fetch-to-allocate window anyway, the
	// same reasoning as RFP's §3.2.2 simplification).
	if c.loadUsed >= c.cfg.LoadPorts || !c.hier.TLBCovers(pred.Addr) {
		return
	}
	c.loadUsed++
	c.st.AP.ProbeLaunched++
	res := c.hier.Access(pred.Addr, f.op.PC, c.cycle, false)
	f.probeLaunched = true
	f.probeAddr = pred.Addr
	f.probeDoneAt = res.DoneAt
}

// rename pulls up to Width frontend uops whose fetch latency has elapsed
// and dispatches them into the OOO window, performing register renaming,
// resource allocation, value-prediction consumption and RFP injection.
func (c *Core) rename() {
	if c.cycle < c.fetchBlockedUntil {
		return
	}
	for i := 0; i < c.cfg.Width; i++ {
		if c.fetchHead >= len(c.fetchQ) {
			c.fetchQ = c.fetchQ[:0]
			c.fetchHead = 0
			return
		}
		// Compact the drained prefix occasionally so the queue's backing
		// array stays small.
		if c.fetchHead > 256 {
			n := copy(c.fetchQ, c.fetchQ[c.fetchHead:])
			c.fetchQ = c.fetchQ[:n]
			c.fetchHead = 0
		}
		f := &c.fetchQ[c.fetchHead]
		if f.readyAt > c.cycle {
			return
		}
		if !c.canDispatch(&f.op) {
			return
		}
		c.dispatchOne(*f)
		c.fetchHead++
	}
}

// canDispatch checks every structural resource the uop needs.
func (c *Core) canDispatch(op *isa.MicroOp) bool {
	if c.robCount >= len(c.rob) || len(c.rs) >= c.cfg.RSSize {
		return false
	}
	if op.IsLoad() && c.lq.len() >= c.cfg.LQSize {
		return false
	}
	if op.IsStore() && c.sq.len() >= c.cfg.SQSize {
		return false
	}
	if op.Dst.Valid() && !c.cfg.LateRegAlloc {
		if op.Dst.IsFP() {
			if c.fpPRFFree() <= 0 {
				return false
			}
		} else if c.intPRFFree() <= 0 {
			return false
		}
	}
	return true
}

// dispatchOne renames and allocates one uop into the window.
func (c *Core) dispatchOne(f fetched) {
	idx := c.robIndex(c.robCount)
	e := &c.rob[idx]
	e.reset()
	e.valid = true
	e.op = f.op
	c.nextSeq++
	e.op.Seq = c.nextSeq // dispatch order; 0 is never a valid producer
	e.dispatchCycle = c.cycle
	e.pathAtDispatch = c.pathHash
	e.pathAtFetch = f.pathAtFetch
	e.earliestIssue = c.cycle + uint64(c.cfg.SchedDepth)
	e.doneSpec = farFuture
	e.doneReal = farFuture
	e.execDone = farFuture
	e.predictedTaken = f.predTaken
	e.mispredicted = f.mispredict

	// Register renaming: record in-flight producers for each source.
	for s, reg := range [2]isa.RegID{f.op.Src1, f.op.Src2} {
		if reg.Valid() {
			if p := c.renameTable[reg]; p.valid {
				e.srcSeq[s] = p.seq
				e.srcIdx[s] = int32(p.idx)
			}
		}
	}
	if f.op.Dst.Valid() {
		c.renameTable[f.op.Dst] = producer{seq: e.op.Seq, idx: idx, valid: true}
		// With late register allocation (§3.3 variation) the physical
		// entry is claimed at completion, not here; until then the
		// consumer chain carries a virtual pointer.
		if !c.cfg.LateRegAlloc {
			e.pReg = c.allocPReg(f.op.Dst)
			e.prevPReg = c.aratPReg[f.op.Dst]
			c.aratPReg[f.op.Dst] = e.pReg
			if c.chk != nil && c.chk.invariants {
				c.chk.checkSingleWriter(c, e)
			}
		}
	}

	c.robCount++
	e.inRS = true
	ref := robRef{seq: e.op.Seq, slot: int32(idx)}
	_, e.wakeAt = c.specWake(e)
	c.rs = append(c.rs, rsRef{robRef: ref, wake: e.wakeAt})
	// The new entry may wake before the recorded idle bound.
	c.issueIdleUntil = min(c.issueIdleUntil, e.wakeAt)
	c.traceUopEvent("dispatch  ", &e.op)

	switch {
	case f.op.IsLoad():
		c.lq.push(ref)
		c.dispatchLoad(e, idx, f)
	case f.op.IsStore():
		c.sq.push(ref)
	case f.op.IsBranch():
		// Global path history feeds the context prefetcher and DLVP. The
		// history is a short window (the last few branches), not an
		// accumulating hash: path predictors rely on the same path
		// recurring, which an unbounded history never does.
		c.pathHash = (c.pathHash<<4 ^ (f.op.PC>>2)&0x7 ^ uint64(boolU(f.op.Taken))) & 0xFFFF
	}
}

// dispatchLoad applies the load-side features at allocation time: value
// prediction (EVES and/or the DLVP probe launched at fetch) and RFP packet
// injection (§3.2: the prefetch is triggered immediately after renaming,
// when the load's physical destination register is known).
func (c *Core) dispatchLoad(e *entry, idx int, f fetched) {
	// Instrument operand readiness at allocation (§3: 63% of loads are
	// not ready at allocation, which is RFP's run-ahead window).
	if max(c.srcReadyAt(e, 0), c.srcReadyAt(e, 1)) <= c.cycle {
		c.st.LoadsAddrReadyAtAlloc++
	}

	// EVES value prediction (modes EVES, Composite, and VP+RFP).
	if c.eves != nil {
		e.evesAllocated = true
		if val, ok := c.eves.Predict(e.op.PC); ok {
			e.vpPredicted = true
			e.vpValue = val
			e.vpWrong = val != e.op.Value
			c.st.VP.Predicted++
			// Dependents consume the predicted value right away.
			e.doneSpec = c.cycle + 1
			e.doneReal = c.cycle + 1
		}
	}
	// DLVP/EPP: the early probe only helps if its data returned before
	// allocation (§5.4 constraint 4).
	if !e.vpPredicted && f.probeLaunched {
		e.dlvpAllocated = true
		if f.probeDoneAt <= c.cycle {
			c.st.AP.ProbeInTime++
			e.vpPredicted = true
			e.apPredicted = true
			e.eppPredicted = c.cfg.VP.Mode == config.VPEPP
			// The probed data is the load's value only if the predicted
			// address was right; staleness against in-flight stores is
			// detected when the load executes (it would have forwarded
			// from the store queue, so the L1 probe read old data).
			e.vpWrong = f.probeAddr != e.op.Addr
			c.st.VP.Predicted++
			e.doneSpec = c.cycle + 1
			e.doneReal = c.cycle + 1
		}
	} else if f.dlvpPredicted {
		e.dlvpAllocated = true
	}

	// RFP injection (§3.2). Allocate is called for every load so the
	// in-flight counter stays balanced; a packet is only injected when
	// the PT is confident — and, in the VP+RFP fusion, when the load was
	// not already value predicted (§5.3).
	if c.pf != nil {
		e.ptAllocated = true
		if c.chk != nil && c.chk.invariants {
			c.chk.ptAllocate()
		}
		addr, eligible := c.pf.Allocate(e.op.PC, c.pathHash)
		// The criticality-targeted variant (§5.1 future work) only spends
		// queue slots and L1 bandwidth on loads known to stall commit.
		if c.cfg.RFP.CriticalOnly && c.crit != nil && !c.crit.IsCritical(e.op.PC) {
			eligible = false
		}
		// The cache-level-predicted arming schedule (docs/predictors.md):
		// a confident level prediction shapes how — and whether — this
		// load's prefetch is spent.
		if c.clp != nil {
			if level, confident := c.clp.Predict(e.op.PC); confident {
				e.clpPredicted = true
				e.clpLevel = uint8(level)
				c.st.CLP.Predicted[level]++
				switch {
				case level == stats.LevelMem:
					// A rename-time prefetch cannot outrun a DRAM access;
					// the queue slot and L1 port go to a load they can help.
					if eligible && !e.vpPredicted {
						c.st.CLP.SkippedDRAM++
					}
					eligible = false
				case c.hier.NearHit(level):
					// Predicted L1/L2 hit: the per-level latency estimate is
					// short and reliable, so the RFP-inflight bit arms a
					// cycle early and the load can rely on the prefetch that
					// much sooner.
					e.clpEarlyArm = true
				}
			}
			// Contested queue: when half the prefetch slots are taken,
			// only commit-stalling (critical) loads may claim the rest.
			if eligible && !e.vpPredicted && c.rfpQ.Contested() &&
				!c.crit.IsCritical(e.op.PC) {
				eligible = false
				c.st.CLP.CritGated++
			}
		}
		if eligible && !e.vpPredicted {
			c.st.RFP.Injected++
			pkt := rfpPacket(e, idx, addr)
			if c.rfpQ.Push(pkt) {
				e.rfp = rfpQueued
				e.rfpAddr = addr
			} else {
				c.st.RFP.Dropped++
				e.rfp = rfpDropped
			}
		}
	}
}

func boolU(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// producerOf returns the in-flight producer of source s, or nil if the
// source is architecturally ready (no producer, or it already committed).
func (c *Core) producerOf(e *entry, s int) *entry {
	seq := e.srcSeq[s]
	if seq == 0 {
		return nil
	}
	p := &c.rob[e.srcIdx[s]]
	if !p.valid || p.op.Seq != seq {
		return nil // slot recycled: the producer committed
	}
	return p
}

// srcReadyAt returns the cycle source s becomes actually available (0 when
// already ready).
func (c *Core) srcReadyAt(e *entry, s int) uint64 {
	p := c.producerOf(e, s)
	if p == nil {
		return 0
	}
	return p.doneReal
}

// rfpPacket builds the prefetch packet for a load entry at ring slot idx:
// the dispatch sequence number identifies the dynamic instance (stable
// across ROB slot reuse), the physical destination register is where the
// data will land, and the slot lets the arbitration stage set the load's
// RFP-inflight bit in O(1).
func rfpPacket(e *entry, idx int, addr uint64) rfp.Packet {
	return rfp.Packet{
		LoadID: int(e.op.Seq), PC: e.op.PC, Addr: addr,
		PRFID: int(e.pReg), Slot: idx,
	}
}

// levelIsHit reports whether a hierarchy level counts as an L1 hit for the
// hit-miss predictor (MSHR merges behave like misses for wakeup purposes).
func levelIsHit(level int) bool { return level == stats.LevelL1 }
