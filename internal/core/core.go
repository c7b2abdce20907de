package core

import (
	"context"
	"errors"
	"fmt"

	"rfpsim/internal/config"
	"rfpsim/internal/isa"
	"rfpsim/internal/mem"
	"rfpsim/internal/predictor"
	"rfpsim/internal/rfp"
	"rfpsim/internal/stats"
	"rfpsim/internal/vp"
)

// fetched is a uop sitting between fetch and rename.
type fetched struct {
	op      isa.MicroOp
	readyAt uint64 // earliest rename cycle (fetch + frontend latency)

	predTaken  bool
	mispredict bool

	pathAtFetch uint64 // global path hash snapshot used for prediction

	// DLVP early-probe state (§5.4): filled at fetch, consumed at rename.
	dlvpPredicted bool // PredictAddr was called (for squash accounting)
	probeLaunched bool
	probeAddr     uint64
	probeDoneAt   uint64
	eppShared     bool
}

// Core is one simulated out-of-order core bound to a workload generator.
type Core struct {
	cfg config.Core
	gen isa.Generator
	st  *stats.Sim

	hier *mem.Hierarchy
	bp   predictor.Direction
	hm   *predictor.HitMiss
	ss   *predictor.StoreSets

	pf   *rfp.Prefetcher
	rfpQ *rfp.Queue
	crit *predictor.Criticality
	clp  *predictor.CLP

	eves *vp.EVES
	dlvp *vp.DLVP
	ssbf *vp.SSBF

	cycle uint64

	// ROB ring buffer; intPRFUsed/fpPRFUsed track rename register
	// pressure.
	rob      []entry
	robHead  int
	robCount int
	// Scheduler state (sched.go): rsCount is the RS occupancy; lq and sq
	// index the in-flight loads and stores oldest first, their lengths
	// the LQ and SQ occupancies; wake tracks which RS entries issue
	// visits when. doneSpec and doneReal hold each ROB slot's result
	// times, so wakeup checks read them without touching the entries.
	// retiredSeq is the sequence number of the last retired uop.
	rsCount    int
	lq         lsqIndex
	sq         lsqIndex
	wake       wakeup
	doneSpec   []uint64
	doneReal   []uint64
	sched      []uint64 // the one array wake, doneSpec and doneReal live in
	retiredSeq uint64
	// Physical register file. In the default (rename-time allocation)
	// mode a real free list is maintained with the standard next-writer
	// freeing discipline, and aratPReg tracks the current architectural-
	// to-physical mapping. The LateRegAlloc variation (§3.3 virtual
	// pointers) instead counts produced-but-unretired values, which is
	// the natural storage model for a virtual-register scheme.
	freeInt    []int32
	freeFP     []int32
	aratPReg   [isa.NumArchRegs]int32
	intPRFUsed int
	fpPRFUsed  int

	// renameTable maps an architectural register to its youngest in-flight
	// producer.
	renameTable [isa.NumArchRegs]producer

	// Frontend.
	fetchQ            []fetched
	fetchHead         int
	pending           []isa.MicroOp // replay buffer (flush) ahead of the generator
	pendingHead       int
	fetchBlockedUntil uint64
	fetchHalted       bool // an unresolved mispredicted branch blocks fetch
	pathHash          uint64
	fetchPath         uint64 // path history as seen at fetch (for DLVP)
	nextSeq           uint64
	genDone           bool
	ffConsumed        uint64 // uops consumed functionally by FastForward
	// fetchOp is FastForward's generator scratch uop (fetch generates
	// straight into its fetch-queue record). A stack-local would escape
	// through the Generator interface call and heap-allocate once per
	// FastForward call; hoisting it here keeps it zero-alloc.
	fetchOp isa.MicroOp

	// squashBuf and mergeBuf are flushFrom/requeueFetchQ scratch storage,
	// reused across branch-mispredict and value-misprediction flushes so
	// recovery never allocates in steady state (see the hot-loop
	// allocation budget in docs/architecture.md).
	squashBuf []isa.MicroOp
	mergeBuf  []isa.MicroOp

	// Per-cycle port budgets (reset each cycle).
	aluUsed, fpUsed, loadUsed, storeUsed, branchUsed int

	committed uint64
	// Statistics window markers (see ResetStats).
	cycleBase  uint64
	commitBase uint64

	// pipe, when set, streams pipeline events (see AttachPipeTrace).
	pipe *pipeTrace
	// profile, when set, accumulates per-PC load statistics.
	profile *PCProfile

	// onCommit, when set, observes every retired uop in program order.
	// Tests use it to assert that speculation features are timing-only:
	// the committed stream must be identical with and without them.
	onCommit func(*isa.MicroOp)
	// onRetire is a white-box test hook observing the full entry state at
	// retirement (forwarding sources, hit levels, RFP outcome).
	onRetire func(*entry)

	// chk, when set, runs the differential/invariant checking layer
	// (checker.go); created by config.Checks or EnableCommitDigest.
	chk *checker
	// faultRFPNoDisambiguation is the InjectFault toggle (fault.go).
	faultRFPNoDisambiguation bool
}

// producer names the in-flight uop that will write an architectural
// register.
type producer struct {
	seq   uint64
	idx   int
	valid bool
}

// New builds a core for the given configuration and workload. The config
// must Validate; New panics otherwise (a bad config is a programming
// error, not a runtime condition).
func New(cfg config.Core, gen isa.Generator) *Core {
	return newFull(cfg, gen, nil)
}

// newFull is New. A non-nil reuse, a core its caller has finished with,
// hands its cache and DTLB arrays over to the new core
// (mem.ReuseHierarchy), and its ROB and scheduler state too when the ROB
// sizes match, instead of the new core allocating its own.
func newFull(cfg config.Core, gen isa.Generator, reuse *Core) *Core {
	var arrays *mem.Hierarchy
	var rob []entry
	var sched []uint64
	if reuse != nil {
		arrays = reuse.hier
		if len(reuse.rob) == cfg.ROBSize {
			rob, sched = reuse.rob, reuse.sched
			clear(rob)
		}
	}
	c := newWarmable(cfg, gen, cfg.Mem, arrays)
	c.ss = predictor.NewStoreSets(10)
	if rob == nil {
		rob = make([]entry, cfg.ROBSize)
	}
	c.rob = rob
	c.newSchedState(cfg.ROBSize, sched)
	c.lq = newLSQIndex(cfg.LQSize)
	c.sq = newLSQIndex(cfg.SQSize)
	if cfg.RFP.Enabled {
		c.rfpQ = rfp.NewQueue(cfg.RFP.QueueSize)
		// The criticality estimator serves two masters: the CriticalOnly
		// injection filter and the CLP contested-port gate. Either knob
		// brings it up; it trains from commit stalls whenever present.
		if cfg.RFP.CriticalOnly || cfg.RFP.UseCLP {
			c.crit = predictor.NewCriticality(12)
		}
		if cfg.RFP.UseCLP {
			c.clp = predictor.NewCLP(12, stats.NumLevels)
		}
	}
	if cfg.VP.Mode == config.VPEPP {
		// 16 Kbit filter cleared every 2K stores: ~6% false-positive
		// rate, matching the "small fraction of loads re-executed at
		// retirement" the paper attributes to EPP.
		c.ssbf = vp.NewSSBF(16384, 2048)
	}
	// Initialize the register file: architectural state occupies the
	// first registers of each class; the rest populate the free lists.
	for i := 0; i < isa.NumIntRegs; i++ {
		c.aratPReg[i] = int32(i)
	}
	for i := 0; i < isa.NumFPRegs; i++ {
		c.aratPReg[int(isa.FirstFPReg)+i] = int32(i)
	}
	for p := isa.NumIntRegs; p < cfg.IntPRF; p++ {
		c.freeInt = append(c.freeInt, int32(p))
	}
	for p := isa.NumFPRegs; p < cfg.FPPRF; p++ {
		c.freeFP = append(c.freeFP, int32(p))
	}
	return c
}

// NewFunctional builds a core that holds only what functional warming
// writes: the caches and DTLB (without a hardware prefetcher), the
// branch, hit/miss, RFP and value predictors, and the checker's store
// shadow. It supports WarmCaches, FastForward and Fork, and nothing that
// cycle-simulates: Run and Warmup return an error. Sampled replay
// fast-forwards one such core per job and forks a full core (New) at
// every simulation point, which keeps the core that stays live between
// points small. The config must Validate, as for New.
func NewFunctional(cfg config.Core, gen isa.Generator) *Core {
	m := cfg.Mem
	m.Prefetcher, m.HWPrefetch = "", false
	return newWarmable(cfg, gen, m, nil)
}

// newWarmable builds the part of a core that WarmCaches and FastForward
// train, with its hierarchy built from memCfg over arrays (see newFull).
func newWarmable(cfg config.Core, gen isa.Generator, memCfg config.MemConfig, arrays *mem.Hierarchy) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	st := &stats.Sim{}
	c := &Core{
		cfg:  cfg,
		gen:  gen,
		st:   st,
		hier: mem.ReuseHierarchy(arrays, memCfg, cfg.Oracle, st),
		hm:   predictor.NewHitMiss(12),
	}
	if cfg.BranchPredictor == "gshare" {
		c.bp = predictor.NewBranch(16, 12)
	} else {
		c.bp = predictor.NewTAGE()
	}
	if cfg.RFP.Enabled {
		c.pf = rfp.NewPrefetcher(cfg.RFP, 0x5EED0F9F)
	}
	switch cfg.VP.Mode {
	case config.VPEVES:
		c.eves = vp.NewEVES(cfg.VP, 11)
	case config.VPDLVP, config.VPEPP:
		c.dlvp = vp.NewDLVP(cfg.VP, 12)
	case config.VPComposite:
		c.eves = vp.NewEVES(cfg.VP, 11)
		c.dlvp = vp.NewDLVP(cfg.VP, 12)
	}
	if cfg.Checks.Enabled {
		c.chk = newChecker(true)
	}
	return c
}

// Stats exposes the statistics block (live during a run).
func (c *Core) Stats() *stats.Sim { return c.st }

// OnCommit installs an observer invoked for every retired uop in program
// order (nil to remove).
func (c *Core) OnCommit(fn func(*isa.MicroOp)) { c.onCommit = fn }

// Cycle returns the current simulated cycle.
func (c *Core) Cycle() uint64 { return c.cycle }

// RetiredStreamPos returns the workload-stream index of the next uop to
// retire: fast-forwarded uops plus cycle-simulated retirements
// (retirement is program order, so the two segments are contiguous). The
// differential harness (internal/check) uses it to align a replayed
// interval's commit digest with the matching window of a full run.
func (c *Core) RetiredStreamPos() uint64 { return c.ffConsumed + c.committed }

// ErrWedged is the error Run wraps when the pipeline wedges: a long
// streak of cycles without a commit, which is a model bug.
var ErrWedged = errors.New("core: pipeline wedged")

// ctxCheckInterval is how many cycles pass between context polls inside
// Run. Powers of two keep the check a mask in the hot loop.
const ctxCheckInterval = 1024

// Run simulates until n uops commit (or the workload ends) and returns the
// statistics. The context cancels an in-flight simulation: Run polls it
// every ctxCheckInterval cycles and returns ctx.Err() (wrapped) with the
// statistics window closed at the interruption point. It also returns an
// error wrapping ErrWedged if the pipeline wedges.
func (c *Core) Run(ctx context.Context, n uint64) (*stats.Sim, error) {
	if c.rob == nil {
		return c.st, errors.New("core: a NewFunctional core cannot cycle-simulate; run a Fork of it")
	}
	target := c.committed + n
	lastCommitted := c.committed
	idle := 0
	for c.committed < target {
		if c.cycle%ctxCheckInterval == 0 {
			select {
			case <-ctx.Done():
				c.st.Cycles = c.cycle - c.cycleBase
				c.st.Instructions = c.committed - c.commitBase
				return c.st, fmt.Errorf("core: run cancelled at cycle %d: %w", c.cycle, ctx.Err())
			default:
			}
		}
		c.step()
		if c.committed == lastCommitted {
			idle++
			if idle > 100000 {
				return c.st, fmt.Errorf("%w at cycle %d (%d/%d committed)",
					ErrWedged, c.cycle, c.committed, target)
			}
		} else {
			idle = 0
			lastCommitted = c.committed
		}
		if c.genDone && c.robCount == 0 && c.fetchQLen() == 0 {
			break
		}
	}
	c.st.Cycles = c.cycle - c.cycleBase
	c.st.Instructions = c.committed - c.commitBase
	return c.st, nil
}

// ResetStats zeroes the statistics counters while keeping all
// microarchitectural state (caches, predictors, in-flight window). Call it
// after a warmup run so the measurement window starts from steady state,
// the standard methodology for trace-driven studies.
func (c *Core) ResetStats() {
	*c.st = stats.Sim{}
	c.cycleBase = c.cycle
	c.commitBase = c.committed
	if c.profile != nil {
		c.EnableProfile() // fresh per-PC tables and distributions
	}
}

// Warmup runs n uops and then resets statistics, returning any error. The
// context cancels the warmup the same way it cancels Run.
func (c *Core) Warmup(ctx context.Context, n uint64) error {
	_, err := c.Run(ctx, n)
	c.ResetStats()
	return err
}

// footprinter is implemented by workload generators that can enumerate the
// address regions they touch (see trace.Region).
type footprinter interface {
	FootprintRegions() [][2]uint64
}

// WarmCaches pre-touches the workload's declared memory footprint into the
// hierarchy so the measurement window starts from the steady-state cache
// contents a long-running program would have: the state a line-by-line
// sweep of every region, in order, would leave. Regions larger than a
// cache level only keep their tail resident, just as a real scan would
// leave them. Call it straight after New or NewFunctional, before
// anything touches the hierarchy (mem.Hierarchy.WarmRegions panics on a
// warm one).
func (c *Core) WarmCaches() {
	if g, ok := c.gen.(footprinter); ok {
		c.hier.WarmRegions(g.FootprintRegions())
	}
}

// step advances one cycle. Stage order within a cycle runs the back of the
// pipeline first so same-cycle structural hand-offs behave like hardware:
// commit frees slots, issue consumes results that completed earlier,
// demand loads get L1 ports before RFP requests, which get them before
// DLVP probes.
func (c *Core) step() {
	c.aluUsed, c.fpUsed, c.loadUsed, c.storeUsed, c.branchUsed = 0, 0, 0, 0, 0
	c.commit()
	c.issue()
	c.rename()
	// RFP arbitration runs after rename so a packet injected this cycle
	// can bid for a free port immediately — §3.2: "a prefetch request is
	// triggered immediately after register renaming". Demand loads issued
	// earlier this cycle have already claimed their ports, preserving
	// RFP's lowest priority.
	c.rfpArbitrate()
	c.fetch()
	if c.chk != nil && c.chk.invariants {
		c.chk.cycleChecks(c)
	}
	c.cycle++
}

// robIndex converts an offset from robHead, less than the ROB size, into
// a ring index.
func (c *Core) robIndex(offset int) int {
	i := c.robHead + offset
	if i >= len(c.rob) {
		i -= len(c.rob)
	}
	return i
}

func (c *Core) fetchQLen() int { return len(c.fetchQ) - c.fetchHead }

// intPRFFree and fpPRFFree report available rename registers. In free-list
// mode this is the free-list depth; in the late-allocation variation it is
// capacity minus produced values.
func (c *Core) intPRFFree() int {
	if c.cfg.LateRegAlloc {
		return c.cfg.IntPRF - isa.NumIntRegs - c.intPRFUsed
	}
	return len(c.freeInt)
}

func (c *Core) fpPRFFree() int {
	if c.cfg.LateRegAlloc {
		return c.cfg.FPPRF - isa.NumFPRegs - c.fpPRFUsed
	}
	return len(c.freeFP)
}

// chargePRF accounts a destination register allocation (+1) or release
// (-1) in the late-allocation counting model.
func (c *Core) chargePRF(dst isa.RegID, delta int) {
	if !dst.Valid() {
		return
	}
	if dst.IsFP() {
		c.fpPRFUsed += delta
	} else {
		c.intPRFUsed += delta
	}
}

// allocPReg pops a physical register for dst from the matching free list;
// canDispatch guarantees availability.
func (c *Core) allocPReg(dst isa.RegID) int32 {
	if dst.IsFP() {
		p := c.freeFP[len(c.freeFP)-1]
		c.freeFP = c.freeFP[:len(c.freeFP)-1]
		return p
	}
	p := c.freeInt[len(c.freeInt)-1]
	c.freeInt = c.freeInt[:len(c.freeInt)-1]
	return p
}

// freePReg returns a physical register to its free list.
func (c *Core) freePReg(dst isa.RegID, p int32) {
	if dst.IsFP() {
		c.freeFP = append(c.freeFP, p)
	} else {
		c.freeInt = append(c.freeInt, p)
	}
}
