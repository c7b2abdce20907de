package core

import (
	"context"
	"testing"

	"rfpsim/internal/config"
	"rfpsim/internal/isa"
	"rfpsim/internal/stats"
	"rfpsim/internal/trace"
)

// TestVPRFPFusionExclusive: in the VP+RFP configuration a value-predicted
// load must not also inject a prefetch (§5.3: "an RFP is performed for a
// given load only if the load is not value predictable"), so per-load help
// never double-counts.
func TestVPRFPFusionExclusive(t *testing.T) {
	// Constant-valued strided load: both VP- and RFP-coverable.
	body := []isa.MicroOp{
		ld(0x10, 1, isa.NoReg, 0x8000),
		alu(0x14, 2, 1, isa.NoReg),
	}
	g := &loopGen{name: "both", body: body, strides: []int64{8, 0}, wrap: 8 << 10}
	// Give the load a constant value.
	g.body[0].Value = 0x1234
	cfg := config.Baseline().WithVP(config.VPEVES).WithRFP()
	c := New(cfg, g)
	st, err := c.Run(context.Background(), 30000)
	if err != nil {
		t.Fatal(err)
	}
	if st.VP.Predicted == 0 {
		t.Fatal("VP never predicted the constant load")
	}
	// Once VP is confident, RFP injection must stop for that PC: the sum
	// of helped loads stays ≤ all loads.
	if st.VP.Predicted+st.RFP.Injected > st.Loads+st.Loads/20 {
		t.Errorf("VP (%d) and RFP (%d) overlap on %d loads",
			st.VP.Predicted, st.RFP.Injected, st.Loads)
	}
}

// TestRFPDropOnTLBMissBehavior: loads striding across many pages with a
// cold TLB must show TLB-miss drops when the simplification is on, and
// none when off.
func TestRFPDropOnTLBMissBehavior(t *testing.T) {
	mk := func() *loopGen {
		return &loopGen{
			name: "pages",
			// The load is serial (address operand = its own value) so the
			// prefetch runs ahead of the demand stream and is the first
			// to touch each new page.
			body: []isa.MicroOp{
				ld(0x10, 1, 1, 0x1000000),
				alu(0x14, 2, 1, isa.NoReg),
				alu(0x18, 3, 2, isa.NoReg),
				br(0x1c, true),
			},
			// 120B stride (8-bit encodable) crosses a page every ~34
			// iterations; the wrap is far beyond the 64-entry DTLB reach.
			strides: []int64{120, 0, 0, 0},
			wrap:    16 << 20,
		}
	}
	on := config.Baseline().WithRFP()
	stOn := run(t, on, mk(), 30000)
	if stOn.RFP.DroppedTLBMiss == 0 {
		t.Error("no TLB-miss drops on a page-crossing stream")
	}
	off := config.Baseline().WithRFP()
	off.RFP.DropOnTLBMiss = false
	stOff := run(t, off, mk(), 30000)
	if stOff.RFP.DroppedTLBMiss != 0 {
		t.Error("TLB-miss drops counted with the simplification disabled")
	}
}

// TestPATResidentMatchesFullAddressTable pins §5.5.4's claim that the
// Page Address Table costs no timing while every page the loads touch
// stays resident: with its 64 entries covering the footprint, a PAT run
// is cycle-identical to the full-address Prefetch Table with identical RFP
// counters. Past PAT capacity (a 1 MiB wrap, where the stride-64 load
// alone walks 160 pages in the window) evictions must show, or the pin
// would hold vacuously.
func TestPATResidentMatchesFullAddressTable(t *testing.T) {
	full := config.Baseline().WithRFP()
	pat := full
	pat.RFP.UsePAT = true
	runBoth := func(wrap uint64) (a, b *stats.Sim) {
		mk := func() *loopGen {
			return &loopGen{
				name: "two-strided-loads",
				body: []isa.MicroOp{
					ld(0x10, 1, 2, 0x100000),
					alu(0x14, 2, 2, 1),
					ld(0x18, 3, 2, 0x800000),
					br(0x1c, true),
				},
				strides: []int64{64, 0, 8, 0},
				wrap:    wrap,
			}
		}
		return run(t, full, mk(), 40000), run(t, pat, mk(), 40000)
	}
	// Up to 64 KiB per region: at most 32 pages, all PAT-resident.
	for _, wrap := range []uint64{4 << 10, 16 << 10, 64 << 10} {
		a, b := runBoth(wrap)
		if a.Cycles != b.Cycles || a.RFP != b.RFP {
			t.Errorf("wrap %d KiB: PAT run (%d cycles, %+v) differs from full-address run (%d cycles, %+v)",
				wrap>>10, b.Cycles, b.RFP, a.Cycles, a.RFP)
		}
		if a.RFP.Useful == 0 {
			t.Errorf("wrap %d KiB: RFP never engaged", wrap>>10)
		}
	}
	if a, b := runBoth(1 << 20); a.RFP == b.RFP {
		t.Errorf("1 MiB wrap: PAT run matches the full-address run (%+v) despite exceeding PAT capacity", a.RFP)
	}
}

// TestCLPPredictedDRAMInjectsNothing pins CLP's DRAM gate: a strided load
// that misses to DRAM on every iteration (no L1 prefetcher, no wrap) is
// predicted to go to DRAM, so CLP suppresses every prefetch RFP alone
// would inject — and since none of those prefetches could arrive in time,
// timing is cycle-identical. The 64-byte stride stays within the PT's
// 8-bit stride field; a 128-byte stride never trains and the pin would
// hold vacuously.
func TestCLPPredictedDRAMInjectsNothing(t *testing.T) {
	mk := func() *loopGen {
		return &loopGen{
			name: "dram-stream",
			body: []isa.MicroOp{
				ld(0x10, 1, 2, 0x10000000),
				alu(0x14, 3, 1, 3),
				br(0x18, true),
			},
			strides: []int64{64, 0, 0},
		}
	}
	for _, n := range []uint64{10000, 40000} {
		rfp := run(t, config.Baseline().WithRFP(), mk(), n)
		clp := run(t, config.Baseline().WithCLP(), mk(), n)
		if rfp.RFP.Injected == 0 {
			t.Fatalf("n=%d: RFP alone injected nothing; the pin would hold vacuously", n)
		}
		if clp.RFP.Injected != 0 {
			t.Errorf("n=%d: CLP injected %d packets on predicted-DRAM loads, want 0", n, clp.RFP.Injected)
		}
		if clp.CLP.SkippedDRAM != rfp.RFP.Injected {
			t.Errorf("n=%d: CLP skipped %d DRAM prefetches, want the %d RFP alone injects", n, clp.CLP.SkippedDRAM, rfp.RFP.Injected)
		}
		if clp.Cycles != rfp.Cycles {
			t.Errorf("n=%d: CLP run took %d cycles, RFP alone %d; want identical", n, clp.Cycles, rfp.Cycles)
		}
		t.Logf("n=%d: %d cycles, %d prefetches skipped (useful without CLP: %d)", n, clp.Cycles, clp.CLP.SkippedDRAM, rfp.RFP.Useful)
	}
}

// TestWarmCachesMakesColdStartWarm compares first-window L1 hit rates with
// and without footprint warming.
func TestWarmCachesMakesColdStartWarm(t *testing.T) {
	spec, _ := trace.ByName("spec06_hmmer")
	cold := New(config.Baseline(), spec.New())
	stCold, err := cold.Run(context.Background(), 20000)
	if err != nil {
		t.Fatal(err)
	}
	warm := New(config.Baseline(), spec.New())
	warm.WarmCaches()
	stWarm, err := warm.Run(context.Background(), 20000)
	if err != nil {
		t.Fatal(err)
	}
	if stWarm.LoadLevelFrac(stats.LevelL1) <= stCold.LoadLevelFrac(stats.LevelL1) {
		t.Errorf("warming did not raise the L1 hit rate: %.2f vs %.2f",
			stWarm.LoadLevelFrac(stats.LevelL1), stCold.LoadLevelFrac(stats.LevelL1))
	}
}

// TestWarmupWindowExcludesTrainingNoise: IPC measured after a warmup must
// be at least the cold-start IPC for a cache-friendly workload.
func TestWarmupWindowExcludesTrainingNoise(t *testing.T) {
	spec, _ := trace.ByName("spec06_hmmer")
	coldStats := func() *stats.Sim {
		c := New(config.Baseline(), spec.New())
		st, err := c.Run(context.Background(), 20000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}()
	warmStats := func() *stats.Sim {
		c := New(config.Baseline(), spec.New())
		if err := c.Warmup(context.Background(), 20000); err != nil {
			t.Fatal(err)
		}
		st, err := c.Run(context.Background(), 20000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}()
	if warmStats.IPC() < coldStats.IPC() {
		t.Errorf("warmed IPC %.3f below cold %.3f", warmStats.IPC(), coldStats.IPC())
	}
	// Commit retires up to Width uops in the final cycle, so the window
	// may overshoot by at most Width-1.
	if warmStats.Instructions < 20000 || warmStats.Instructions >= 20000+uint64(config.Baseline().Width) {
		t.Errorf("measured window = %d uops", warmStats.Instructions)
	}
}

// TestRFPOnL1MissBringsOuterData: with PrefetchOnL1Miss enabled (default),
// prefetches to L2-resident lines must record outer-level hits for covered
// loads.
func TestRFPOnL1MissBringsOuterData(t *testing.T) {
	// The body is 5 uops so outstanding instances of the load PC stay
	// inside the 7-bit in-flight counter's range.
	mk := func() *loopGen {
		return &loopGen{
			name: "l2stream",
			body: []isa.MicroOp{
				ld(0x10, 1, 1, 0x1000000),
				alu(0x14, 2, 1, isa.NoReg),
				alu(0x18, 3, 2, isa.NoReg),
				alu(0x1c, 4, 3, isa.NoReg),
				br(0x20, true),
			},
			strides: []int64{64, 0, 0, 0, 0},
			wrap:    128 << 10, // L2-resident once warmed (one pass = ~10k uops)
		}
	}
	cfg := config.Baseline().WithRFP()
	c := New(cfg, mk())
	if err := c.Warmup(context.Background(), 20000); err != nil { // first pass warms L2
		t.Fatal(err)
	}
	st, err := c.Run(context.Background(), 20000)
	if err != nil {
		t.Fatal(err)
	}
	if st.RFP.Useful == 0 {
		t.Fatal("no useful prefetches on a strided L2 stream")
	}
	if st.RFP.L1Misses == 0 {
		t.Error("no prefetch L1 misses recorded on an L2-resident stream")
	}
	beyond := st.LoadHitLevel[stats.LevelMSHR] + st.LoadHitLevel[stats.LevelL2] +
		st.LoadHitLevel[stats.LevelLLC] + st.LoadHitLevel[stats.LevelMem]
	if beyond == 0 {
		t.Error("covered loads recorded no outer-level hits")
	}
}

// TestOnCommitHookOrder: the observer must see strictly increasing PC-local
// order for a single-kernel loop (program order).
func TestOnCommitHookOrder(t *testing.T) {
	g := &loopGen{name: "seq", body: []isa.MicroOp{
		alu(0x10, 1, 1, isa.NoReg),
		alu(0x14, 2, 1, isa.NoReg),
		alu(0x18, 3, 2, isa.NoReg),
	}}
	c := New(config.Baseline(), g)
	wantPC := []uint64{0x10, 0x14, 0x18}
	i := 0
	c.OnCommit(func(op *isa.MicroOp) {
		if op.PC != wantPC[i%3] {
			t.Fatalf("commit %d out of order: pc=%#x", i, op.PC)
		}
		i++
	})
	if _, err := c.Run(context.Background(), 9000); err != nil {
		t.Fatal(err)
	}
	if i < 9000 {
		t.Errorf("observer saw %d commits", i)
	}
}

// TestDLVPProbeLifecycleOnStrideLoop drives a loop whose load is perfectly
// path- and stride-predictable, and checks the DLVP waterfall counters
// advance through every stage.
func TestDLVPProbeLifecycleOnStrideLoop(t *testing.T) {
	body := []isa.MicroOp{
		ld(0x10, 1, isa.NoReg, 0x8000),
		alu(0x14, 2, 1, isa.NoReg),
		br(0x18, true),
	}
	mk := func() *loopGen {
		return &loopGen{name: "dlvp", body: body, strides: []int64{8, 0, 0}, wrap: 8 << 10}
	}
	cfg := config.Baseline().WithVP(config.VPDLVP)
	c := New(cfg, mk())
	if err := c.Warmup(context.Background(), 20000); err != nil {
		t.Fatal(err)
	}
	st, err := c.Run(context.Background(), 20000)
	if err != nil {
		t.Fatal(err)
	}
	ap := st.AP
	if ap.AddressPredictable == 0 || ap.HighConfidence == 0 {
		t.Fatalf("DLVP never matched a perfectly strided loop: %+v", ap)
	}
	if ap.ProbeLaunched == 0 {
		t.Fatal("no probes launched despite free ports")
	}
	if ap.ProbeInTime == 0 {
		t.Fatal("no probe returned before allocation")
	}
	if st.VP.Predicted == 0 {
		t.Fatal("in-time probes produced no value predictions")
	}
	// On a store-free loop the probes read valid data: near-zero flushes.
	if st.VP.Mispredicted > st.VP.Predicted/20 {
		t.Errorf("DLVP mispredicted %d of %d on a store-free strided loop",
			st.VP.Mispredicted, st.VP.Predicted)
	}
}

// TestDLVPStaleProbeDetectedViaForwarding: a load that forwards from an
// in-flight store must invalidate its probe-based prediction (the L1 probe
// read pre-store data).
func TestDLVPStaleProbeDetectedViaForwarding(t *testing.T) {
	// Store and reload the same slot every iteration; the load's address
	// is trivially predictable so DLVP will probe it, but the value comes
	// from the store queue.
	body := []isa.MicroOp{
		alu(0x0c, 2, 2, isa.NoReg),
		st8(0x10, isa.NoReg, 2, 0x9000),
		ld(0x14, 3, isa.NoReg, 0x9000),
		alu(0x18, 4, 3, isa.NoReg),
		br(0x1c, true),
	}
	cfg := config.Baseline().WithVP(config.VPDLVP)
	c := New(cfg, &loopGen{name: "stale", body: body})
	st, err := c.Run(context.Background(), 30000)
	if err != nil {
		t.Fatal(err)
	}
	if st.StoreForwarded == 0 {
		t.Fatal("no forwarding in a store-reload loop")
	}
	// The no-FWD filter learns to suppress these, so predictions (and
	// therefore flushes) must be rare relative to loads.
	if st.VP.Predicted > st.Loads/4 {
		t.Errorf("no-FWD filter let %d of %d store-forwarded loads predict",
			st.VP.Predicted, st.Loads)
	}
}

// TestCompositeFallsBackToProbe: the Composite configuration must produce
// more predictions than EVES alone on a workload whose values are random
// but addresses are predictable.
func TestCompositeCoversMoreThanEVES(t *testing.T) {
	body := []isa.MicroOp{
		ld(0x10, 1, isa.NoReg, 0x8000),
		alu(0x14, 2, 1, isa.NoReg),
		br(0x18, true),
	}
	mk := func(seed uint64) *valueFlipGen {
		// Values change constantly: EVES can't learn them; DLVP probes can
		// still fetch them early because the ADDRESS strides.
		g := &loopGen{name: "addrpred", body: body, strides: []int64{8, 0, 0}, wrap: 8 << 10}
		return &valueFlipGen{g}
	}
	runMode := func(mode config.VPMode) *stats.Sim {
		c := New(config.Baseline().WithVP(mode), mk(1))
		if err := c.Warmup(context.Background(), 20000); err != nil {
			t.Fatal(err)
		}
		st, err := c.Run(context.Background(), 20000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	eves := runMode(config.VPEVES)
	comp := runMode(config.VPComposite)
	if comp.VP.Predicted <= eves.VP.Predicted {
		t.Errorf("composite predicted %d, EVES %d: the DLVP side never engaged",
			comp.VP.Predicted, eves.VP.Predicted)
	}
}

// TestSlotAccountingConservation: every cycle contributes exactly Width
// commit slots across the four categories.
func TestSlotAccountingConservation(t *testing.T) {
	spec, _ := trace.ByName("spec06_gcc")
	c := New(config.Baseline(), spec.New())
	c.WarmCaches()
	st, err := c.Run(context.Background(), 20000)
	if err != nil {
		t.Fatal(err)
	}
	want := st.Cycles * uint64(config.Baseline().Width)
	if got := st.Slots.Total(); got != want {
		t.Errorf("slot total %d != cycles*width %d", got, want)
	}
	r, l, e, f := st.Slots.Frac()
	if s := r + l + e + f; s < 0.999 || s > 1.001 {
		t.Errorf("slot fractions sum to %v", s)
	}
}

// TestSlotAccountingRFPShiftsLoadStalls: on a chase-critical workload RFP
// must convert load-stall slots into retired slots.
func TestSlotAccountingRFPShiftsLoadStalls(t *testing.T) {
	mk := func() *loopGen {
		return &loopGen{
			name: "chase",
			body: []isa.MicroOp{
				ld(0x10, 1, 1, 0x100000),
				alu(0x14, 2, 1, isa.NoReg),
				alu(0x18, 2, 2, isa.NoReg),
				br(0x1c, true),
			},
			strides: []int64{8, 0, 0, 0},
			wrap:    16 << 10,
		}
	}
	base := run(t, config.Baseline(), mk(), 30000)
	rfp := run(t, config.Baseline().WithRFP(), mk(), 30000)
	_, baseLoad, _, _ := base.Slots.Frac()
	rRet, rLoad, _, _ := rfp.Slots.Frac()
	bRet, _, _, _ := base.Slots.Frac()
	if rLoad >= baseLoad {
		t.Errorf("RFP did not reduce load-stall slots: %.2f vs %.2f", rLoad, baseLoad)
	}
	if rRet <= bRet {
		t.Errorf("RFP did not raise retired slots: %.2f vs %.2f", rRet, bRet)
	}
}
