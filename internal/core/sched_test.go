package core

import (
	"fmt"
	"testing"

	"rfpsim/internal/config"
	"rfpsim/internal/isa"
	"rfpsim/internal/stats"
	"rfpsim/internal/trace"
)

// checkIndexes compares every scheduler index with the ROB walk it
// replaces: the same members in age order, so the lengths equal the RS, LQ
// and SQ occupancies. It also checks that no entry the next issue walk
// would pass over (by its wakeAt or the idle bound) could wake.
func checkIndexes(c *Core) error {
	var inRS, loads, stores []robRef
	for off := 0; off < c.robCount; off++ {
		slot := c.robIndex(off)
		e := &c.rob[slot]
		if !e.valid {
			return fmt.Errorf("invalid entry at ROB offset %d", off)
		}
		r := robRef{seq: e.op.Seq, slot: int32(slot)}
		if e.inRS {
			inRS = append(inRS, r)
		}
		switch {
		case e.isLoad():
			loads = append(loads, r)
		case e.isStore():
			stores = append(stores, r)
		}
	}
	rs := make([]robRef, len(c.rs))
	for i, r := range c.rs {
		rs[i] = r.robRef
	}
	lq, sq := make([]robRef, c.lq.len()), make([]robRef, c.sq.len())
	for i := range lq {
		lq[i] = c.lq.at(i)
	}
	for i := range sq {
		sq[i] = c.sq.at(i)
	}
	for _, ix := range []struct {
		name      string
		got, want []robRef
	}{{"RS", rs, inRS}, {"LQ", lq, loads}, {"SQ", sq, stores}} {
		if len(ix.got) != len(ix.want) {
			return fmt.Errorf("%s index holds %d entries, ROB walk finds %d", ix.name, len(ix.got), len(ix.want))
		}
		for i := range ix.want {
			if ix.got[i] != ix.want[i] {
				return fmt.Errorf("%s index[%d] = %+v, ROB walk has %+v", ix.name, i, ix.got[i], ix.want[i])
			}
		}
	}
	// Nothing runs between this check and the next issue except commit,
	// which can retire producers whose doneReal has passed. An entry the
	// walk would pass over next cycle must fail the wakeup check even so.
	next := c.cycle
	canWake := func(e *entry) bool {
		if next < e.earliestIssue || next < e.retryAt {
			return false
		}
		for s := 0; s < 2; s++ {
			if p := c.producerOf(e, s); p != nil && p.doneSpec > next && p.doneReal > next {
				return false
			}
		}
		return true
	}
	for _, r := range c.rs {
		e := &c.rob[r.slot]
		if r.wake != e.wakeAt {
			return fmt.Errorf("RS entry seq=%d: index wake %d, entry wakeAt %d", r.seq, r.wake, e.wakeAt)
		}
		if (next < r.wake || next < c.issueIdleUntil) && canWake(e) {
			return fmt.Errorf("RS entry seq=%d can wake at cycle %d, but wake=%d, idle until %d",
				r.seq, next, r.wake, c.issueIdleUntil)
		}
	}
	return nil
}

// valueNoiseGen gives randMemGen's loads values that repeat often enough
// for EVES to grow confident and change often enough to mispredict.
type valueNoiseGen struct{ *randMemGen }

func (g valueNoiseGen) Next(op *isa.MicroOp) bool {
	g.randMemGen.Next(op)
	if op.IsLoad() && g.rng.Intn(8) == 0 {
		op.Value = 1
	}
	return true
}

// TestSchedulerIndexesMatchROB steps flush-heavy workloads and checks the
// indexes against the ROB after every cycle. Each case must actually
// exercise the recovery path it is there for.
func TestSchedulerIndexesMatchROB(t *testing.T) {
	catalog := func(name string) isa.Generator {
		spec, ok := trace.ByName(name)
		if !ok {
			t.Fatalf("%s missing from catalog", name)
		}
		return spec.New()
	}
	evesFlushy := config.Baseline().WithVP(config.VPEVES).WithRFP()
	evesFlushy.VP.ConfMax = 1 // confident after one hit: frequent wrong values
	evesFlushy.VP.ConfProb = 1
	for _, tc := range []struct {
		name      string
		cfg       config.Core
		gen       isa.Generator
		exercised func(st *stats.Sim) uint64
	}{
		{"randmem+rfp", config.Baseline().WithRFP(), newRandMemGen(42),
			func(st *stats.Sim) uint64 { return st.MemOrderViolations * st.RFP.Executed }},
		{"eves-mispredict", evesFlushy, valueNoiseGen{newRandMemGen(13)},
			func(st *stats.Sim) uint64 { return st.VPFlushes }},
		{"mem-order", config.Baseline(), catalog("spec06_gcc"),
			func(st *stats.Sim) uint64 { return st.MemOrderViolations }},
		{"epp", config.Baseline().WithVP(config.VPEPP), catalog("spec17_xalancbmk"),
			func(st *stats.Sim) uint64 { return st.EPPReexecutions * st.AP.ProbeLaunched }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(tc.cfg, tc.gen)
			c.WarmCaches()
			for c.committed < 20000 {
				c.step()
				if err := checkIndexes(c); err != nil {
					t.Fatalf("cycle %d: %v", c.cycle, err)
				}
			}
			if tc.exercised(c.st) == 0 {
				t.Fatalf("workload never exercised its recovery path: %+v", *c.st)
			}
		})
	}
}
