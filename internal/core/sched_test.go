package core

import (
	"fmt"
	"testing"

	"rfpsim/internal/config"
	"rfpsim/internal/isa"
	"rfpsim/internal/stats"
	"rfpsim/internal/trace"
)

// checkIndexes compares the scheduler state with the ROB walk it
// replaces. The RS occupancy counter equals the number of RS entries the
// walk finds, and the LQ and SQ indexes hold the walk's loads and stores
// in age order. It also checks the wakeup rule: every RS entry that could
// pass the speculative-wakeup check at the next issue is in the ready set
// or in the wheel bucket that issue merges first.
func checkIndexes(c *Core) error {
	var inRS []int
	var loads, stores []robRef
	for off := 0; off < c.robCount; off++ {
		slot := c.robIndex(off)
		e := &c.rob[slot]
		if !e.valid {
			return fmt.Errorf("invalid entry at ROB offset %d", off)
		}
		r := robRef{seq: e.op.Seq, slot: int32(slot)}
		if e.inRS {
			inRS = append(inRS, slot)
		}
		switch {
		case e.isLoad():
			loads = append(loads, r)
		case e.isStore():
			stores = append(stores, r)
		}
	}
	if c.rsCount != len(inRS) {
		return fmt.Errorf("RS count is %d, ROB walk finds %d RS entries", c.rsCount, len(inRS))
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
	}{{"LQ", lq, loads}, {"SQ", sq, stores}} {
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
	// which can retire producers whose doneReal has passed. An entry that
	// could pass the check then must be where that issue looks.
	next := c.cycle
	canWake := func(e *entry) bool {
		if next < e.earliestIssue || next < e.retryAt {
			return false
		}
		for s := 0; s < 2; s++ {
			if p := c.producerOf(e, s); p >= 0 && c.doneSpec[p] > next && c.doneReal[p] > next {
				return false
			}
		}
		return true
	}
	w := &c.wake
	bucket := int(next&(wheelSize-1)) * w.words
	for _, slot := range inRS {
		e := &c.rob[slot]
		word, bit := slot>>6, uint64(1)<<(slot&63)
		if canWake(e) && (w.ready[word]|w.wheel[bucket+word])&bit == 0 {
			return fmt.Errorf("RS entry seq=%d (slot %d) can wake at cycle %d but is neither ready nor in that cycle's bucket",
				e.op.Seq, slot, next)
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

// TestSchedulerIndexesMatchROB steps flush-heavy and miss-heavy workloads
// and checks the scheduler state against the ROB after every cycle. Each
// case must actually exercise the path it is there for.
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
		// A 528-entry ROB is not a multiple of 64: the last word of every
		// slot set is partial, and the age-order walk wraps inside it.
		{"baseline2x", config.Baseline2x(), catalog("spec06_gcc"),
			func(st *stats.Sim) uint64 { return st.MemOrderViolations }},
		// Long-latency misses: consumers park on untimed loads, and those
		// woken by a hit/miss misprediction replay until a DRAM fill that
		// lies more than a wheel lap ahead.
		{"mcf-rfp-clp", config.Baseline().WithCLP(), catalog("spec06_mcf"),
			func(st *stats.Sim) uint64 { return st.Replays * st.HitMissMispredicts * st.CLP.EarlyArmed }},
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
