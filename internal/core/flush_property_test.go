package core

import (
	"math/rand"
	"testing"

	"rfpsim/internal/config"
	"rfpsim/internal/isa"
)

// TestFlushReplayOrderProperty is the property test guarding the
// scratch-buffer rewrite of flushFrom/requeueFetchQ: for arbitrary window,
// fetch-queue and replay-buffer contents, a flush must leave the replay
// buffer holding exactly (squashed ROB uops oldest-first, then the fetch
// queue, then the prior replay contents), all with Seq cleared for
// re-dispatch. Repeated flushes against the same core exercise the buffer
// swap, so any aliasing between the scratch arrays and the live replay
// buffer corrupts an ordering this test pins.
func TestFlushReplayOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	for iter := 0; iter < 50; iter++ {
		c := New(config.Baseline(), &loopGen{name: "unused", body: []isa.MicroOp{alu(0x10, 1, 1, isa.NoReg)}})
		var nextPC uint64 = 0x1000
		for round := 0; round < 4; round++ {
			// Grow the ROB tail with fresh synthetic entries (some invalid,
			// which a flush must skip).
			for i, n := 0, 1+rng.Intn(8); i < n && c.robCount < len(c.rob); i++ {
				e := &c.rob[c.robIndex(c.robCount)]
				e.reset()
				e.op = alu(nextPC, isa.NoReg, isa.NoReg, isa.NoReg)
				if rng.Intn(3) == 0 {
					e.op = br(nextPC, false)
				}
				nextPC += 4
				c.nextSeq++
				e.op.Seq = c.nextSeq
				e.valid = rng.Intn(6) != 0
				if e.valid {
					e.inRS = true
					c.rs = append(c.rs, rsRef{robRef: robRef{seq: e.op.Seq, slot: int32(c.robIndex(c.robCount))}})
				}
				c.robCount++
			}
			// Fresh fetch-queue contents.
			var tailOps []isa.MicroOp
			for i, n := 0, rng.Intn(5); i < n; i++ {
				op := alu(nextPC, isa.NoReg, isa.NoReg, isa.NoReg)
				nextPC += 4
				c.nextSeq++
				op.Seq = c.nextSeq
				c.fetchQ = append(c.fetchQ, fetched{op: op})
				tailOps = append(tailOps, op)
			}

			// The expected replay buffer, computed from pre-flush state by
			// the definition flushFrom is supposed to implement.
			preRobCount := c.robCount
			fromOff := rng.Intn(c.robCount + 1)
			var want []isa.MicroOp
			for off := fromOff; off < c.robCount; off++ {
				if e := &c.rob[c.robIndex(off)]; e.valid {
					op := e.op
					op.Seq = 0
					want = append(want, op)
				}
			}
			for _, op := range tailOps {
				op.Seq = 0
				want = append(want, op)
			}
			prior := append([]isa.MicroOp(nil), c.pending[c.pendingHead:]...)
			want = append(want, prior...)
			if len(want) == len(prior) {
				// Nothing squashed or requeued: the replay buffer must be
				// left untouched (same contents, same consumption point).
				want = prior
			}

			c.flushFrom(fromOff, true)

			wantRob := min(fromOff, preRobCount)
			if c.robCount != wantRob {
				t.Fatalf("iter %d round %d: robCount = %d after flushFrom(%d), want %d",
					iter, round, c.robCount, fromOff, wantRob)
			}
			survivors := 0
			for off := 0; off < c.robCount; off++ {
				if c.rob[c.robIndex(off)].valid {
					survivors++
				}
			}
			if len(c.rs) != survivors {
				t.Fatalf("iter %d round %d: RS index holds %d entries after flushFrom(%d), want the %d survivors",
					iter, round, len(c.rs), fromOff, survivors)
			}
			if c.fetchQLen() != 0 {
				t.Fatalf("iter %d round %d: fetch queue not drained by flush", iter, round)
			}
			got := c.pending[c.pendingHead:]
			if len(got) != len(want) {
				t.Fatalf("iter %d round %d: replay buffer has %d uops, want %d", iter, round, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("iter %d round %d: replay[%d] = %+v, want %+v", iter, round, i, got[i], want[i])
				}
			}
		}
	}
}
