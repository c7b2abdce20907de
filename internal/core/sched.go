package core

// The scheduler and LSQ indexes keep the cycle loop off the ROB. Issue
// visits only the reservation-station entries that can pass the
// speculative-wakeup check this cycle, which the producer-driven wakeup
// state below tracks, and the memory-ordering scans walk only the loads or
// stores they care about. All of it lives in storage New preallocates, so
// upkeep never allocates. docs/architecture.md ("Scheduler indexes")
// states the invariants and why the wakeup is exact.

// robRef names one in-flight entry: its dispatch sequence number, which
// orders the indexes by age, and its ROB ring slot.
type robRef struct {
	seq  uint64
	slot int32
}

// lsqIndex is an age-ordered ring of the in-flight loads (or stores),
// oldest first. Dispatch pushes at the tail, retirement pops the head and a
// flush truncates the squashed tail, so its length is the LQ (SQ)
// occupancy. canDispatch keeps it within the capacity New gave it.
type lsqIndex struct {
	buf  []robRef
	head int
	n    int
}

func newLSQIndex(capacity int) lsqIndex { return lsqIndex{buf: make([]robRef, capacity)} }

func (q *lsqIndex) len() int { return q.n }

// at returns the i-th oldest member.
func (q *lsqIndex) at(i int) robRef {
	j := q.head + i
	if j >= len(q.buf) {
		j -= len(q.buf)
	}
	return q.buf[j]
}

// push appends the youngest member.
func (q *lsqIndex) push(r robRef) {
	j := q.head + q.n
	if j >= len(q.buf) {
		j -= len(q.buf)
	}
	q.buf[j] = r
	q.n++
}

// popHead drops the oldest member (it retired).
func (q *lsqIndex) popHead() {
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
}

// truncate drops every member at least as young as seq (a squashed tail).
func (q *lsqIndex) truncate(seq uint64) {
	for q.n > 0 && q.at(q.n-1).seq >= seq {
		q.n--
	}
}

// olderThan returns how many members are older than seq: members
// [0, olderThan(seq)) precede it in program order, the rest follow it.
func (q *lsqIndex) olderThan(seq uint64) int {
	lo, hi := 0, q.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q.at(mid).seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// wheelSize is the number of timing-wheel buckets, a power of two. An RS
// entry whose wake bound lies wheelSize or more cycles ahead is merged a
// lap early, fails the wakeup check and is filed again.
const wheelSize = 128

// wakeup is the producer-driven select state over ROB slots. Every RS
// entry sits, no later than the first cycle it can pass specWake, in the
// ready set or a wheel bucket that is merged into it by then, or is parked
// on an in-flight producer that has no result time yet. Bits may go
// stale (their slot was issued, squashed or reused); issue checks each
// visited slot, so stale bits cost a visit, never a wrong cycle.
type wakeup struct {
	words  int      // words per slot set: ceil(ROBSize/64)
	ready  []uint64 // the slots issue visits, oldest first
	wheel  []uint64 // wheelSize slot sets; bucket b merges at cycles ≡ b
	busy   [wheelSize / 64]uint64
	parked []uint64 // per producer slot, the consumer slots parked on it
	waited []uint64 // the producer slots with parked consumers
}

// newSchedState carves the wakeup sets and the per-slot result times
// (doneSpec, doneReal) out of one array, so a core costs the same number
// of allocations however large its ROB. It reuses buf, cleared, when buf
// is a previous core's array for the same ROB size.
func (c *Core) newSchedState(robSize int, buf []uint64) {
	n := (robSize + 63) / 64
	if size := 2*robSize + n*(2+wheelSize+robSize); len(buf) == size {
		clear(buf)
	} else {
		buf = make([]uint64, size)
	}
	c.sched = buf
	carve := func(k int) []uint64 {
		s := buf[:k:k]
		buf = buf[k:]
		return s
	}
	c.doneSpec, c.doneReal = carve(robSize), carve(robSize)
	c.wake = wakeup{words: n, ready: carve(n), waited: carve(n),
		wheel: carve(wheelSize * n), parked: carve(robSize * n)}
}

// producerOf returns the ROB slot of source s's in-flight producer, or -1
// when the source is architecturally ready. Retirement follows sequence
// order and a flush that squashes a producer squashes its consumers, so a
// live entry's producer is in flight exactly when it has not retired.
func (c *Core) producerOf(e *entry, s int) int {
	if e.srcSeq[s] > c.retiredSeq {
		return int(e.srcIdx[s])
	}
	return -1
}

// srcReadyAt returns the cycle source s becomes actually available (0 when
// already ready).
func (c *Core) srcReadyAt(e *entry, s int) uint64 {
	if p := c.producerOf(e, s); p >= 0 {
		return c.doneReal[p]
	}
	return 0
}

// specWake evaluates issue's speculative-wakeup check for e at the current
// cycle: e passes once its scheduling delay and retry time have elapsed
// and every live producer announces its result (doneSpec). When e fails
// and park is -1, bound is a cycle before which it cannot pass:
//
//   - earliestIssue and retryAt change only when e itself is evaluated;
//   - a producer with a known result time keeps doneSpec and doneReal
//     fixed from then on, and stays live until it commits, which needs
//     doneReal <= cycle, so the source it feeds is ready no earlier than
//     min(doneSpec, doneReal).
//
// A live producer with no result time yet (park >= 0, its slot) holds e
// back until it issues; setDone files e again then.
func (c *Core) specWake(e *entry) (ready bool, bound uint64, park int) {
	bound = max(e.earliestIssue, e.retryAt)
	ready = c.cycle >= bound
	for s := 0; s < 2; s++ {
		p := c.producerOf(e, s)
		if p < 0 {
			continue
		}
		spec := c.doneSpec[p]
		if spec == farFuture {
			return false, bound, p
		}
		ready = ready && spec <= c.cycle
		bound = max(bound, min(spec, c.doneReal[p]))
	}
	return ready, bound, -1
}

// file places the RS entry at slot where issue finds it no later than the
// first cycle it can pass specWake: parked on its untimed producer, or in
// the wheel bucket of its bound, which is at least the next cycle.
func (c *Core) file(slot, park int, bound uint64) {
	w := &c.wake
	word, bit := slot>>6, uint64(1)<<(slot&63)
	if park >= 0 {
		w.parked[park*w.words+word] |= bit
		w.waited[park>>6] |= 1 << (park & 63)
		return
	}
	w.bucket(bound, c.cycle)[word] |= bit
}

// bucket returns the wheel bucket for bound, raised to at least the cycle
// after now, and marks it non-empty.
func (w *wakeup) bucket(bound, now uint64) []uint64 {
	b := int(max(bound, now+1) & (wheelSize - 1))
	w.busy[b>>6] |= 1 << (b & 63)
	return w.wheel[b*w.words : (b+1)*w.words]
}

// setDone records the result times of the uop at slot and moves the RS
// entries parked on it into the wheel, without evaluating them: none can
// pass before min(spec, real), when that source becomes ready, and every
// latency is at least a cycle.
func (c *Core) setDone(slot int, spec, real uint64) {
	c.doneSpec[slot], c.doneReal[slot] = spec, real
	w := &c.wake
	flag := uint64(1) << (slot & 63)
	if w.waited[slot>>6]&flag == 0 {
		return
	}
	w.waited[slot>>6] &^= flag
	bucket := w.bucket(min(spec, real), c.cycle)
	row := w.parked[slot*w.words : (slot+1)*w.words]
	for i, set := range row {
		bucket[i] |= set
		row[i] = 0
	}
}

// merge moves the wheel bucket of cycle now into the ready set.
func (w *wakeup) merge(now uint64) {
	b := int(now & (wheelSize - 1))
	flag := uint64(1) << (b & 63)
	if w.busy[b>>6]&flag == 0 {
		return
	}
	w.busy[b>>6] &^= flag
	bucket := w.wheel[b*w.words : (b+1)*w.words]
	for i, set := range bucket {
		w.ready[i] |= set
		bucket[i] = 0
	}
}

// robOffset converts a ring slot into its offset from robHead.
func (c *Core) robOffset(slot int32) int {
	off := int(slot) - c.robHead
	if off < 0 {
		off += len(c.rob)
	}
	return off
}
