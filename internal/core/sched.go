package core

// The scheduler and LSQ indexes keep the cycle loop off the ROB: issue
// walks only the reservation stations, and the memory-ordering scans walk
// only the loads or stores they care about. Each index holds (seq, slot)
// references oldest first, in storage New preallocates, so upkeep never
// allocates. docs/architecture.md ("Scheduler indexes") states the
// invariants and why the wake bounds are exact.

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

// truncateRS drops the squashed tail (every entry at least as young as
// seq) from the reservation-station index.
func (c *Core) truncateRS(seq uint64) {
	n := len(c.rs)
	for n > 0 && c.rs[n-1].seq >= seq {
		n--
	}
	c.rs = c.rs[:n]
}

// rsRef is a reservation-station index member: the entry's reference plus
// a copy of its wakeAt, so the walk can pass over a waiting entry without
// touching the ROB.
type rsRef struct {
	robRef
	wake uint64
}

// specWake evaluates issue's speculative-wakeup check for e at the current
// cycle: e passes once its scheduling delay and retry time have elapsed
// and every live producer announces its result (doneSpec). When e fails,
// bound is a cycle before which it cannot pass:
//
//   - earliestIssue and retryAt change only when e itself is evaluated;
//   - a producer with a known result time keeps doneSpec and doneReal
//     fixed from then on, and stays live until it commits, which needs
//     doneReal <= cycle, so the source it feeds is ready no earlier than
//     min(doneSpec, doneReal);
//   - a producer with no result time yet cannot issue before its own
//     wakeAt (older entries are evaluated first) nor before next cycle.
func (c *Core) specWake(e *entry) (ready bool, bound uint64) {
	bound = max(e.earliestIssue, e.retryAt)
	ready = c.cycle >= bound
	for s := 0; s < 2; s++ {
		p := c.producerOf(e, s)
		if p == nil {
			continue
		}
		if p.doneSpec == farFuture {
			ready = false
			bound = max(bound, p.wakeAt, c.cycle+1)
		} else {
			ready = ready && p.doneSpec <= c.cycle
			bound = max(bound, min(p.doneSpec, p.doneReal))
		}
	}
	return ready, bound
}

// robOffset converts a ring slot into its offset from robHead.
func (c *Core) robOffset(slot int32) int {
	off := int(slot) - c.robHead
	if off < 0 {
		off += len(c.rob)
	}
	return off
}
