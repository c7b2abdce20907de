package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rfpsim/internal/obs"
)

// Span is one recorded interval. The spans of one job, request or sweep
// unit share a Trace id; Parent is 0 for a root span.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Ops is the operation count a layer-replay span covers.
	Ops int64 `json:"ops,omitempty"`
}

// recorder keeps spans in memory until the run writes them out. A nil
// recorder is the untraced run: every method is a no-op on it.
type recorder struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []Span
	nextID uint64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// span is an open span.
type span struct {
	r      *recorder
	id     uint64
	parent uint64
	trace  uint64
	name   string
	start  time.Time
}

// begin opens a span under parent (nil for a root span).
func (r *recorder) begin(name string, parent *span) *span {
	if r == nil {
		return nil
	}
	id := r.newID()
	s := &span{r: r, id: id, trace: id, name: name, start: time.Now()}
	if parent != nil {
		s.parent, s.trace = parent.id, parent.trace
	}
	return s
}

// end closes the span, recording ops operations.
func (s *span) end(ops int64) {
	if s == nil {
		return
	}
	s.r.add(Span{ID: s.id, Parent: s.parent, Trace: s.trace, Name: s.name,
		Start: int64(s.start.Sub(s.r.t0)), End: int64(time.Since(s.r.t0)), Ops: ops})
}

// stages adds the program's stage timings of a finished job as child
// spans. The timings are totals per stage, not intervals, so the children
// are laid end to end from the job's start in pipeline order; only their
// durations are measurements. What they leave of the job span is the
// job's own, unattributed time.
func (s *span) stages(t *obs.Timings) {
	if s == nil || t == nil {
		return
	}
	cursor := int64(s.start.Sub(s.r.t0))
	for _, stage := range obs.Stages() {
		d := int64(t.Stage(stage))
		if d == 0 {
			continue
		}
		s.r.add(Span{ID: s.r.newID(), Parent: s.id, Trace: s.trace, Name: "stage." + stage,
			Start: cursor, End: cursor + d})
		cursor += d
	}
}

func (r *recorder) newID() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return r.nextID
}

func (r *recorder) add(sp Span) {
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// selfTime is one span name's totals.
type selfTime struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes sums, per span name, the spans' durations and their self
// time: the duration minus the part their children cover.
func (r *recorder) selfTimes() []selfTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[uint64]int64{}
	for _, sp := range r.spans {
		if sp.Parent != 0 {
			children[sp.Parent] += sp.End - sp.Start
		}
	}
	byName := map[string]*selfTime{}
	for _, sp := range r.spans {
		st := byName[sp.Name]
		if st == nil {
			st = &selfTime{name: sp.Name}
			byName[sp.Name] = st
		}
		d := sp.End - sp.Start
		st.count++
		st.total += time.Duration(d)
		st.self += time.Duration(d - children[sp.ID])
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

func printSelfTimes(e *env, r *recorder) {
	e.logf("self time by span (%d spans):\n", r.len())
	for _, st := range r.selfTimes() {
		e.logf("  %-36s n=%-7d total %10.3f ms  self %10.3f ms\n",
			st.name, st.count, msOf([]time.Duration{st.total})[0], msOf([]time.Duration{st.self})[0])
	}
}

// write stores the spans as one JSON document.
func (r *recorder) write(path, workload string, seed uint64) error {
	r.mu.Lock()
	doc := struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []Span `json:"spans"`
	}{workload, seed, r.spans}
	body, err := json.Marshal(doc)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, body, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
