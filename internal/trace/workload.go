package trace

import (
	"fmt"
	"slices"
	"sort"

	"rfpsim/internal/isa"
	"rfpsim/internal/prng"
)

// Category groups workloads the way the paper's Table 3 does.
type Category string

// Workload categories.
const (
	Spec06    Category = "SPEC06"
	Spec17Int Category = "SPEC17-INT"
	Spec17FP  Category = "SPEC17-FP"
	Cloud     Category = "Cloud"
	Client    Category = "Client"
	HPC       Category = "HPC"
)

// Categories lists all categories in presentation order.
func Categories() []Category {
	return []Category{Spec06, Spec17Int, Spec17FP, Cloud, Client, HPC}
}

// profile describes one workload as a weighted kernel mix plus the shared
// parameters of those kernels. Weights are relative emission frequencies.
type profile struct {
	stream, chase, randChase, gather, stencil, fp, branchy, stack, hash, search int

	foot        uint64  // footprint of strided kernels (bytes)
	bigFoot     uint64  // footprint of randchase/hash kernels (bytes)
	stride      uint64  // byte stride of strided kernels
	strideBreak float64 // probability a strided kernel breaks its stride
	takenProb   float64 // branchy kernel's data-branch taken probability
	fpChain     int     // fp kernel's serial FMA chain length
	constVals   float64 // fraction of load PCs with constant values
	strideVals  float64 // fraction of load PCs with strided values
}

// Footprint presets. A workload composes several kernel instances, so the
// per-kernel L1 presets are sized for their SUM (plus store streams) to
// stay inside the 48 KiB L1; the outer presets are sized to be warmable
// within the simulation windows this repository uses (tens of thousands of
// uops), so steady-state hit levels match the preset's intent.
const (
	footL1  = 8 << 10   // comfortably L1-resident
	footL1b = 12 << 10  // L1-resident, more sets touched
	footL2  = 128 << 10 // L2-resident
	footLLC = 2 << 20   // LLC-resident (must exceed the 1.25 MiB L2 to produce LLC hits)
	footMem = 8 << 20   // DRAM-bound
)

// Spec names one workload of the suite.
type Spec struct {
	// Name is the workload identifier, e.g. "spec06_mcf".
	Name string
	// Category is the Table 3 grouping.
	Category Category
	// Seed drives all pseudo-random decisions of the generator.
	Seed uint64
	prof profile
}

// String implements fmt.Stringer.
func (s Spec) String() string { return fmt.Sprintf("%s (%s)", s.Name, s.Category) }

// New instantiates the workload's deterministic micro-op generator.
func (s Spec) New() isa.Generator { return newGenerator(s) }

// weightedKernel binds one kernel instance to its emitter and pick weight.
type weightedKernel struct {
	k kernel
	e *emitter
	w int
}

// Region is one contiguous virtual address range a workload touches.
type Region struct {
	// Base is the first byte of the region.
	Base uint64
	// Size is the region length in bytes.
	Size uint64
}

// generator interleaves the workload's kernel instances, one iteration at a
// time, weighted by the profile.
type generator struct {
	name     string
	rng      *prng.Source
	kernels  []weightedKernel
	regions  []Region
	totalW   int
	queue    []isa.MicroOp
	head     int
	seq      uint64
	picked   int
	schedule []int
	schedPos int
}

// Region spacing in the virtual address space; each kernel instance owns a
// disjoint 128 MiB region so kernels never alias.
const regionShift = 27

func newGenerator(s Spec) *generator {
	g := &generator{
		name: s.Name,
		rng:  prng.New(s.Seed),
	}
	vals := newValueModel(s.prof.constVals, s.prof.strideVals)
	regs := newRegWindow()
	region := 0
	addInstance := func(w int, build func(base uint64) (kernel, []Region)) {
		if w <= 0 {
			return
		}
		region++
		base := uint64(region) << regionShift
		e := &emitter{
			g:      g,
			pcBase: uint64(region) << 16,
			rng:    g.rng,
			vals:   vals,
		}
		k, touched := build(base)
		g.kernels = append(g.kernels, weightedKernel{k: k, e: e, w: w})
		g.regions = append(g.regions, touched...)
		g.totalW += w
	}

	p := s.prof
	stride := p.stride
	if stride == 0 {
		stride = 8
	}
	// Real programs are never perfectly strided: calls, reallocation and
	// phase changes break strides occasionally, which is what keeps real
	// RFP coverage at ~43% rather than ~100% on array codes.
	strideBreak := p.strideBreak
	if strideBreak == 0 {
		strideBreak = 0.025
	}
	addInstance(p.stream, func(base uint64) (kernel, []Region) {
		foot := nz(p.foot, footL1)
		k := &streamKernel{
			base: base, footprint: foot, stride: stride,
			storeEvery: 4, strideBreak: strideBreak,
			idx: regs.intReg(), addr: regs.intReg(), data: regs.intReg(),
			data2: regs.intReg(), acc: regs.intReg(),
		}
		return k, []Region{{base, 3 * foot}} // two load streams + store stream
	})
	addInstance(p.chase, func(base uint64) (kernel, []Region) {
		foot := nz(p.foot, footL1)
		// Pointer chases run with a deep dispatch backlog, so one stride
		// break mispredicts every outstanding instance — and, under value
		// prediction, costs a full pipeline flush. Real list traversals
		// break only at list boundaries (thousands of hops), hence the
		// much lower break rate than array code.
		k := &chaseKernel{
			base: base, footprint: foot, stride: stride,
			strideBreak: strideBreak * 0.04, workALUs: 1,
			ptr: regs.intReg(), acc: regs.intReg(),
		}
		return k, []Region{{base, foot}}
	})
	addInstance(p.randChase, func(base uint64) (kernel, []Region) {
		foot := nz(p.bigFoot, footMem)
		k := &randChaseKernel{
			base: base, footprint: foot, depProb: 0.4,
			ptr: regs.intReg(), idx: regs.intReg(), acc: regs.intReg(),
		}
		return k, []Region{{base, foot}}
	})
	addInstance(p.gather, func(base uint64) (kernel, []Region) {
		idxFoot, dataFoot := nz(p.foot, footL1), nz(p.bigFoot, footL2)
		k := &gatherKernel{
			idxBase: base, idxFoot: idxFoot, idxStride: stride,
			dataBase: base + (1 << 24), dataFoot: dataFoot,
			dataHotProb: 0.75,
			idxAddr:     regs.intReg(), idx: regs.intReg(), data: regs.intReg(), acc: regs.intReg(),
		}
		return k, []Region{{base, idxFoot}, {base + (1 << 24), dataFoot}}
	})
	addInstance(p.stencil, func(base uint64) (kernel, []Region) {
		foot := nz(p.foot, footL1b)
		k := &stencilKernel{
			base: base, footprint: foot, stride: stride,
			strideBreak: strideBreak,
			outBase:     base + (1 << 24),
			addr:        regs.intReg(),
			in:          [3]isa.RegID{regs.fpReg(), regs.fpReg(), regs.fpReg()},
			out:         regs.fpReg(),
		}
		return k, []Region{{base, foot}, {base + (1 << 24), foot}}
	})
	addInstance(p.fp, func(base uint64) (kernel, []Region) {
		foot := nz(p.foot, footL1)
		k := &fpKernel{
			base: base, footprint: foot, stride: stride,
			strideBreak: strideBreak,
			chainLen:    nzi(p.fpChain, 2),
			addr:        regs.intReg(), data: regs.fpReg(),
			f: [2]isa.RegID{regs.fpReg(), regs.fpReg()},
		}
		return k, []Region{{base, foot}}
	})
	addInstance(p.branchy, func(base uint64) (kernel, []Region) {
		foot := nz(p.foot, footL1)
		k := &branchyKernel{
			base: base, footprint: foot, stride: stride,
			takenProb: nzf(p.takenProb, 0.7),
			addr:      regs.intReg(), data: regs.intReg(), acc: regs.intReg(),
		}
		return k, []Region{{base, foot}}
	})
	addInstance(p.stack, func(base uint64) (kernel, []Region) {
		k := &stackKernel{
			base: base, slots: 512, depth: 3,
			sReg: regs.intReg(), dReg: regs.intReg(),
			vReg: regs.intReg(), side: regs.intReg(),
		}
		return k, []Region{{base, 512 * 8}}
	})
	addInstance(p.search, func(base uint64) (kernel, []Region) {
		foot := nz(p.bigFoot, footL2)
		k := &searchKernel{
			base: base, elems: foot / 8, depth: 5,
			ptr: regs.intReg(), acc: regs.intReg(),
		}
		return k, []Region{{base, foot}}
	})
	addInstance(p.hash, func(base uint64) (kernel, []Region) {
		foot := nz(p.bigFoot, footL2)
		k := &hashKernel{
			base: base, footprint: foot, hotProb: 0.9, hotFoot: foot / 32,
			h: regs.intReg(), data: regs.intReg(), acc: regs.intReg(),
			state: s.Seed,
		}
		return k, []Region{{base, foot}}
	})
	if len(g.kernels) == 0 {
		// A degenerate spec still produces a valid workload.
		addInstance(1, func(base uint64) (kernel, []Region) {
			k := &streamKernel{
				base: base, footprint: footL1, stride: 8, storeEvery: 4,
				idx: regs.intReg(), addr: regs.intReg(), data: regs.intReg(), acc: regs.intReg(),
			}
			return k, []Region{{base, 2 * footL1}}
		})
	}
	g.buildSchedule()
	return g
}

// FootprintRegions returns the touched regions as [base, size] pairs; the
// core uses it to pre-warm caches — standing in for the billions of
// instructions that precede a measurement window in trace-driven studies.
func (g *generator) FootprintRegions() [][2]uint64 {
	out := make([][2]uint64, len(g.regions))
	for i, r := range g.regions {
		out[i] = [2]uint64{r.Base, r.Size}
	}
	return out
}

func nz(v, def uint64) uint64 {
	if v == 0 {
		return def
	}
	return v
}

func nzi(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

func nzf(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

// buildSchedule lays the kernel instances out in a fixed weighted
// round-robin order. Real programs have structured control flow — the same
// loops repeat in the same order — which path-history-based predictors
// (DLVP, the context prefetcher) depend on; a randomized interleave would
// erase that structure entirely.
func (g *generator) buildSchedule() {
	if len(g.kernels) == 0 {
		return
	}
	// Bresenham-style interleave: each kernel appears weight times per
	// totalW slots, spread as evenly as possible.
	credit := make([]int, len(g.kernels))
	for len(g.schedule) < g.totalW {
		best, bestCredit := 0, -1<<62
		for i := range g.kernels {
			credit[i] += g.kernels[i].w
			if credit[i] > bestCredit {
				best, bestCredit = i, credit[i]
			}
		}
		credit[best] -= g.totalW
		g.schedule = append(g.schedule, best)
	}
}

// Name implements isa.Generator.
func (g *generator) Name() string { return g.name }

// Next implements isa.Generator; the stream is infinite.
func (g *generator) Next(op *isa.MicroOp) bool {
	for g.head >= len(g.queue) {
		g.queue = g.queue[:0]
		g.head = 0
		g.pick().k.emit(g.pick0())
	}
	*op = g.queue[g.head]
	g.head++
	op.Seq = g.seq
	g.seq++
	return true
}

// Clone implements isa.Cloner: the copy resumes the stream at the same
// uop. Kernels, the pending queue, the schedule position, the rng and the
// value model are copied; the emitters are rebuilt to point at the copy.
// The schedule and the regions never change after construction, so they
// are shared.
func (g *generator) Clone() isa.Generator {
	c := *g
	rng := *g.rng
	c.rng = &rng
	c.queue = slices.Clone(g.queue)
	c.kernels = make([]weightedKernel, len(g.kernels))
	// Every emitter shares the generator's rng and its one value model.
	vals := g.kernels[0].e.vals.clone()
	for i, wk := range g.kernels {
		e := *wk.e
		e.g, e.rng, e.vals = &c, c.rng, vals
		c.kernels[i] = weightedKernel{k: wk.k.clone(), e: &e, w: wk.w}
	}
	return &c
}

// pick selects the next kernel instance from the fixed weighted
// round-robin schedule and remembers it so pick0 can return the matching
// emitter.
func (g *generator) pick() *weightedKernel {
	g.picked = g.schedule[g.schedPos]
	g.schedPos++
	if g.schedPos == len(g.schedule) {
		g.schedPos = 0
	}
	return &g.kernels[g.picked]
}

func (g *generator) pick0() *emitter { return g.kernels[g.picked].e }

// ByName returns the catalog entry with the given name.
func ByName(name string) (Spec, bool) {
	for _, s := range Catalog() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// ByCategory returns the catalog entries of one category, in catalog order.
func ByCategory(c Category) []Spec {
	var out []Spec
	for _, s := range Catalog() {
		if s.Category == c {
			out = append(out, s)
		}
	}
	return out
}

// Names returns all workload names, sorted.
func Names() []string {
	cat := Catalog()
	names := make([]string, len(cat))
	for i, s := range cat {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}
