// Package config defines the simulated core configurations. The Baseline
// mirrors the paper's Table 2 (parameters similar to an Intel Tiger Lake
// core); Baseline2x is the paper's futuristic up-scaled core (10-wide, all
// execution resources doubled, more L1 bandwidth).
package config

import "fmt"

// Core holds every microarchitectural parameter of one simulated core.
type Core struct {
	// Name labels the configuration in reports.
	Name string

	// Width is the fetch/rename/commit width in uops per cycle.
	Width int
	// IssueWidth is the maximum uops selected for execution per cycle.
	IssueWidth int
	// ROBSize is the reorder buffer capacity.
	ROBSize int
	// RSSize is the reservation station (scheduler) capacity.
	RSSize int
	// LQSize and SQSize are the load/store queue capacities.
	LQSize int
	SQSize int
	// IntPRF and FPPRF are physical register file sizes.
	IntPRF int
	FPPRF  int

	// ALUPorts, FPPorts, LoadPorts, StorePorts, BranchPorts bound how many
	// uops of each resource class may begin execution per cycle.
	ALUPorts    int
	FPPorts     int
	LoadPorts   int
	StorePorts  int
	BranchPorts int

	// RFPDedicatedPorts, when positive, adds that many L1 ports reserved
	// exclusively for RFP prefetches (the Figure 14 study). When zero, RFP
	// shares the demand LoadPorts at the lowest priority.
	RFPDedicatedPorts int

	// FrontendLatency is the fetch-to-rename depth in cycles (uop-cache
	// hit path).
	FrontendLatency int
	// MispredictPenalty is the branch redirect penalty in cycles.
	MispredictPenalty int
	// FlushPenalty is the pipeline flush penalty for value-prediction or
	// memory-disambiguation mispredictions (20 cycles per the paper).
	FlushPenalty int
	// SchedDepth is the wakeup/select/register-read depth (3 cycles per
	// Stark et al.); the RFP-inflight bit is set SchedDepth cycles before
	// prefetch completion.
	SchedDepth int

	// BranchPredictor selects the direction predictor: "tage" (default,
	// Tiger-Lake-class) or "gshare" (the ablation partner for the
	// bpquality experiment).
	BranchPredictor string

	// LateRegAlloc models the §3.3 "Pipeline Variations" register file: a
	// virtual register pointer is carried until writeback and the
	// physical register is only claimed when the value is produced, so
	// PRF pressure tracks completed-but-not-retired values instead of
	// everything renamed. RFP adapts per the paper: the prefetch behaves
	// like the load and claims the entry; a wrong prefetch hands the same
	// entry back to the demand load.
	LateRegAlloc bool

	// Mem describes the cache/memory hierarchy.
	Mem MemConfig

	// RFP configures register file prefetching; RFP.Enabled turns the
	// feature on.
	RFP RFPConfig

	// VP configures load value prediction.
	VP VPConfig

	// Oracle, when not OracleNone, enables the idealized prefetch study of
	// Figure 1: all hits at level N are served at the latency of level
	// N-1.
	Oracle OracleMode

	// Checks configures the opt-in runtime invariant layer
	// (docs/checking.md). It is timing-invisible: enabling it changes no
	// simulated cycle, only whether violations are counted.
	Checks Checks
}

// Checks configures the runtime invariant layer evaluated inside
// core.step and internal/rfp. Violations are counted into
// stats.Sim.Checks rather than panicking, so a long sweep reports a
// broken invariant instead of dying mid-grid.
type Checks struct {
	// Enabled turns the invariant checks on.
	Enabled bool
}

// MemConfig describes the cache and memory hierarchy.
type MemConfig struct {
	// L1Sets/L1Ways/L1Latency describe the L1 data cache. Latency is the
	// full load-to-use latency in cycles (address generation, translation,
	// lookup and rotation included), 5 on Tiger Lake.
	L1Sets    int
	L1Ways    int
	L1Latency int
	// L1MSHRs bounds outstanding L1 misses.
	L1MSHRs int

	// L2Sets/L2Ways/L2Latency describe the private L2.
	L2Sets    int
	L2Ways    int
	L2Latency int

	// LLCSets/LLCWays/LLCLatency describe the last-level cache slice.
	LLCSets    int
	LLCWays    int
	LLCLatency int

	// MemLatency is the DRAM access latency in cycles.
	MemLatency int

	// DTLBEntries/DTLBWays describe the first-level data TLB.
	DTLBEntries int
	DTLBWays    int
	// PageWalkLatency is the DTLB miss penalty in cycles.
	PageWalkLatency int

	// HWPrefetch enables a classic hardware stream prefetcher that fills
	// the caches on detected sequential miss patterns — the ablation
	// partner for RFP (which hides L1 latency rather than avoiding
	// misses).
	HWPrefetch bool
	// HWPrefetchDegree is how many lines ahead a confirmed stream
	// fetches (default 2).
	HWPrefetchDegree int

	// Prefetcher selects which L1 hardware prefetcher runs: one of
	// Prefetchers(), or empty to fall back to the legacy HWPrefetch knob
	// (which selects "stream"). The field is omitempty in JSON so
	// configurations predating the prefetcher zoo keep their content
	// addresses.
	Prefetcher string `json:",omitempty"`
}

// Prefetchers lists the valid MemConfig.Prefetcher names:
//
//	stream  — Smith-style sequential streams with direction confirmation
//	spp     — signature-path prefetching with path-confidence throttling
//	sisb    — temporal (irregular stream buffer) miss-chain replay
//	managed — adaptive manager selecting among the above per epoch
func Prefetchers() []string {
	return []string{"stream", "spp", "sisb", "managed"}
}

// ActivePrefetcher resolves the effective L1 prefetcher name: Prefetcher
// when set, "stream" when only the legacy HWPrefetch flag is on, and ""
// (no prefetching) otherwise.
func (m *MemConfig) ActivePrefetcher() string {
	if m.Prefetcher != "" {
		return m.Prefetcher
	}
	if m.HWPrefetch {
		return "stream"
	}
	return ""
}

// RFPConfig holds the register-file-prefetch parameters of Section 3.
type RFPConfig struct {
	// Enabled turns the feature on.
	Enabled bool
	// PTEntries is the Prefetch Table capacity (1K default; Figure 18
	// sweeps 1K..16K).
	PTEntries int
	// PTWays is the PT associativity (8 per §3.5).
	PTWays int
	// ConfidenceBits is the confidence counter width (1 default; Figure 17
	// sweeps 1..4).
	ConfidenceBits int
	// ConfidenceProb is the probability denominator for probabilistic
	// confidence increments (16 → p=1/16 per §3.1).
	ConfidenceProb int
	// QueueSize is the RFP FIFO capacity (64 per §3.5).
	QueueSize int
	// UsePAT selects the area-optimized Page Address Table encoding
	// instead of full virtual addresses in the PT (§3.5).
	UsePAT bool
	// PATEntries/PATWays describe the PAT (64 entries, 4-way).
	PATEntries int
	PATWays    int
	// UseContext additionally enables the path-based context prefetcher
	// (§5.5.3); it recovers some non-strided loads.
	UseContext bool
	// ContextEntries is the context predictor capacity.
	ContextEntries int
	// PrefetchOnL1Miss lets an RFP that misses the L1 continue to the
	// lower levels like a demand load (§3.2.2; default true).
	PrefetchOnL1Miss bool
	// DropOnTLBMiss drops prefetches that miss the DTLB (§3.2.2; default
	// true).
	DropOnTLBMiss bool
	// CriticalOnly restricts prefetch injection to loads the criticality
	// estimator flags as commit-stalling — the targeted-prefetching
	// extension the paper leaves as future work (§5.1).
	CriticalOnly bool
	// UseCLP drives RFP with a cache-level predictor (Jalili & Erez
	// style): loads confidently predicted to hit the L1/L2 arm the
	// RFP-inflight bit one cycle earlier, loads predicted to go to DRAM
	// skip prefetching, and when the prefetch queue is contested the
	// criticality estimator decides who keeps their slot. The field is
	// omitempty in JSON so configurations predating the predictor keep
	// their content addresses.
	UseCLP bool `json:",omitempty"`
}

// VPMode selects which load value/address prediction scheme runs.
type VPMode int

const (
	// VPNone disables value prediction.
	VPNone VPMode = iota
	// VPEVES is an EVES-style last-value + stride value predictor with
	// high-confidence thresholds and flush-on-mispredict.
	VPEVES
	// VPDLVP is the path-based address predictor that probes the L1 in
	// the frontend (DLVP).
	VPDLVP
	// VPComposite fuses EVES and DLVP (the Composite predictor).
	VPComposite
	// VPEPP models Early Pipeline Prefetch: DLVP-style address prediction
	// with register sharing and SSBF false-positive re-execution.
	VPEPP
)

// String implements fmt.Stringer.
func (m VPMode) String() string {
	switch m {
	case VPNone:
		return "none"
	case VPEVES:
		return "eves"
	case VPDLVP:
		return "dlvp"
	case VPComposite:
		return "composite"
	case VPEPP:
		return "epp"
	default:
		return fmt.Sprintf("vpmode(%d)", int(m))
	}
}

// VPConfig holds value-prediction parameters.
type VPConfig struct {
	// Mode selects the predictor.
	Mode VPMode
	// Entries is the predictor table capacity (the paper grants prior
	// work "very large storage" for fairness; 8K default).
	Entries int
	// ConfMax is the saturation value of the confidence counter; a
	// prediction is used only at saturation.
	ConfMax int
	// ConfProb is the probabilistic increment denominator (EVES uses
	// probabilistic confidence for strided values).
	ConfProb int
}

// OracleMode selects the Figure 1 idealized prefetch study.
type OracleMode int

const (
	// OracleNone disables oracle prefetching.
	OracleNone OracleMode = iota
	// OracleL1ToRF serves every L1 hit at register-file (1 cycle) latency.
	OracleL1ToRF
	// OracleL2ToL1 serves every L2 hit at L1 latency.
	OracleL2ToL1
	// OracleLLCToL2 serves every LLC hit at L2 latency.
	OracleLLCToL2
	// OracleMemToLLC serves every DRAM access at LLC latency.
	OracleMemToLLC
)

// String implements fmt.Stringer.
func (m OracleMode) String() string {
	switch m {
	case OracleNone:
		return "none"
	case OracleL1ToRF:
		return "L1->RF"
	case OracleL2ToL1:
		return "L2->L1"
	case OracleLLCToL2:
		return "LLC->L2"
	case OracleMemToLLC:
		return "Mem->LLC"
	default:
		return fmt.Sprintf("oracle(%d)", int(m))
	}
}

// Baseline returns the Tiger-Lake-like configuration of Table 2: a 5-wide
// OOO core at 4 GHz with a 48 KiB 5-cycle L1D, 1.25 MiB L2, 3 MiB LLC slice
// and 200-cycle DRAM.
func Baseline() Core {
	return Core{
		Name:              "baseline",
		Width:             5,
		IssueWidth:        5,
		ROBSize:           352,
		RSSize:            128,
		LQSize:            128,
		SQSize:            72,
		IntPRF:            280,
		FPPRF:             224,
		ALUPorts:          4,
		FPPorts:           3,
		LoadPorts:         2,
		StorePorts:        1,
		BranchPorts:       2,
		FrontendLatency:   5,
		MispredictPenalty: 15,
		FlushPenalty:      20,
		SchedDepth:        3,
		BranchPredictor:   "tage",
		Mem: MemConfig{
			L1Sets: 64, L1Ways: 12, L1Latency: 5, L1MSHRs: 16,
			L2Sets: 1024, L2Ways: 20, L2Latency: 14,
			LLCSets: 4096, LLCWays: 12, LLCLatency: 40,
			MemLatency:  200,
			DTLBEntries: 64, DTLBWays: 4, PageWalkLatency: 30,
		},
		RFP: DefaultRFP(),
		VP:  VPConfig{Mode: VPNone, Entries: 8192, ConfMax: 15, ConfProb: 4},
	}
}

// Baseline2x returns the futuristic up-scaled core of §5.1: 10-wide with all
// execution resources doubled and increased L1 bandwidth.
func Baseline2x() Core {
	c := Baseline()
	c.Name = "baseline-2x"
	c.Width = 10
	c.IssueWidth = 10
	c.ALUPorts *= 2
	c.FPPorts *= 2
	c.LoadPorts *= 2
	c.StorePorts *= 2
	c.BranchPorts *= 2
	c.Mem.L1MSHRs *= 2
	// The paper doubles "execution resources" (width, units, L1
	// bandwidth). Window structures grow more conservatively — extreme
	// depths would also saturate RFP's 7-bit per-PC in-flight counters,
	// degrading exactly the strided chains RFP targets.
	c.ROBSize = c.ROBSize * 3 / 2
	c.RSSize = c.RSSize * 3 / 2
	c.LQSize = c.LQSize * 3 / 2
	c.SQSize = c.SQSize * 3 / 2
	c.IntPRF = c.IntPRF * 3 / 2
	c.FPPRF = c.FPPRF * 3 / 2
	return c
}

// DefaultRFP returns the default RFP parameters of §3 (disabled; callers set
// Enabled).
func DefaultRFP() RFPConfig {
	return RFPConfig{
		Enabled:          false,
		PTEntries:        1024,
		PTWays:           8,
		ConfidenceBits:   1,
		ConfidenceProb:   16,
		QueueSize:        64,
		UsePAT:           false,
		PATEntries:       64,
		PATWays:          4,
		UseContext:       false,
		ContextEntries:   1024,
		PrefetchOnL1Miss: true,
		DropOnTLBMiss:    true,
	}
}

// WithRFP returns a copy of c with RFP enabled at default parameters.
func (c Core) WithRFP() Core {
	c.RFP.Enabled = true
	c.Name += "+rfp"
	return c
}

// WithCLP returns a copy of c with RFP enabled and driven by the
// cache-level predictor.
func (c Core) WithCLP() Core {
	if !c.RFP.Enabled {
		c = c.WithRFP()
	}
	c.RFP.UseCLP = true
	c.Name += "+clp"
	return c
}

// WithPrefetcher returns a copy of c with the named L1 hardware
// prefetcher enabled. The name must be one of Prefetchers(); Validate
// rejects anything else.
func (c Core) WithPrefetcher(name string) Core {
	c.Mem.Prefetcher = name
	c.Name += "+pf(" + name + ")"
	return c
}

// WithVP returns a copy of c with the given value-prediction mode.
func (c Core) WithVP(mode VPMode) Core {
	c.VP.Mode = mode
	c.Name += "+" + mode.String()
	return c
}

// WithOracle returns a copy of c with the given oracle prefetch mode.
func (c Core) WithOracle(m OracleMode) Core {
	c.Oracle = m
	c.Name += "+oracle(" + m.String() + ")"
	return c
}

// FunctionalKey returns the part of c that functional warming can
// observe: c with every field that core.WarmCaches, core.FastForward and
// the sampling profile leave no trace of set to its zero value. Two
// configurations with equal keys leave a functional core in the same
// state after the same warming, so one warmed core can be forked into
// either of them (core.Fork), and a family of sampled jobs shares one
// profile and one fast-forward pass (internal/sample.RunFamily).
//
// Inside the key are the cache and DTLB geometry, the branch predictor,
// the RFP table and context predictor knobs, value prediction, Oracle and
// Checks. Outside it are the name, the pipeline widths, window sizes,
// ports and penalties, every latency and the MSHR count, the L1 hardware
// prefetcher, and the RFP knobs that act only at cycle level: the queue,
// the injection filters and the cache-level predictor. A field is inside
// unless it is zeroed here, so a new field stays inside until a test
// shows that warming cannot observe it.
func FunctionalKey(c Core) Core {
	c.Name = ""
	c.Width, c.IssueWidth = 0, 0
	c.ROBSize, c.RSSize, c.LQSize, c.SQSize = 0, 0, 0, 0
	c.IntPRF, c.FPPRF = 0, 0
	c.ALUPorts, c.FPPorts, c.LoadPorts, c.StorePorts, c.BranchPorts = 0, 0, 0, 0, 0
	c.RFPDedicatedPorts = 0
	c.FrontendLatency, c.MispredictPenalty, c.FlushPenalty, c.SchedDepth = 0, 0, 0, 0
	c.LateRegAlloc = false
	m := &c.Mem
	m.L1Latency, m.L2Latency, m.LLCLatency, m.MemLatency = 0, 0, 0, 0
	m.L1MSHRs, m.PageWalkLatency = 0, 0
	m.HWPrefetch, m.HWPrefetchDegree, m.Prefetcher = false, 0, ""
	r := &c.RFP
	r.QueueSize = 0
	r.PrefetchOnL1Miss, r.DropOnTLBMiss, r.CriticalOnly, r.UseCLP = false, false, false, false
	return c
}

// Validate checks configuration invariants and returns a descriptive error
// for the first violation.
func (c *Core) Validate() error {
	switch {
	case c.Width <= 0 || c.IssueWidth <= 0:
		return fmt.Errorf("config %q: widths must be positive", c.Name)
	case c.ROBSize <= 0 || c.RSSize <= 0 || c.LQSize <= 0 || c.SQSize <= 0:
		return fmt.Errorf("config %q: queue sizes must be positive", c.Name)
	case c.IntPRF < 64 || c.FPPRF < 64:
		return fmt.Errorf("config %q: PRF must cover architectural state", c.Name)
	case c.LoadPorts <= 0 || c.StorePorts <= 0 || c.ALUPorts <= 0:
		return fmt.Errorf("config %q: ports must be positive", c.Name)
	case c.Mem.L1Latency <= 0 || c.Mem.L2Latency <= c.Mem.L1Latency ||
		c.Mem.LLCLatency <= c.Mem.L2Latency || c.Mem.MemLatency <= c.Mem.LLCLatency:
		return fmt.Errorf("config %q: hierarchy latencies must increase", c.Name)
	case c.RFP.Enabled && (c.RFP.PTEntries <= 0 || c.RFP.PTWays <= 0 || c.RFP.QueueSize <= 0):
		return fmt.Errorf("config %q: invalid RFP parameters", c.Name)
	case c.RFP.Enabled && (c.RFP.ConfidenceBits < 1 || c.RFP.ConfidenceBits > 8):
		return fmt.Errorf("config %q: confidence bits out of range", c.Name)
	case c.RFP.UseCLP && !c.RFP.Enabled:
		return fmt.Errorf("config %q: RFP.UseCLP requires RFP.Enabled", c.Name)
	case c.SchedDepth <= 0:
		return fmt.Errorf("config %q: scheduling depth must be positive", c.Name)
	case c.BranchPredictor != "" && c.BranchPredictor != "tage" && c.BranchPredictor != "gshare":
		return fmt.Errorf("config %q: unknown branch predictor %q", c.Name, c.BranchPredictor)
	}
	if p := c.Mem.Prefetcher; p != "" {
		ok := false
		for _, v := range Prefetchers() {
			if p == v {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("config %q: unknown prefetcher %q (valid: %v)",
				c.Name, p, Prefetchers())
		}
	}
	return nil
}
