// Package sweep is the parameter-sweep orchestrator behind cmd/rfpsweep:
// it expands a JSON sweep specification (axes over service.ConfigSpec
// knobs crossed with workloads) into deterministic simulation units keyed
// by the same content address the rfpsimd result cache uses, executes them
// through a pluggable backend (in-process runner or a load-balanced fleet
// of rfpsimd endpoints), journals every completed unit to an append-only
// JSONL checkpoint so a crashed sweep resumes where it stopped, and
// aggregates the results into the CSV schema cmd/experiments emits.
//
// Observability goes through internal/obs: each unit gets a run ID that
// the HTTP backend forwards to the executing daemon (so one ID follows a
// unit across processes), per-stage timing breakdowns are collected into
// Summary.Timings for the optional -timings CSV, and the Metrics block
// implements obs.Collector so -metrics-addr serves it from the same
// registry machinery rfpsimd uses. See docs/observability.md.
package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"rfpsim/internal/config"
	"rfpsim/internal/fabric"
	"rfpsim/internal/service"
	"rfpsim/internal/trace"
)

// Spec is the JSON sweep description.
type Spec struct {
	// Name labels the sweep; it prefixes every unit label (and therefore
	// every CSV "experiment" cell).
	Name string `json:"name"`
	// Mode selects what each grid point runs: "sim" (the default, and
	// what the empty string means) simulates and reports IPC;
	// "check_diff" runs the differential correctness oracle of
	// internal/check against every grid point instead — each
	// configuration is paired with a derived base (DiffMode) and the
	// committed architectural digests are compared. See docs/checking.md.
	Mode string `json:"mode,omitempty"`
	// DiffMode names the check pairing for mode "check_diff": one of
	// check.Modes ("norfp", "novp", "nolatealloc", "nopf", "baseline",
	// "full"); empty means "norfp". Only valid with mode "check_diff".
	DiffMode string `json:"diff_mode,omitempty"`
	// Workloads lists catalog entries to sweep over. An entry may also be
	// "all" (the whole catalog), "category:<name>" (one Table 3 category)
	// or "trace:<sha256>" (an uploaded trace by content address; the local
	// backend resolves it from its trace store, the HTTP backend from the
	// daemons' — upload with rfpsweep -traces or POST /v1/traces first).
	// Duplicates after expansion are rejected.
	Workloads []string `json:"workloads"`
	// Base is the configuration every grid point starts from; axes
	// override individual knobs on top of it.
	Base service.ConfigSpec `json:"base"`
	// Axes span the grid: the cartesian product of all axis values is
	// applied to Base. The first axis varies slowest.
	Axes []Axis `json:"axes,omitempty"`
	// WarmupUops/MeasureUops/Seeds/ColdCaches mirror the service request
	// fields and apply to every unit (defaults 30000/60000/1/false).
	WarmupUops  uint64 `json:"warmup_uops,omitempty"`
	MeasureUops uint64 `json:"measure_uops,omitempty"`
	Seeds       int    `json:"seeds,omitempty"`
	ColdCaches  bool   `json:"cold_caches,omitempty"`
	// Sampling applies SimPoint-style sampled simulation to every unit
	// (see docs/sampling.md): representative intervals only, weighted
	// statistics, roughly a 5x cut in per-unit simulation cost. Sampled
	// units key to different content addresses than their full-window
	// twins, so flipping this on a resumed sweep re-simulates every unit.
	Sampling *service.SamplingSpec `json:"sampling,omitempty"`
	// TimeoutMS bounds each unit's wall time on the executing backend.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Axis is one swept knob: a service.ConfigSpec JSON field name and the
// values it takes.
type Axis struct {
	Knob   string            `json:"knob"`
	Values []json.RawMessage `json:"values"`
}

// Unit is one deterministic grid point: a fully resolved simulation
// request plus the rfpsimd content address that identifies it in the
// checkpoint journal, the daemon result cache and the aggregate CSV.
type Unit struct {
	// Label is the human-readable identity, "<sweep>/<workload>/<knobs>";
	// it is the CSV "experiment" column.
	Label string
	// Req is the request any backend executes.
	Req service.SimRequest
	// Key is service.ContentAddress(Req).
	Key string
}

// ParseSpec decodes and validates a sweep spec (unknown fields are
// rejected so a typoed knob cannot silently sweep nothing).
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("sweep: bad spec: %w", err)
	}
	if s.Name == "" {
		return nil, fmt.Errorf("sweep: spec needs a name")
	}
	if len(s.Workloads) == 0 {
		return nil, fmt.Errorf("sweep: spec needs at least one workload")
	}
	switch s.Mode {
	case "", "sim":
		if s.DiffMode != "" {
			return nil, fmt.Errorf("sweep: diff_mode %q needs mode \"check_diff\"", s.DiffMode)
		}
	case "check_diff":
	default:
		return nil, fmt.Errorf("sweep: unknown mode %q (supported: sim, check_diff)", s.Mode)
	}
	return &s, nil
}

// CheckDiff reports whether this spec runs the differential oracle
// instead of plain simulations.
func (s *Spec) CheckDiff() bool { return s.Mode == "check_diff" }

// workloads expands the workload selectors against the catalog.
func (s *Spec) workloads() ([]trace.Spec, error) {
	var specs []trace.Spec
	seen := map[string]bool{}
	add := func(sp trace.Spec) error {
		if seen[sp.Name] {
			return fmt.Errorf("sweep: workload %s selected twice", sp.Name)
		}
		seen[sp.Name] = true
		specs = append(specs, sp)
		return nil
	}
	for _, w := range s.Workloads {
		switch {
		case w == "all":
			for _, sp := range trace.Catalog() {
				if err := add(sp); err != nil {
					return nil, err
				}
			}
		case strings.HasPrefix(w, "category:"):
			cat := trace.Category(strings.TrimPrefix(w, "category:"))
			matched := trace.ByCategory(cat)
			if len(matched) == 0 {
				return nil, fmt.Errorf("sweep: category %q matches no workloads", cat)
			}
			for _, sp := range matched {
				if err := add(sp); err != nil {
					return nil, err
				}
			}
		case strings.HasPrefix(w, service.TraceWorkloadPrefix):
			// An uploaded trace by content address. The spec entry carries
			// the full 64-hex digest (so the unit keys exactly like a POST
			// /v1/sim for the same trace); labels shorten it for the CSV.
			addr := strings.TrimPrefix(w, service.TraceWorkloadPrefix)
			if !fabric.ValidAddr(addr) {
				return nil, fmt.Errorf("sweep: malformed trace address %q (want the 64-hex sha256 from POST /v1/traces)", w)
			}
			if err := add(trace.Spec{Name: w, Category: "trace-file"}); err != nil {
				return nil, err
			}
		default:
			sp, ok := trace.ByName(w)
			if !ok {
				return nil, fmt.Errorf("sweep: unknown workload %q", w)
			}
			if err := add(sp); err != nil {
				return nil, err
			}
		}
	}
	return specs, nil
}

// applyAxes overrides one knob per axis on top of the base config, going
// through JSON so the knob names are exactly the wire-format field names
// (and unknown knobs fail loudly instead of sweeping nothing).
func applyAxes(base service.ConfigSpec, axes []Axis, choice []int) (service.ConfigSpec, error) {
	raw, err := json.Marshal(base)
	if err != nil {
		return service.ConfigSpec{}, err
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		return service.ConfigSpec{}, err
	}
	for i, ax := range axes {
		fields[ax.Knob] = ax.Values[choice[i]]
	}
	merged, err := json.Marshal(fields)
	if err != nil {
		return service.ConfigSpec{}, err
	}
	dec := json.NewDecoder(bytes.NewReader(merged))
	dec.DisallowUnknownFields()
	var out service.ConfigSpec
	if err := dec.Decode(&out); err != nil {
		return service.ConfigSpec{}, fmt.Errorf("sweep: applying axes: %w", err)
	}
	return out, nil
}

// axisLabel renders one knob=value pair; string values drop their quotes.
func axisLabel(ax Axis, v json.RawMessage) string {
	var s string
	if err := json.Unmarshal(v, &s); err == nil {
		return ax.Knob + "=" + s
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, v); err != nil {
		return ax.Knob + "=" + string(v)
	}
	return ax.Knob + "=" + buf.String()
}

// eachPoint validates the axes and calls fn for every grid point in
// deterministic order — the cartesian product of the axes, first axis
// slowest — with the point's config spec, the configuration it builds and
// its knob label. A point whose configuration does not build is an
// error, as is any error fn returns; both stop the walk.
func (s *Spec) eachPoint(fn func(cfg service.ConfigSpec, built config.Core, label string) error) error {
	for i, ax := range s.Axes {
		if ax.Knob == "" || len(ax.Values) == 0 {
			return fmt.Errorf("sweep: axis %d needs a knob and at least one value", i)
		}
	}
	choice := make([]int, len(s.Axes))
	for {
		cfg, err := applyAxes(s.Base, s.Axes, choice)
		if err != nil {
			return err
		}
		label := pointLabel(s.Axes, choice)
		built, err := cfg.Build()
		if err != nil {
			return fmt.Errorf("sweep: grid point %s: %w", label, err)
		}
		if err := fn(cfg, built, label); err != nil {
			return err
		}
		// Odometer increment over the axes, last axis fastest.
		i := len(s.Axes) - 1
		for ; i >= 0; i-- {
			choice[i]++
			if choice[i] < len(s.Axes[i].Values) {
				break
			}
			choice[i] = 0
		}
		if i < 0 {
			return nil
		}
	}
}

// Expand enumerates the full grid in deterministic order: the cartesian
// product of the axes (first axis slowest), workloads innermost. Every
// unit's configuration is validated by building it, and every unit is
// keyed by the daemon's content address; duplicate keys (two grid points
// resolving to the same simulation) are rejected rather than silently
// collapsed, since they would make "done units" ambiguous on resume.
func (s *Spec) Expand() ([]Unit, error) {
	if s.CheckDiff() {
		return nil, fmt.Errorf("sweep: mode \"check_diff\" expands with ExpandDiff, not Expand")
	}
	specs, err := s.workloads()
	if err != nil {
		return nil, err
	}
	var units []Unit
	byKey := map[string]string{}
	err = s.eachPoint(func(cfg service.ConfigSpec, _ config.Core, point string) error {
		for _, wl := range specs {
			req := service.SimRequest{
				Workload:    wl.Name,
				Config:      cfg,
				WarmupUops:  s.WarmupUops,
				MeasureUops: s.MeasureUops,
				Seeds:       s.Seeds,
				ColdCaches:  s.ColdCaches,
				Sampling:    s.Sampling,
				TimeoutMS:   s.TimeoutMS,
			}
			key, err := service.ContentAddress(req)
			if err != nil {
				return fmt.Errorf("sweep: %s/%s: %w", wl.Name, point, err)
			}
			label := s.Name + "/" + displayName(wl.Name) + "/" + point
			if prev, dup := byKey[key]; dup {
				return fmt.Errorf("sweep: units %s and %s resolve to the same simulation (key %s)", prev, label, key[:12])
			}
			byKey[key] = label
			units = append(units, Unit{Label: label, Req: req, Key: key})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return units, nil
}

// displayName shortens a trace-addressed workload name for labels the
// same way the daemon names the resolved spec (trace: plus 16 hex chars);
// catalog names pass through unchanged. The unit's request keeps the full
// digest, so keying is unaffected.
func displayName(name string) string {
	const short = len(service.TraceWorkloadPrefix) + 16
	if strings.HasPrefix(name, service.TraceWorkloadPrefix) && len(name) > short {
		return name[:short]
	}
	return name
}

// pointLabel renders one grid point's swept knobs ("base" when no axes).
func pointLabel(axes []Axis, choice []int) string {
	if len(axes) == 0 {
		return "base"
	}
	parts := make([]string, len(axes))
	for i, ax := range axes {
		parts[i] = axisLabel(ax, ax.Values[choice[i]])
	}
	return strings.Join(parts, ",")
}
