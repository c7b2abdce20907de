package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"rfpsim/internal/config"
	"rfpsim/internal/trace"
)

// goldenConfigs is the configuration axis of the cycle-exact goldens: the
// baseline, every timing mechanism the paper evaluates, the CLP extension
// under the managed prefetcher, and the runtime-checked variant (checks
// are timing-invisible, so they must pin the same cycles as plain RFP).
func goldenConfigs() []config.Core {
	lateAlloc := config.Baseline()
	lateAlloc.LateRegAlloc = true
	lateAlloc.Name = "baseline-late"
	checked := config.Baseline().WithRFP()
	checked.Checks.Enabled = true
	checked.Name += "+checks"
	return []config.Core{
		config.Baseline(),
		config.Baseline().WithRFP(),
		config.Baseline().WithCLP().WithPrefetcher("managed"),
		config.Baseline().WithVP(config.VPEVES),
		config.Baseline().WithVP(config.VPDLVP),
		config.Baseline().WithVP(config.VPComposite),
		config.Baseline().WithVP(config.VPEPP),
		lateAlloc.WithRFP(),
		config.Baseline2x().WithRFP(),
		checked,
	}
}

// goldenWorkloads mixes a memory-bound pointer chaser with the three
// chase-critical profiles RFP targets.
var goldenWorkloads = []string{"spec06_mcf", "spec17_xalancbmk", "hadoop", "lammps"}

// cycleGoldens pins "<config>/<workload>" to the measured cycle count and
// the sha256 (first 16 hex digits) of the JSON-encoded statistics block.
var cycleGoldens = map[string]string{
	"baseline/spec06_mcf":                           "40567 c7678bce82f277cb",
	"baseline/spec17_xalancbmk":                     "7799 a8b00c5e167b433f",
	"baseline/hadoop":                               "10597 aee3cbd273fe7fb4",
	"baseline/lammps":                               "8529 434edb76f09cea1f",
	"baseline+rfp/spec06_mcf":                       "40613 763ff66d74e4bd9f",
	"baseline+rfp/spec17_xalancbmk":                 "7419 cb250673b88e793c",
	"baseline+rfp/hadoop":                           "9677 72c747c41a6c6bdf",
	"baseline+rfp/lammps":                           "8212 ed3eddd963b47c3b",
	"baseline+rfp+clp+pf(managed)/spec06_mcf":       "40700 a9dabb3f949ccea1",
	"baseline+rfp+clp+pf(managed)/spec17_xalancbmk": "7298 62c3ec8605c0a8dc",
	"baseline+rfp+clp+pf(managed)/hadoop":           "9659 9b5195b965b973ee",
	"baseline+rfp+clp+pf(managed)/lammps":           "8033 619011c77be06782",
	"baseline+eves/spec06_mcf":                      "40573 a4bcff6d40153bb0",
	"baseline+eves/spec17_xalancbmk":                "7680 4a786097fdc49ae5",
	"baseline+eves/hadoop":                          "10407 152373a479f77b7e",
	"baseline+eves/lammps":                          "8920 4c61d5e05351b8db",
	"baseline+dlvp/spec06_mcf":                      "40642 de22948697969661",
	"baseline+dlvp/spec17_xalancbmk":                "7621 5fb24a9e4b04ba1e",
	"baseline+dlvp/hadoop":                          "9933 7acc951692f01f9b",
	"baseline+dlvp/lammps":                          "8832 b2e128dc00278287",
	"baseline+composite/spec06_mcf":                 "40698 4c5f70da8a219197",
	"baseline+composite/spec17_xalancbmk":           "7579 35df0bed9eb83da8",
	"baseline+composite/hadoop":                     "9780 1568f05ad50039ad",
	"baseline+composite/lammps":                     "8901 45e1d933af606758",
	"baseline+epp/spec06_mcf":                       "40642 de22948697969661",
	"baseline+epp/spec17_xalancbmk":                 "7998 07e8297b12fce8a4",
	"baseline+epp/hadoop":                           "9933 b9031d3c8ff89f22",
	"baseline+epp/lammps":                           "8638 308ebf7fa013cb30",
	"baseline-late+rfp/spec06_mcf":                  "38563 7212bb14f6847e01",
	"baseline-late+rfp/spec17_xalancbmk":            "7376 7b6e3b296516a40f",
	"baseline-late+rfp/hadoop":                      "10112 691a06d5fb896f58",
	"baseline-late+rfp/lammps":                      "8212 ed3eddd963b47c3b",
	"baseline-2x+rfp/spec06_mcf":                    "29209 9e17957e6ead4634",
	"baseline-2x+rfp/spec17_xalancbmk":              "6704 43f4cb9c3b5c3f2c",
	"baseline-2x+rfp/hadoop":                        "7567 87fb0ec6f14715d8",
	"baseline-2x+rfp/lammps":                        "7584 f58449025da98054",
	"baseline+rfp+checks/spec06_mcf":                "40613 763ff66d74e4bd9f",
	"baseline+rfp+checks/spec17_xalancbmk":          "7419 cb250673b88e793c",
	"baseline+rfp+checks/hadoop":                    "9677 72c747c41a6c6bdf",
	"baseline+rfp+checks/lammps":                    "8212 ed3eddd963b47c3b",
}

// goldenRun simulates the fixed golden window: warm caches, a 10K-uop
// warmup, then 20K measured uops.
func goldenRun(t *testing.T, cfg config.Core, workload string) string {
	t.Helper()
	spec, ok := trace.ByName(workload)
	if !ok {
		t.Fatalf("%s missing from catalog", workload)
	}
	c := New(cfg, spec.New())
	c.WarmCaches()
	ctx := context.Background()
	if err := c.Warmup(ctx, 10000); err != nil {
		t.Fatal(err)
	}
	st, err := c.Run(ctx, 20000)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	return fmt.Sprintf("%d %s", st.Cycles, hex.EncodeToString(sum[:8]))
}

// TestCycleExactGoldens pins the exact simulated timing of every
// mechanism: any change to the scheduler, LSQ or prefetch machinery that
// moves a single cycle or counter on these windows fails here. A
// performance refactor must pass unedited; a deliberate timing change
// regenerates the table from the failure output, with the diff reviewed.
func TestCycleExactGoldens(t *testing.T) {
	var regen []string
	for _, cfg := range goldenConfigs() {
		for _, w := range goldenWorkloads {
			key := cfg.Name + "/" + w
			got := goldenRun(t, cfg, w)
			regen = append(regen, fmt.Sprintf("\t%q: %q,", key, got))
			if want, ok := cycleGoldens[key]; !ok || got != want {
				t.Errorf("%s: got %q, want %q", key, got, want)
			}
		}
	}
	if t.Failed() {
		t.Logf("regenerated table:\n%s", strings.Join(regen, "\n"))
	}
}
