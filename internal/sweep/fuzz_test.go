package sweep

import "testing"

// FuzzSweepSpec feeds arbitrary JSON to the spec parser and, when it
// parses, expands a bounded grid: neither step may panic, and every
// expanded unit must carry a non-empty label and content address (the
// invariants the result cache and the CSV key on). Oversized
// grids are skipped — the contract under test is validation, not
// combinatorics. Seed corpus under testdata/fuzz/FuzzSweepSpec.
func FuzzSweepSpec(f *testing.F) {
	f.Add([]byte(smallSpecJSON))
	f.Add([]byte(diffSpecJSON))
	f.Add([]byte(`{"name":"n","workloads":["all"],"base":{}}`))
	f.Add([]byte(`{"name":"n","workloads":["category:cloud"],"base":{"vp":"eves"},"sampling":{"max_k":2}}`))
	f.Add([]byte(`{"name":"n","workloads":["spec06_mcf"],"axes":[{"knob":"rfp","values":[true,false]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return // rejected: fine
		}
		product := 1
		for _, ax := range s.Axes {
			product *= max(len(ax.Values), 1)
			if product > 8 {
				return
			}
		}
		if len(s.Workloads) > 4 {
			return
		}
		var labels []string
		if s.CheckDiff() {
			units, err := s.ExpandDiff(nil)
			if err != nil {
				return
			}
			for _, u := range units {
				labels = append(labels, u.Label)
			}
		} else {
			units, err := s.Expand()
			if err != nil {
				return
			}
			for _, u := range units {
				if u.Key == "" {
					t.Fatalf("unit %q expanded with an empty content address", u.Label)
				}
				labels = append(labels, u.Label)
			}
		}
		for _, l := range labels {
			if l == "" {
				t.Fatal("unit expanded with an empty label")
			}
		}
	})
}
