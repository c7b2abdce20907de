package trace

import (
	"testing"

	"rfpsim/internal/isa"
	"rfpsim/internal/prng"
)

// draw returns the next n uops of g.
func draw(t *testing.T, g isa.Generator, n int) []isa.MicroOp {
	t.Helper()
	out := make([]isa.MicroOp, n)
	for i := range out {
		if !g.Next(&out[i]) {
			t.Fatalf("%s ended after %d uops", g.Name(), i)
		}
	}
	return out
}

// TestCloneProperty: for every catalog workload, a clone taken at a
// random position resumes the same stream, and drawing from the clone
// first leaves the original's stream untouched, so the two share no
// mutable state (rng, value model, kernels, queue).
func TestCloneProperty(t *testing.T) {
	const n = 4000
	rng := prng.New(0xC10E)
	for _, spec := range Catalog() {
		g := spec.New()
		skip := rng.Intn(30000)
		draw(t, g, skip)
		c := isa.Clone(g)
		if c == nil {
			t.Fatalf("%s: catalog generator is not cloneable", spec.Name)
		}
		fromClone := draw(t, c, n)
		fromOrig := draw(t, g, n)
		for i := range fromOrig {
			if fromClone[i] != fromOrig[i] {
				t.Fatalf("%s: clone at uop %d diverges %d uops later:\nclone:    %v\noriginal: %v",
					spec.Name, skip, i, fromClone[i], fromOrig[i])
			}
		}
	}
}
