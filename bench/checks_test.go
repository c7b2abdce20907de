package bench

import (
	"context"
	"strings"
	"testing"

	"rfpsim/internal/config"
	"rfpsim/internal/runner"
)

// TestGoldensMatchWork fails when the work sizes change without the
// goldens being recorded again.
func TestGoldensMatchWork(t *testing.T) {
	for _, w := range workloads() {
		for _, seed := range []uint64{0, 1} {
			if c := newChecker(w.name, seed, w.work()); c.golden == nil {
				t.Errorf("%s seed %d: %s", w.name, seed, c.note)
			}
		}
	}
}

// TestPerturbedStatFails perturbs one counter of a real job's result and
// expects the golden check to count a failed operation.
func TestPerturbedStatFails(t *testing.T) {
	sp, err := shifted("spec06_mcf", 0)
	if err != nil {
		t.Fatal(err)
	}
	job := runner.Job{Config: config.Baseline().WithRFP(), Spec: sp, WarmupUops: 2000, MeasureUops: 5000, Seeds: 1}
	st, err := runner.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	good, err := jobDigest(st)
	if err != nil {
		t.Fatal(err)
	}
	check := func(d string) *checker {
		c := newChecker("none", 0, "")
		c.golden = map[string]string{"job:mcf": good}
		c.op(c.verify("job:mcf", d, true))
		return c
	}
	if _, failed := check(good).totals(); failed != 0 {
		t.Fatalf("the unperturbed result failed its own golden")
	}
	st.RFP.Useful++
	bad, err := jobDigest(st)
	if err != nil {
		t.Fatal(err)
	}
	c := check(bad)
	if attempted, failed := c.totals(); attempted != 1 || failed != 1 {
		t.Fatalf("attempted %d, failed %d; want 1, 1", attempted, failed)
	}
	if !strings.Contains(c.failures[0], "golden mismatch") {
		t.Errorf("failure %q", c.failures[0])
	}
}

// TestUnknownSeedChecksDeterminismOnly: a seed without a golden says so,
// and still fails an operation whose result changes within the run.
func TestUnknownSeedChecksDeterminismOnly(t *testing.T) {
	w := fullMem()
	c := newChecker(w.name, 1234, w.work())
	if c.golden != nil || !strings.Contains(c.note, "determinism") || !strings.Contains(c.note, "0, 1") {
		t.Fatalf("note %q", c.note)
	}
	c.op(c.verify("k", "a", true))
	c.op(c.verify("k", "a", true))
	c.op(c.verify("k", "b", true))
	if _, failed := c.totals(); failed != 1 {
		t.Fatalf("failed %d, want 1", failed)
	}
}

// TestGoldenMismatchFails checks a golden entry that disagrees, and an
// operation the golden does not know.
func TestGoldenMismatchFails(t *testing.T) {
	c := newChecker("none", 0, "")
	c.golden = map[string]string{"k": "a"}
	for _, tc := range []struct{ key, d, want string }{
		{"k", "b", "golden mismatch"},
		{"other", "a", "no golden entry"},
	} {
		if err := c.verify(tc.key, tc.d, true); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("verify(%s, %s) = %v, want %q", tc.key, tc.d, err, tc.want)
		}
	}
	if err := c.verify("unit:x", "z", false); err != nil {
		t.Errorf("determinism-only key checked against the golden: %v", err)
	}
}
