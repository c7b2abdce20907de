package bench

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// goldens holds the committed result digests, one file per workload and
// seed (testdata/golden-<workload>-seed<n>.json).
//
//go:embed testdata/golden-*.json
var goldens embed.FS

// goldenFile is the on-disk form of one golden.
type goldenFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Work fingerprints the work sizes the digests were recorded at; a
	// run at other sizes does not apply them.
	Work    string            `json:"work"`
	Digests map[string]string `json:"digests"`
}

func goldenName(workload string, seed uint64) string {
	return fmt.Sprintf("golden-%s-seed%d.json", workload, seed)
}

// checker counts a run's operations and decides which failed. Every
// result digest is checked against the golden for the run's seed, when
// one applies, and against the same operation's digest from earlier in
// the run, so a nondeterministic result fails even on an unknown seed.
type checker struct {
	workload, work string
	seed           uint64
	// golden is nil when no golden applies; note says why.
	golden map[string]string
	note   string

	mu        sync.Mutex
	seen      map[string]string
	recorded  map[string]bool // keys that belong in a golden file
	attempted int
	failed    int
	failures  []string
}

// maxFailuresShown bounds the failure reasons a run prints.
const maxFailuresShown = 5

func newChecker(workload string, seed uint64, work string) *checker {
	c := &checker{workload: workload, seed: seed, work: work,
		seen: map[string]string{}, recorded: map[string]bool{}}
	raw, err := goldens.ReadFile("testdata/" + goldenName(workload, seed))
	var g goldenFile
	switch {
	case errors.Is(err, fs.ErrNotExist):
		c.note = fmt.Sprintf("none for seed %d (known seeds: %s); checking determinism and cross-tier agreement only",
			seed, knownSeeds(workload))
	case err != nil:
		c.note = fmt.Sprintf("unreadable (%v); checking determinism and cross-tier agreement only", err)
	case json.Unmarshal(raw, &g) != nil:
		c.note = "malformed golden file; checking determinism and cross-tier agreement only"
	case g.Work != work:
		c.note = fmt.Sprintf("%s was recorded at other work sizes; checking determinism and cross-tier agreement only",
			goldenName(workload, seed))
	default:
		c.golden = g.Digests
		c.note = fmt.Sprintf("%s (%d digests)", goldenName(workload, seed), len(g.Digests))
	}
	return c
}

func knownSeeds(workload string) string {
	names, _ := fs.Glob(goldens, "testdata/golden-"+workload+"-seed*.json")
	var seeds []string
	for _, n := range names {
		s := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(n), "golden-"+workload+"-seed"), ".json")
		seeds = append(seeds, s)
	}
	if len(seeds) == 0 {
		return "none"
	}
	return strings.Join(seeds, ", ")
}

// digest returns the hex SHA-256 of b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// verify checks one result digest. golden selects whether the key belongs
// in the golden file; other keys are checked for determinism only.
func (c *checker) verify(key, d string, golden bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.seen[key]; ok && prev != d {
		return fmt.Errorf("%s: result differs from the same operation earlier in the run", key)
	}
	c.seen[key] = d
	if !golden {
		return nil
	}
	c.recorded[key] = true
	if c.golden == nil {
		return nil
	}
	want, ok := c.golden[key]
	if !ok {
		return fmt.Errorf("%s: no golden entry", key)
	}
	if want != d {
		return fmt.Errorf("%s: golden mismatch: want %s, got %s", key, want, d)
	}
	return nil
}

// op counts one operation, failed when err is not nil.
func (c *checker) op(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.failures) < maxFailuresShown {
			c.failures = append(c.failures, err.Error())
		}
	}
}

func (c *checker) totals() (attempted, failed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed
}

func (c *checker) printFailures(w io.Writer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range c.failures {
		fmt.Fprintf(w, "failed: %s\n", f)
	}
	if c.failed > len(c.failures) {
		fmt.Fprintf(w, "failed: ... and %d more\n", c.failed-len(c.failures))
	}
}

// writeGolden stores the digests of every golden key seen in the run.
func (c *checker) writeGolden(dir string) (string, error) {
	c.mu.Lock()
	g := goldenFile{Workload: c.workload, Seed: c.seed, Work: c.work, Digests: map[string]string{}}
	for k := range c.recorded {
		g.Digests[k] = c.seen[k]
	}
	c.mu.Unlock()
	body, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, goldenName(c.workload, c.seed))
	if err := os.WriteFile(path, append(body, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("golden: %w", err)
	}
	return path, nil
}
