package core

import (
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"rfpsim/internal/config"
	"rfpsim/internal/trace"
)

// keyTestWorkloads are the streams the functional-key test warms: a
// pointer chase, a branchy compiler and a large-footprint OLTP mix.
var keyTestWorkloads = []string{"spec06_mcf", "spec06_gcc", "tpce"}

// keyTestUops is how far the functional-key test fast-forwards.
const keyTestUops = 20000

// keyTestBase is the configuration the functional-key test perturbs. It
// turns on every structure functional warming can train, so that a
// field inside config.FunctionalKey has something to change.
func keyTestBase() config.Core {
	c := config.Baseline().WithRFP().WithVP(config.VPComposite)
	c.RFP.UsePAT, c.RFP.UseContext = true, true
	c.Checks.Enabled = true
	return c
}

// deliberatelyInside lists the fields config.FunctionalKey keeps although
// no warmed state depends on them, each with the reason.
var deliberatelyInside = map[string]string{
	"Oracle": "an oracle machine is an idealized study, not a design point; it never shares a warm pass with a real one",
}

// configLeafPaths returns the path of every non-struct field of t,
// recursively, e.g. "Mem.L1Sets".
func configLeafPaths(t reflect.Type, prefix string) []string {
	var paths []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		p := prefix + f.Name
		if f.Type.Kind() == reflect.Struct {
			paths = append(paths, configLeafPaths(f.Type, p+".")...)
			continue
		}
		paths = append(paths, p)
	}
	return paths
}

// perturbedStrings gives each string field a valid value other than the
// base's.
var perturbedStrings = map[string]string{
	"Name":            "perturbed",
	"BranchPredictor": "gshare",
	"Mem.Prefetcher":  "stream",
}

// perturb returns cfg with the field at path set to another valid value,
// or false when the test does not know how to change a field of its
// kind.
func perturb(cfg config.Core, path string) (config.Core, bool) {
	f := reflect.ValueOf(&cfg).Elem()
	for _, name := range strings.Split(path, ".") {
		f = f.FieldByName(name)
	}
	switch {
	case f.Type() == reflect.TypeOf(config.VPMode(0)):
		f.SetInt(int64(config.VPEVES))
	case f.Kind() == reflect.Int && f.Int() == 0:
		f.SetInt(1)
	case f.Kind() == reflect.Int:
		f.SetInt(2 * f.Int())
	case f.Kind() == reflect.Bool:
		f.SetBool(!f.Bool())
	case f.Kind() == reflect.String && perturbedStrings[path] != "":
		f.SetString(perturbedStrings[path])
	default:
		return cfg, false
	}
	return cfg, true
}

// warmedCore builds a functional core for cfg over the named workload,
// warms its caches and fast-forwards it keyTestUops uops.
func warmedCore(t *testing.T, cfg config.Core, name string) *Core {
	t.Helper()
	spec, ok := trace.ByName(name)
	if !ok {
		t.Fatalf("catalog workload %s missing", name)
	}
	c := NewFunctional(cfg, spec.New())
	c.WarmCaches()
	if err := c.FastForward(context.Background(), keyTestUops); err != nil {
		t.Fatal(err)
	}
	return c
}

// uncheckedFork forks src into cfg whatever the two functional keys,
// and returns nil where src's state does not even fit cfg's structures.
func uncheckedFork(src *Core, cfg config.Core) (f *Core) {
	defer func() {
		if recover() != nil {
			f = nil
		}
	}()
	f, err := src.fork(cfg, nil)
	if err != nil {
		return nil
	}
	return f
}

// TestFunctionalKeyByReflection pins config.FunctionalKey field by
// field. For every field of config.Core it warms a functional core under
// the base configuration and one under the base with that field
// perturbed, on three workloads. It forks each core into the other's
// configuration and compares that with the configuration's own fork:
//   - a field outside the key must leave the two forks deeply equal, and
//     Fork must accept the other configuration;
//   - a field inside the key must make Fork refuse it, and must change
//     the forked state on some workload unless deliberatelyInside lists
//     it.
//
// A new field of a kind perturb cannot change fails the test, and a new
// field warming cannot see stays inside the key by default, so it fails
// until FunctionalKey drops it or deliberatelyInside names it.
func TestFunctionalKeyByReflection(t *testing.T) {
	base := keyTestBase()
	paths := configLeafPaths(reflect.TypeOf(config.Core{}), "")
	if len(paths) < 50 {
		t.Fatalf("walker found only %d fields in config.Core — walker bug?", len(paths))
	}
	refs := make(map[string]*Core)
	for _, w := range keyTestWorkloads {
		refs[w] = warmedCore(t, base, w)
	}
	for _, path := range paths {
		p, ok := perturb(base, path)
		if !ok {
			t.Errorf("config.Core.%s: the test cannot perturb this field; teach perturb its kind", path)
			continue
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("config.Core.%s: perturbed config is invalid: %v", path, err)
		}
		inside := config.FunctionalKey(p) != config.FunctionalKey(base)
		changed := false
		for _, w := range keyTestWorkloads {
			alt := warmedCore(t, p, w)
			// Fork each core into the other's configuration and compare
			// with that configuration's own fork, both ways: dropping a
			// structure (turning a predictor off) only shows one way.
			for _, d := range []struct {
				src, own *Core
				cfg      config.Core
			}{{refs[w], alt, p}, {alt, refs[w], base}} {
				own, err := d.own.Fork(d.cfg, nil)
				if err != nil {
					t.Fatalf("config.Core.%s: %v", path, err)
				}
				if inside {
					if _, err := d.src.Fork(d.cfg, nil); err == nil || !strings.Contains(err.Error(), "functional keys differ") {
						t.Errorf("config.Core.%s is inside the key, but Fork across it: err = %v", path, err)
					}
					if cross := uncheckedFork(d.src, d.cfg); cross == nil || !reflect.DeepEqual(cross, own) {
						changed = true
					}
					continue
				}
				cross, err := d.src.Fork(d.cfg, nil)
				if err != nil {
					t.Errorf("config.Core.%s is outside the key, but Fork across it fails: %v", path, err)
					continue
				}
				if !reflect.DeepEqual(cross, own) {
					t.Errorf("config.Core.%s is outside the key, but changes the warmed state on %s", path, w)
				}
			}
		}
		_, listed := deliberatelyInside[path]
		switch {
		case inside && !changed && !listed:
			t.Errorf("config.Core.%s is inside the key but changes no warmed state on %v: drop it from FunctionalKey or list it in deliberatelyInside",
				path, keyTestWorkloads)
		case !inside && listed:
			t.Errorf("config.Core.%s is listed in deliberatelyInside but is outside the key", path)
		}
	}
}

// TestForkReuseMatchesFresh: a fork that takes over a finished fork's
// cache arrays equals one that allocates its own, before and after a
// cycle-simulated interval, and allocates less.
func TestForkReuseMatchesFresh(t *testing.T) {
	ctx := context.Background()
	cfg := config.Baseline().WithCLP().WithPrefetcher("managed")
	src := warmedCore(t, cfg, "spec06_mcf")

	// A finished fork of another configuration in the family, run long
	// enough to leave prefetched lines, unused-prefetch counts and newer
	// stamps in its arrays.
	old, err := src.Fork(config.Baseline().WithRFP().WithPrefetcher("stream"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.Run(ctx, 20000); err != nil {
		t.Fatal(err)
	}
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	var reused, fresh *Core
	var err1, err2 error
	reusedBytes := allocated(func() { reused, err1 = src.Fork(cfg, old) })
	freshBytes := allocated(func() { fresh, err2 = src.Fork(cfg, nil) })
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	m := cfg.Mem
	arrays := uint64(12 * (m.L1Sets*m.L1Ways + m.L2Sets*m.L2Ways + m.LLCSets*m.LLCWays))
	if reusedBytes+arrays > freshBytes {
		t.Errorf("a fork over a finished one allocated %d bytes, a fresh fork %d: the %d bytes of cache arrays were not taken over",
			reusedBytes, freshBytes, arrays)
	}
	if !reflect.DeepEqual(reused, fresh) {
		t.Fatal("a fork over a finished fork's arrays differs from a fresh fork")
	}
	var out [2]string
	for i, c := range []*Core{reused, fresh} {
		st, err := c.Run(ctx, 20000)
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(js)
	}
	if out[0] != out[1] {
		t.Fatalf("stats differ after a simulated interval\nreused: %s\nfresh:  %s", out[0], out[1])
	}
}

// TestForkRejectsOtherFunctionalKey: Fork refuses a target or a reuse
// whose functional key differs from the source's, and accepts a target
// that differs only outside it.
func TestForkRejectsOtherFunctionalKey(t *testing.T) {
	cfg := config.Baseline().WithRFP()
	src := warmedCore(t, cfg, "spec06_gcc")
	big := cfg
	big.Mem.L2Sets *= 2
	if _, err := src.Fork(big, nil); err == nil || !strings.Contains(err.Error(), "functional keys differ") {
		t.Fatalf("Fork into a larger L2: err = %v", err)
	}
	bigOld, err := warmedCore(t, big, "spec06_gcc").Fork(big, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Fork(cfg, bigOld); err == nil || !strings.Contains(err.Error(), "functional key differs") {
		t.Fatalf("Fork over a larger L2's arrays: err = %v", err)
	}
	if _, err := src.Fork(cfg.WithCLP().WithPrefetcher("spp"), nil); err != nil {
		t.Fatalf("Fork into a config that differs only outside the key: %v", err)
	}
}
