package core

import (
	"testing"

	"rfpsim/internal/config"
	"rfpsim/internal/trace"
)

// BenchmarkWarmCaches times WarmCaches alone on a freshly built core: the
// per-job footprint warming every runner job and sampled point pays.
// tpce has one of the catalog's largest footprints; spec06_gcc is a
// typical one.
func BenchmarkWarmCaches(b *testing.B) {
	for _, name := range []string{"tpce", "spec06_gcc"} {
		spec, ok := trace.ByName(name)
		if !ok {
			b.Fatalf("%s missing from catalog", name)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := New(config.Baseline(), spec.New())
				b.StartTimer()
				c.WarmCaches()
			}
		})
	}
}
