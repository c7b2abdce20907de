package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rfpsim/internal/isa"
	"rfpsim/internal/trace"
	"rfpsim/internal/tracefile"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestDumpAndInfoRoundTrip(t *testing.T) {
	spec, ok := trace.ByName("spec06_hmmer")
	if !ok {
		t.Fatal("workload missing")
	}
	path := filepath.Join(t.TempDir(), "hmmer.rfpt")
	if err := dump(spec, 5000, path); err != nil {
		t.Fatalf("dump: %v", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() < 1000 {
		t.Errorf("trace suspiciously small: %d bytes", st.Size())
	}
	if err := printInfo(path, io.Discard); err != nil {
		t.Fatalf("printInfo: %v", err)
	}

	// The dumped trace must replay identically to the generator.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := tracefile.NewReader(f, "check")
	if err != nil {
		t.Fatal(err)
	}
	gen := spec.New()
	var want, got isa.MicroOp
	for i := 0; i < 5000; i++ {
		gen.Next(&want)
		if !r.Next(&got) {
			t.Fatalf("trace ended at %d: %v", i, r.Err())
		}
		if got != want {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestDumpToUnwritablePathFails(t *testing.T) {
	spec, _ := trace.ByName("spec06_hmmer")
	if err := dump(spec, 10, "/nonexistent-dir/x.rfpt"); err == nil {
		t.Error("dump to an unwritable path succeeded")
	}
}

func TestInfoOnGarbageFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, []byte("not a trace at all, definitely"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := printInfo(path, io.Discard); err == nil {
		t.Error("printInfo accepted garbage")
	}
	if err := printInfo(filepath.Join(t.TempDir(), "missing"), io.Discard); err == nil {
		t.Error("printInfo accepted a missing file")
	}
}

const champsimFixture = "../../internal/champsim/testdata/tiny.champsim.gz"

// TestConvertInfoGolden converts the committed ChampSim fixture and pins
// the conversion report plus tracegen -info's view of the result — uop
// count, class mix and the content address rfpsimd would file the trace
// under. Any drift in the ChampSim cracking, the rfpt encoding or the
// fixture itself lands here.
func TestConvertInfoGolden(t *testing.T) {
	out := filepath.Join(t.TempDir(), "tiny.rfpt")
	var conv bytes.Buffer
	if err := convertChampSim(context.Background(), champsimFixture, out, 1<<40, &conv); err != nil {
		t.Fatalf("convert: %v", err)
	}
	var info bytes.Buffer
	if err := printInfo(out, &info); err != nil {
		t.Fatalf("info: %v", err)
	}
	// The first -info line echoes the (temp) path; rewrite it to a stable
	// name so the golden is location-independent.
	got := conv.String() + strings.Replace(info.String(), out, "tiny.rfpt", 1)

	golden := filepath.Join("testdata", "info.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("conversion report drifted from %s (regenerate with -update):\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestConvertCapStopsEarly checks -n caps a conversion: a 1-uop budget
// converts only the leading instruction(s), not the whole fixture.
func TestConvertCapStopsEarly(t *testing.T) {
	out := filepath.Join(t.TempDir(), "capped.rfpt")
	var report bytes.Buffer
	if err := convertChampSim(context.Background(), champsimFixture, out, 1, &report); err != nil {
		t.Fatalf("convert: %v", err)
	}
	if !strings.Contains(report.String(), "converted 1 ChampSim instructions into 1 uops") {
		t.Errorf("unexpected capped-conversion report: %s", report.String())
	}
}

// TestConvertCancelled checks a cancelled context stops a conversion with
// the context's error instead of writing the whole trace.
func TestConvertCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := filepath.Join(t.TempDir(), "cancelled.rfpt")
	err := convertChampSim(ctx, champsimFixture, out, 1<<40, io.Discard)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("convert under a cancelled context = %v, want context.Canceled", err)
	}
}
