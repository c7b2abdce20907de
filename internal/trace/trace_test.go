package trace

import (
	"testing"

	"rfpsim/internal/isa"
)

func TestCatalogHas65Workloads(t *testing.T) {
	cat := Catalog()
	if len(cat) != 65 {
		t.Fatalf("catalog has %d workloads, want 65 (paper Table 3)", len(cat))
	}
	seen := map[string]bool{}
	for _, s := range cat {
		if s.Name == "" {
			t.Error("workload with empty name")
		}
		if seen[s.Name] {
			t.Errorf("duplicate workload %q", s.Name)
		}
		seen[s.Name] = true
		if s.Seed == 0 {
			t.Errorf("workload %q has zero seed", s.Name)
		}
	}
}

func TestCatalogCategoriesCovered(t *testing.T) {
	counts := map[Category]int{}
	for _, s := range Catalog() {
		counts[s.Category]++
	}
	for _, c := range Categories() {
		if counts[c] == 0 {
			t.Errorf("category %s has no workloads", c)
		}
	}
	if counts[Spec06] != 29 {
		t.Errorf("SPEC06 count = %d, want 29", counts[Spec06])
	}
	if counts[Spec17Int] != 10 || counts[Spec17FP] != 10 {
		t.Error("SPEC17 suites must be complete (10 int + 10 fp)")
	}
}

func TestByNameAndByCategory(t *testing.T) {
	s, ok := ByName("spec06_mcf")
	if !ok || s.Name != "spec06_mcf" {
		t.Fatal("ByName failed for spec06_mcf")
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("ByName found a nonexistent workload")
	}
	cloud := ByCategory(Cloud)
	if len(cloud) == 0 {
		t.Fatal("no cloud workloads")
	}
	for _, s := range cloud {
		if s.Category != Cloud {
			t.Errorf("ByCategory(Cloud) returned %s", s.Category)
		}
	}
	names := Names()
	if len(names) != 65 {
		t.Errorf("Names returned %d entries", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("Names not sorted/unique")
		}
	}
}

// TestByNameSharesNothingWithCatalog pins the built-once catalog: ByName
// does not allocate, and a caller editing the slice Catalog returned does
// not change what ByName or a later Catalog call returns.
func TestByNameSharesNothingWithCatalog(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { ByName("spec06_mcf") }); n != 0 {
		t.Errorf("ByName allocates %.1f times per call, want 0", n)
	}
	want, _ := ByName("spec06_mcf")
	cat := Catalog()
	for i := range cat {
		cat[i].Name, cat[i].Seed, cat[i].prof = "edited", 1, profile{}
	}
	if got, ok := ByName("spec06_mcf"); !ok || got != want {
		t.Errorf("ByName after editing Catalog's slice = %+v, %v; want %+v", got, ok, want)
	}
	if again := Catalog(); again[0].Name == "edited" {
		t.Error("editing Catalog's slice changed a later Catalog call")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	s, _ := ByName("spec06_gcc")
	g1, g2 := s.New(), s.New()
	var a, b isa.MicroOp
	for i := 0; i < 5000; i++ {
		if !g1.Next(&a) || !g2.Next(&b) {
			t.Fatal("generator ended")
		}
		if a != b {
			t.Fatalf("divergence at uop %d:\n%v\n%v", i, &a, &b)
		}
	}
}

func TestGeneratorSequenceNumbers(t *testing.T) {
	s, _ := ByName("spark")
	g := s.New()
	var op isa.MicroOp
	for i := uint64(0); i < 1000; i++ {
		g.Next(&op)
		if op.Seq != i {
			t.Fatalf("seq %d at position %d", op.Seq, i)
		}
	}
}

func TestGeneratorWellFormedUops(t *testing.T) {
	for _, s := range Catalog() {
		g := s.New()
		var op isa.MicroOp
		loads, branches := 0, 0
		for i := 0; i < 3000; i++ {
			if !g.Next(&op) {
				t.Fatalf("%s: generator ended early", s.Name)
			}
			switch op.Class {
			case isa.OpLoad:
				loads++
				if !op.Dst.Valid() {
					t.Fatalf("%s: load without destination", s.Name)
				}
				if op.Addr == 0 {
					t.Fatalf("%s: load with zero address", s.Name)
				}
				if op.Addr%8 != 0 {
					t.Fatalf("%s: misaligned load %#x", s.Name, op.Addr)
				}
			case isa.OpStore:
				if op.Dst != isa.NoReg {
					t.Fatalf("%s: store with destination", s.Name)
				}
				if op.Addr == 0 {
					t.Fatalf("%s: store with zero address", s.Name)
				}
			case isa.OpBranch:
				branches++
				if op.Target == 0 {
					t.Fatalf("%s: branch with zero target", s.Name)
				}
			}
			if op.Dst != isa.NoReg && !op.Dst.Valid() {
				t.Fatalf("%s: invalid dst %d", s.Name, op.Dst)
			}
		}
		if loads == 0 {
			t.Errorf("%s: no loads in 3000 uops", s.Name)
		}
		if branches == 0 {
			t.Errorf("%s: no branches in 3000 uops", s.Name)
		}
	}
}

func TestGeneratorLoadFraction(t *testing.T) {
	// Across the suite, loads should be a realistic fraction of the
	// dynamic uop stream (roughly a fifth to a third).
	total, loads := 0, 0
	for _, s := range Catalog() {
		g := s.New()
		var op isa.MicroOp
		for i := 0; i < 2000; i++ {
			g.Next(&op)
			total++
			if op.IsLoad() {
				loads++
			}
		}
	}
	frac := float64(loads) / float64(total)
	if frac < 0.12 || frac > 0.45 {
		t.Errorf("suite load fraction = %.2f, want ~0.15-0.40", frac)
	}
}

func TestGeneratorPCsAreStable(t *testing.T) {
	// A static load PC must always be a load (stable static code), and
	// strided kernels must reuse the same PC across iterations — the
	// prefetch table depends on it.
	s, _ := ByName("spec06_libquantum")
	g := s.New()
	classByPC := map[uint64]isa.OpClass{}
	countByPC := map[uint64]int{}
	var op isa.MicroOp
	for i := 0; i < 20000; i++ {
		g.Next(&op)
		if prev, ok := classByPC[op.PC]; ok && prev != op.Class {
			t.Fatalf("PC %#x changed class %v -> %v", op.PC, prev, op.Class)
		}
		classByPC[op.PC] = op.Class
		if op.IsLoad() {
			countByPC[op.PC]++
		}
	}
	max := 0
	for _, c := range countByPC {
		if c > max {
			max = c
		}
	}
	if max < 100 {
		t.Errorf("hottest load PC seen %d times, want >= 100", max)
	}
}

func TestStridedWorkloadHasDetectableStrides(t *testing.T) {
	s, _ := ByName("spec06_hmmer")
	g := s.New()
	lastAddr := map[uint64]uint64{}
	strideHits, strideTotal := 0, 0
	lastStride := map[uint64]int64{}
	var op isa.MicroOp
	for i := 0; i < 50000; i++ {
		g.Next(&op)
		if !op.IsLoad() {
			continue
		}
		if la, ok := lastAddr[op.PC]; ok {
			stride := int64(op.Addr) - int64(la)
			if ls, ok2 := lastStride[op.PC]; ok2 {
				strideTotal++
				if stride == ls {
					strideHits++
				}
			}
			lastStride[op.PC] = stride
		}
		lastAddr[op.PC] = op.Addr
	}
	if strideTotal == 0 {
		t.Fatal("no repeated load PCs")
	}
	if frac := float64(strideHits) / float64(strideTotal); frac < 0.5 {
		t.Errorf("stride repeat fraction = %.2f, want >= 0.5 for hmmer", frac)
	}
}

func TestValueModelClasses(t *testing.T) {
	// Constant-class loads must return the same value forever; across the
	// suite there must be some but not only constant-valued load PCs.
	nConst, nTotal := 0, 0
	for _, name := range []string{"spec06_perlbench", "spec06_gcc", "spark", "tpcc", "sysmark_office"} {
		s, ok := ByName(name)
		if !ok {
			t.Fatalf("missing workload %s", name)
		}
		g := s.New()
		firstVal := map[uint64]uint64{}
		constant := map[uint64]bool{}
		var op isa.MicroOp
		for i := 0; i < 30000; i++ {
			g.Next(&op)
			if !op.IsLoad() {
				continue
			}
			if v, ok := firstVal[op.PC]; ok {
				if v != op.Value {
					constant[op.PC] = false
				}
			} else {
				firstVal[op.PC] = op.Value
				constant[op.PC] = true
			}
		}
		for _, c := range constant {
			nTotal++
			if c {
				nConst++
			}
		}
	}
	if nConst == 0 {
		t.Error("no constant-valued load PCs anywhere; value prediction would be impossible")
	}
	if nConst == nTotal {
		t.Error("all load PCs constant; value prediction would be trivial")
	}
}

func TestSpecString(t *testing.T) {
	s, _ := ByName("lammps")
	if s.String() == "" || s.Category != HPC {
		t.Error("lammps spec malformed")
	}
}

func TestDegenerateProfileStillGenerates(t *testing.T) {
	g := newGenerator(Spec{Name: "empty", Seed: 1})
	var op isa.MicroOp
	for i := 0; i < 100; i++ {
		if !g.Next(&op) {
			t.Fatal("degenerate generator ended")
		}
	}
}

func TestRegWindowWraps(t *testing.T) {
	w := newRegWindow()
	seen := map[isa.RegID]bool{}
	for i := 0; i < 100; i++ {
		r := w.intReg()
		if !r.Valid() || r.IsFP() {
			t.Fatalf("intReg returned %v", r)
		}
		seen[r] = true
	}
	for i := 0; i < 100; i++ {
		r := w.fpReg()
		if !r.IsFP() {
			t.Fatalf("fpReg returned %v", r)
		}
	}
	if len(seen) < 16 {
		t.Error("intReg cycling through too few registers")
	}
}
