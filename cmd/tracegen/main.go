// Command tracegen materializes a synthetic workload into the binary trace
// format (internal/tracefile), converts an external ChampSim instruction
// trace into it, or inspects an existing trace. Traces let the simulator
// run on externally captured micro-op streams — and let other tools
// consume this repository's workload suite. The ChampSim→rfpt mapping and
// its documented lossiness live in internal/champsim (docs/traces.md).
//
// Usage:
//
//	tracegen -workload spec06_mcf -n 1000000 -o mcf.rfpt
//	tracegen -from-champsim 605.mcf.champsim.xz -o mcf.rfpt
//	tracegen -info mcf.rfpt
package main

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"rfpsim/internal/champsim"
	"rfpsim/internal/isa"
	"rfpsim/internal/trace"
	"rfpsim/internal/tracefile"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload name to materialize")
		fromCS   = flag.String("from-champsim", "", "ChampSim trace to convert (raw, .gz or .xz)")
		n        = flag.Uint64("n", 1000000, "number of uops to emit (cap for conversions)")
		out      = flag.String("o", "", "output trace path")
		info     = flag.String("info", "", "print statistics of an existing trace and exit")
	)
	flag.Parse()

	switch {
	case *info != "":
		if err := printInfo(*info, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *fromCS != "":
		if *out == "" {
			fmt.Fprintln(os.Stderr, "need -o with -from-champsim")
			os.Exit(2)
		}
		// SIGINT or SIGTERM cancels the conversion and kills an xz
		// decompressor rather than leaving it behind.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		err := convertChampSim(ctx, *fromCS, *out, *n, os.Stdout)
		stop()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *workload != "" && *out != "":
		spec, ok := trace.ByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
			os.Exit(2)
		}
		if err := dump(spec, *n, *out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "need -workload and -o, -from-champsim and -o, or -info <file>")
		os.Exit(2)
	}
}

func dump(spec trace.Spec, n uint64, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := tracefile.NewWriter(f)
	gen := spec.New()
	var op isa.MicroOp
	for i := uint64(0); i < n; i++ {
		if !gen.Next(&op) {
			break
		}
		if err := w.Write(&op); err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d uops of %s to %s (%.1f MiB, %.1f bytes/uop)\n",
		w.Count(), spec.Name, path,
		float64(st.Size())/(1<<20), float64(st.Size())/float64(w.Count()))
	return f.Close()
}

// ctxCheckUops is how many converted uops pass between cancellation polls.
const ctxCheckUops = 1 << 16

// convertChampSim cracks a ChampSim instruction trace into micro-ops and
// writes them as .rfpt, capping the output at n uops (an instruction's
// uops are never split across the cap). Cancelling ctx stops it.
func convertChampSim(ctx context.Context, src, dst string, n uint64, stdout io.Writer) error {
	in, err := champsim.OpenFileContext(ctx, src)
	if err != nil {
		return err
	}
	defer in.Close()
	f, err := os.Create(dst)
	if err != nil {
		return err
	}
	defer f.Close()
	w := tracefile.NewWriter(f)
	conv := champsim.NewConverter(champsim.NewDecoder(in), src)
	var op isa.MicroOp
	for i := 0; conv.Uops() < n && conv.Next(&op); i++ {
		if i%ctxCheckUops == 0 && ctx.Err() != nil {
			return fmt.Errorf("converting %s: cancelled after %d uops: %w", src, i, ctx.Err())
		}
		if err := w.Write(&op); err != nil {
			return fmt.Errorf("writing %s: %w", dst, err)
		}
	}
	if err := conv.Err(); err != nil {
		return fmt.Errorf("reading %s: %w", src, err)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "converted %d ChampSim instructions into %d uops (%.2f uops/instr)\n",
		conv.Records(), w.Count(), float64(w.Count())/float64(conv.Records()))
	return f.Close()
}

// printInfo writes a trace's shape — uop count, static load PCs, class
// mix and the content address rfpsimd would store it under — to w. The
// output is golden-pinned (cmd/tracegen tests), so converted fixtures
// stay byte-stable.
func printInfo(path string, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	h := sha256.New()
	r, err := tracefile.NewReader(io.TeeReader(f, h), path)
	if err != nil {
		return err
	}
	var counts [isa.NumOpClasses]uint64
	var total uint64
	var op isa.MicroOp
	pcs := map[uint64]struct{}{}
	for r.Next(&op) {
		counts[op.Class]++
		total++
		if op.IsLoad() {
			pcs[op.PC] = struct{}{}
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %d uops, %d static load PCs\n", path, total, len(pcs))
	for c := isa.OpClass(0); int(c) < isa.NumOpClasses; c++ {
		if counts[c] > 0 {
			fmt.Fprintf(w, "  %-7s %9d (%.1f%%)\n", c, counts[c], 100*float64(counts[c])/float64(total))
		}
	}
	fmt.Fprintf(w, "  trace address %x\n", h.Sum(nil))
	return nil
}
