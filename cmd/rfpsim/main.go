// Command rfpsim simulates one workload on one core configuration and
// prints the full statistics block — the single-run research tool behind
// the experiment harness.
//
// Usage:
//
//	rfpsim -workload spec06_mcf [-rfp] [-clp] [-vp eves|dlvp|composite|epp]
//	       [-oracle l1|l2|llc|mem] [-prefetcher stream|spp|sisb|managed]
//	       [-2x] [-warmup N] [-measure N] [-coldcaches]
//	       [-sample] [-sample-interval N] [-sample-maxk K] [-sample-warmup N]
//	       [-checks] [-v] [-cpuprofile out.pprof]
//	rfpsim -trace file.rfpt [the flags above]
//	rfpsim -workload all -diff norfp [-measure N] [-diff-interval N]
//	rfpsim -listworkloads
//
// -trace runs an .rfpt trace file (docs/traces.md) instead of a catalog
// workload. The file is read into memory and re-decoded for every pass,
// so a trace samples, and pairs under -diff, exactly as a catalog
// workload does. -sample prints the replay plan (the simulated intervals
// and their weights) before the sampled statistics; docs/sampling.md
// explains how to check a workload's sampling error by running with and
// without -sample.
//
// The configuration flags map onto the daemon's config spec
// (service.ConfigSpec, docs/service.md) and build the same way: -clp
// implies -rfp, and the RFP tuning flags (-pat, -context, -confbits,
// -ptentries) are an error without -rfp or -clp.
//
// -prefetcher enables an L1 hardware cache prefetcher from the zoo
// (docs/prefetchers.md): "stream" (sequential), "spp" (signature-path),
// "sisb" (temporal) or "managed" (adaptive selection among the three).
//
// -diff runs the differential correctness harness (docs/checking.md):
// the flag-built configuration is paired against a derived baseline
// (norfp, novp, nolatealloc, nopf, noclp, baseline, or full for
// sampled-vs-full) and the committed architectural traces are compared;
// any divergence is localized to its first divergent interval and uop
// and exits non-zero. -checks enables the runtime invariant layer on a
// normal run.
//
// -v turns on debug logging and prints a per-stage wall-time breakdown
// (fast-forward / warmup / measure / aggregate, plus profile under
// -sample) to stderr after the run; -cpuprofile captures a pprof CPU
// profile of the simulation. See docs/observability.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"rfpsim/internal/check"
	"rfpsim/internal/config"
	"rfpsim/internal/core"
	"rfpsim/internal/isa"
	"rfpsim/internal/obs"
	"rfpsim/internal/runner"
	"rfpsim/internal/sample"
	"rfpsim/internal/service"
	"rfpsim/internal/stats"
	"rfpsim/internal/trace"
	"rfpsim/internal/tracefile"
)

func main() {
	var (
		workload  = flag.String("workload", "spec06_mcf", "workload name from the Table 3 suite")
		traceFile = flag.String("trace", "", "run from a binary trace file instead of a synthetic workload")
		listWk    = flag.Bool("listworkloads", false, "list the 65-workload suite and exit")
		cfgSpec   = configFlags(flag.CommandLine)
		warmup    = flag.Uint64("warmup", 30000, "warmup uops (cache/predictor training)")
		measure   = flag.Uint64("measure", 60000, "measured uops")
		noWarmC   = flag.Bool("coldcaches", false, "skip footprint-based cache warming")
		pipeTrace = flag.Uint64("pipetrace", 0, "stream N cycles of pipeline events to stderr (after warmup)")
		profile   = flag.Bool("profile", false, "print per-PC load profile (top 15) after the run")

		diffMode  = flag.String("diff", "", "differential harness: norfp, novp, nolatealloc, nopf, noclp, baseline or full")
		diffIntvl = flag.Uint64("diff-interval", 0, "divergence-localization interval in uops (0 = default 1000)")

		doSample  = flag.Bool("sample", false, "SimPoint-style sampled simulation (see docs/sampling.md)")
		sInterval = flag.Uint64("sample-interval", 0, "sampling interval length in uops (0 = default 2000)")
		sMaxK     = flag.Int("sample-maxk", 0, "max representative intervals (0 = default 5)")
		sWarmup   = flag.Uint64("sample-warmup", 0, "per-representative cycle warmup uops (0 = one interval)")

		verbose    = flag.Bool("v", false, "debug logging plus a per-stage wall-time breakdown on stderr")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the simulation to this file")
	)
	flag.Parse()
	if *verbose {
		slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelDebug})))
	}

	if *listWk {
		for _, c := range trace.Categories() {
			for _, s := range trace.ByCategory(c) {
				fmt.Println(s)
			}
		}
		return
	}

	cfg, err := buildConfig(*cfgSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Ctrl-C / SIGTERM cancels the in-flight simulation promptly instead
	// of leaving it to run to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var sampling *runner.Sampling
	if *doSample {
		sampling = &runner.Sampling{IntervalUops: *sInterval, MaxK: *sMaxK, WarmupUops: *sWarmup}
	}
	if *diffMode != "" {
		code := runDiff(ctx, cfg, *diffMode, *workload, *traceFile, *measure, *diffIntvl, sampling)
		stop()
		os.Exit(code)
	}

	job := runner.Job{
		Config:      cfg,
		WarmupUops:  *warmup,
		MeasureUops: *measure,
		Seeds:       1,
		ColdCaches:  *noWarmC,
		Sampling:    sampling,
	}
	if *traceFile != "" {
		job.Spec, job.NewGen, err = traceSource(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		spec, ok := trace.ByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q (use -listworkloads)\n", *workload)
			os.Exit(2)
		}
		job.Spec = spec
	}

	// The observer hook fires between warmup and the measured run, which
	// is where pipeline tracing and profiling attach.
	var observed *core.Core
	job.AfterWarmup = func(c *core.Core) {
		observed = c
		if *pipeTrace > 0 {
			c.AttachPipeTrace(os.Stderr, c.Cycle(), c.Cycle()+*pipeTrace)
		}
		if *profile {
			c.EnableProfile()
		}
	}

	var tim *obs.Timings
	if *verbose {
		ctx, tim = obs.WithTimings(ctx)
	}
	run := func() (sample.Result, error) { return sample.RunResult(ctx, job) }
	var res sample.Result
	var runErr error
	if *cpuProfile != "" {
		_, runErr = obs.CaptureCPUProfile(*cpuProfile, func() error {
			var e error
			res, e = run()
			return e
		})
	} else {
		res, runErr = run()
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "run failed: %v\n", runErr)
		os.Exit(1)
	}
	if tim != nil {
		fmt.Fprintf(os.Stderr, "stage timings: %s\n", tim.Pretty())
	}
	if res.Plan != nil {
		fmt.Print(res.Plan)
		fmt.Println()
	}
	printStats(cfg.Name, job.Spec, res.Stats)
	if *profile {
		fmt.Println("\nper-PC load profile (top 15):")
		fmt.Println(observed.Profile())
	}
}

// runDiff executes the differential harness (docs/checking.md) for one
// workload, a trace file, or — with -workload all — the whole catalog,
// and returns the process exit code: 0 when every pairing commits an
// identical architectural trace with zero invariant violations, 1 on
// any divergence or violation, 2 on usage errors.
func runDiff(ctx context.Context, variant config.Core, mode, workload, traceFile string, measure, interval uint64, sampling *runner.Sampling) int {
	base, sampledVsFull, err := check.BaseFor(mode, variant)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	d := check.Differential{
		Base: base, Variant: variant,
		Uops: measure, IntervalUops: interval,
	}
	switch {
	case sampledVsFull:
		sp := runner.Sampling{}
		if sampling != nil {
			sp = *sampling
		}
		d.VariantSampling = &sp
	case sampling != nil:
		fmt.Fprintln(os.Stderr, "-sample only pairs with -diff full (the sampled-vs-full comparison)")
		return 2
	}

	var specs []trace.Spec
	switch {
	case traceFile != "":
		spec, newGen, err := traceSource(traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		d.NewGen = newGen
		specs = []trace.Spec{spec}
	case workload == "all":
		specs = trace.Catalog()
	default:
		spec, ok := trace.ByName(workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q (use -listworkloads)\n", workload)
			return 2
		}
		specs = []trace.Spec{spec}
	}

	exit := 0
	for _, spec := range specs {
		d.Spec = spec
		res, err := d.Run(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "diff failed: %v\n", err)
			return 1
		}
		fmt.Println(res)
		if res.Diverged || res.BaseViolations != 0 || res.VariantViolations != 0 {
			exit = 1
		}
	}
	return exit
}

// traceSource reads a trace file into memory and returns the workload spec
// it runs under (named after the file) and a tracefile.Factory over its
// bytes: every pass — a full run, both sides of a differential, the
// profile and the replay of a sampled run — decodes the identical stream
// afresh, and each generator forks.
func traceSource(path string) (trace.Spec, func() isa.Generator, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return trace.Spec{}, nil, err
	}
	newGen, err := tracefile.Factory(raw, path)
	if err != nil {
		return trace.Spec{}, nil, err
	}
	return trace.Spec{Name: path, Category: "trace-file"}, newGen, nil
}

// configFlags registers the core-configuration flags on fs. Each maps
// onto one service.ConfigSpec field, so rfpsim builds its configuration
// exactly as the daemon and sweeps do.
func configFlags(fs *flag.FlagSet) *service.ConfigSpec {
	s := &service.ConfigSpec{}
	fs.BoolVar(&s.Upscaled, "2x", false, "use the futuristic Baseline-2x core")
	fs.BoolVar(&s.RFP, "rfp", false, "enable Register File Prefetching")
	fs.BoolVar(&s.PAT, "pat", false, "use the Page Address Table PT encoding (needs -rfp)")
	fs.BoolVar(&s.Context, "context", false, "add the path-based context prefetcher (needs -rfp)")
	fs.BoolVar(&s.CLP, "clp", false, "cache-level-predicted RFP arming schedule (implies -rfp; docs/predictors.md)")
	fs.IntVar(&s.ConfidenceBits, "confbits", 0, "RFP confidence counter width, 1-4 (0 = config default; needs -rfp)")
	fs.IntVar(&s.PTEntries, "ptentries", 0, "RFP Prefetch Table entries (0 = config default; needs -rfp)")
	fs.StringVar(&s.VP, "vp", "", "value prediction: eves, dlvp, composite or epp")
	fs.StringVar(&s.Oracle, "oracle", "", "oracle prefetch study: l1, l2, llc or mem")
	fs.BoolVar(&s.LateRegAlloc, "latealloc", false, "late register allocation (§3.3 pipeline variation)")
	fs.StringVar(&s.Prefetcher, "prefetcher", "", "L1 hardware prefetcher: stream, spp, sisb or managed (docs/prefetchers.md)")
	fs.BoolVar(&s.Checks, "checks", false, "enable the runtime invariant layer (docs/checking.md)")
	return s
}

// buildConfig resolves the flag-built spec with service.ConfigSpec.Build;
// -clp implies -rfp. RFP knobs without RFP are an error, not ignored.
func buildConfig(s service.ConfigSpec) (config.Core, error) {
	s.RFP = s.RFP || s.CLP
	return s.Build()
}

func printStats(cfgName string, spec trace.Spec, st *stats.Sim) {
	fmt.Printf("workload   %s\nconfig     %s\n", spec, cfgName)
	fmt.Printf("cycles     %d\nuops       %d\nIPC        %.3f\n", st.Cycles, st.Instructions, st.IPC())
	fmt.Printf("loads      %d (forwarded %d)\nstores     %d\nbranches   %d (mispredicted %d)\n",
		st.Loads, st.StoreForwarded, st.Stores, st.Branches, st.BranchMispredicts)
	fmt.Print("load hits  ")
	for l := 0; l < stats.NumLevels; l++ {
		fmt.Printf("%s %s  ", stats.LevelName(l), stats.Pct(st.LoadLevelFrac(l)))
	}
	fmt.Println()
	fmt.Printf("speculation  replays %d, hit-miss mispredicts %d, ordering violations %d, DTLB misses %d\n",
		st.Replays, st.HitMissMispredicts, st.MemOrderViolations, st.DTLBMisses)
	if st.RFP.Injected > 0 {
		fmt.Printf("RFP        injected %s, executed %s, useful %s (coverage), wrong %s, fully hidden %s\n",
			stats.Pct(st.RFPInjectedFrac()), stats.Pct(st.RFPExecutedFrac()),
			stats.Pct(st.RFPCoverage()), stats.Pct(st.RFPWrongFrac()),
			stats.Pct(float64(st.RFP.FullyHidden)/float64(st.Loads)))
	}
	if st.L1PF.Issued > 0 {
		fmt.Printf("L1PF       issued %d, useful %d (coverage %s, accuracy %s), late %d, unused %d, dropped %d\n",
			st.L1PF.Issued, st.L1PF.Useful, stats.Pct(st.L1PFCoverage()),
			stats.Pct(st.L1PFAccuracy()), st.L1PF.Late, st.L1PF.Unused, st.L1PF.Dropped)
		if st.L1PF.ManagerEpochs > 0 {
			fmt.Printf("L1PF mgr   epochs %d, switches %d, throttled %d\n",
				st.L1PF.ManagerEpochs, st.L1PF.ManagerSwitches, st.L1PF.ManagerThrottledEpochs)
		}
	}
	if st.CLP.PredictedTotal() > 0 {
		fmt.Printf("CLP        predicted %s of loads (accuracy %s), per level ",
			stats.Pct(st.CLPCoverage()), stats.Pct(st.CLPAccuracy()))
		for l := 0; l < stats.NumLevels; l++ {
			if st.CLP.Predicted[l] > 0 {
				fmt.Printf("%s %s  ", stats.LevelName(l), stats.Pct(st.CLPLevelAccuracy(l)))
			}
		}
		fmt.Println()
		fmt.Printf("CLP sched  skipped-dram %d, early-armed %d, crit-gated %d\n",
			st.CLP.SkippedDRAM, st.CLP.EarlyArmed, st.CLP.CritGated)
	}
	if st.VP.Predicted > 0 {
		fmt.Printf("VP         predicted %s of loads, mispredicted %d (flushes %d)\n",
			stats.Pct(st.VPCoverage()), st.VP.Mispredicted, st.VPFlushes)
	}
	if st.Checks.Total() > 0 {
		fmt.Printf("CHECKS     %d invariant violations:", st.Checks.Total())
		st.Checks.Each(func(name string, count uint64) {
			if count > 0 {
				fmt.Printf(" %s=%d", name, count)
			}
		})
		fmt.Println()
	}
}
