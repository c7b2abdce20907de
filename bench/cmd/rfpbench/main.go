// Command rfpbench runs one workload of the end-to-end benchmark, or
// compares two sets of results.
//
//	rfpbench -workload <name> -seed <n> -seconds <s> -trace <0|1> [-out results.jsonl]
//	rfpbench compare [-bench BENCHMARK.json] <parent.jsonl> <change.jsonl>
//
// A run prints a human-readable report and, as its last line, one JSON
// object: correct, attempted, failed and metrics (the end-to-end metrics,
// or the per-layer ones with -trace 1). It exits 1 without that line when
// the benchmark itself cannot run. See bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"rfpsim/bench"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("rfpbench", flag.ExitOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(bench.Workloads(), ", "))
	seed := fs.Uint64("seed", 0, "input seed; 0 and 1 have committed goldens")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	traced := fs.Int("trace", 0, "1 for the traced run, which reports per-layer metrics")
	out := fs.String("out", "", "append this run's record to a JSON-lines results file (for compare)")
	spans := fs.String("spans", "", "where a traced run writes its spans (default .bench_build/spans/<workload>-seed<n>.json)")
	golden := fs.String("write-golden", "", "directory to write this run's digests to as the golden for its workload and seed")
	fs.Parse(args)
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(os.Stderr, "rfpbench: -trace must be 0 or 1, got %d\n", *traced)
		return 2
	}
	if *traced == 1 && *spans == "" {
		*spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
	}

	tmp, err := os.MkdirTemp("", "rfpbench-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "rfpbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, err := bench.Run(ctx, bench.Options{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *traced == 1,
		SpansPath: *spans, GoldenDir: *golden, TempDir: tmp, Log: os.Stdout,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rfpbench: %v\n", err)
		return 1
	}
	res := rep.Result()
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "rfpbench: metric %s was not measured (%v)\n", name, m.Value)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rfpbench: %v\n", err)
		return 1
	}
	if *out != "" {
		rec := bench.Record{Workload: *workload, Seed: *seed, Trace: *traced == 1, Result: res}
		if err := bench.AppendRecord(*out, rec); err != nil {
			fmt.Fprintf(os.Stderr, "rfpbench: %v\n", err)
			return 1
		}
	}
	fmt.Println(string(line))
	return 0
}

func compare(args []string) int {
	fs := flag.NewFlagSet("rfpbench compare", flag.ExitOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "BENCHMARK.json holding the metric bounds")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: rfpbench compare [-bench BENCHMARK.json] <parent.jsonl> <change.jsonl>")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	rules, err := bench.LoadRules(*benchPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rfpbench compare: %v\n", err)
		return 1
	}
	cs, err := bench.CompareFiles(rules, fs.Arg(0), fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "rfpbench compare: %v\n", err)
		return 1
	}
	bench.PrintComparisons(os.Stdout, cs)
	for _, c := range cs {
		if c.Verdict == bench.Regressed {
			return 1
		}
	}
	return 0
}
