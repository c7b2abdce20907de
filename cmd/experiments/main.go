// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run fig10
//	experiments -run all [-quick] [-warmup N] [-measure N] [-parallel N]
//
// Each experiment prints rows shaped like the corresponding paper chart
// plus the paper's reference numbers in its title, so the reproduction can
// be compared at a glance.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rfpsim/internal/experiments"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available experiments")
		run      = flag.String("run", "", "experiment id to run, or 'all'")
		quick    = flag.Bool("quick", false, "reduced workload subset and windows (smoke runs)")
		warmup   = flag.Uint64("warmup", 0, "override warmup uops per workload")
		measure  = flag.Uint64("measure", 0, "override measured uops per workload")
		parallel = flag.Int("parallel", 0, "max concurrent workload simulations (0 = NumCPU)")
		seeds    = flag.Int("seeds", 1, "seed replicas per workload (statistical averaging)")
		csvPath  = flag.String("csv", "", "append machine-readable metrics to this CSV file")
	)
	flag.Parse()

	if *list || *run == "" {
		fmt.Println("Available experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-15s %s\n", e.ID, e.Title)
		}
		if *run == "" && !*list {
			fmt.Println("\nuse -run <id> or -run all")
			os.Exit(2)
		}
		return
	}

	opts := experiments.Default()
	if *quick {
		opts = experiments.Quick()
	}
	if *warmup > 0 {
		opts.WarmupUops = *warmup
	}
	if *measure > 0 {
		opts.MeasureUops = *measure
	}
	opts.Parallel = *parallel
	opts.Seeds = *seeds

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// One memo for the whole invocation: experiments that share a
	// configuration reuse its runs instead of simulating them again.
	ctx = experiments.WithMemo(ctx)

	var csvW *csv.Writer
	var csvFile *os.File
	if *csvPath != "" {
		f, err := os.OpenFile(*csvPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		csvFile = f
		csvW = csv.NewWriter(f)
		// A fresh (empty) file gets the column header; appending to an
		// existing file must not repeat it.
		if st, err := f.Stat(); err == nil && st.Size() == 0 {
			csvW.Write(experiments.MetricsCSVHeader)
		}
	}
	// flushCSV surfaces buffered csv.Writer errors — a full disk must not
	// produce a silently truncated CSV and exit code 0.
	flushCSV := func() {
		if csvW == nil {
			return
		}
		csvW.Flush()
		if err := csvW.Error(); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *csvPath, err)
			os.Exit(1)
		}
		if err := csvFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "closing %s: %v\n", *csvPath, err)
			os.Exit(1)
		}
	}

	var ids []string
	if *run == "all" {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*run, ",")
	}

	for _, id := range ids {
		e, ok := experiments.ByID(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		res, err := e.Run(ctx, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("=== %s: %s (%.1fs)\n", res.ID, res.Title, time.Since(start).Seconds())
		fmt.Println(res.Text)
		if csvW != nil {
			for _, k := range res.MetricKeys() {
				csvW.Write([]string{res.ID, k, experiments.FormatMetric(res.Metrics[k])})
			}
		}
	}
	flushCSV()
}
