// Command rfpsweep runs a configuration-space sweep — the paper's Figures
// 13–18 are all sweeps — as a fault-tolerant orchestration over either the
// in-process runner or a fleet of rfpsimd daemons. Every completed unit is
// journalled to an append-only JSONL checkpoint, so a crashed or killed
// sweep resumes with -resume and re-runs only the missing units; the final
// CSV is byte-identical however many times the sweep was interrupted and
// whichever backend executed it. See docs/sweep.md for the spec format.
//
// Usage:
//
//	rfpsweep -spec sweep.json [-out sweep.csv] [-checkpoint sweep.ckpt]
//	         [-resume] [-endpoints http://a:8080,http://b:8080]
//	         [-parallel N] [-retries N] [-progress 5s] [-metrics] [-dry-run]
//	         [-timings timings.csv] [-metrics-addr :9090]
//	         [-log-format text|json] [-log-level info]
//	         [-traces a.rfpt,b.rfpt]
//
// -traces registers .rfpt files (made with cmd/tracegen, including
// -from-champsim conversions) so the spec's workloads list can reference
// them as "trace:<sha256>": in-process sweeps read them from a local
// store, fleet sweeps upload them to every endpoint via POST /v1/traces
// first. See docs/traces.md.
//
// -timings writes a per-unit, per-stage wall-time CSV next to the (still
// byte-deterministic) aggregate CSV; -metrics-addr serves the sweep's live
// Prometheus counters over HTTP for the duration of the run. See
// docs/observability.md.
//
// A spec with "mode": "check_diff" runs the differential correctness
// oracle (docs/checking.md) over the grid instead of simulations: each
// configuration is paired against its diff_mode-derived base, committed
// digests are compared, and the exit status gates on zero divergence and
// zero invariant violations. In-process only; no checkpoint/resume.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rfpsim/internal/obs"
	"rfpsim/internal/service"
	"rfpsim/internal/sweep"
)

func main() {
	var (
		specPath    = flag.String("spec", "", "sweep spec JSON file (required)")
		outPath     = flag.String("out", "", "aggregate CSV output file (default stdout)")
		checkpoint  = flag.String("checkpoint", "", "append-only JSONL checkpoint journal")
		resume      = flag.Bool("resume", false, "replay the checkpoint and run only missing units")
		endpoints   = flag.String("endpoints", "", "comma-separated rfpsimd base URLs (empty = run in-process)")
		parallel    = flag.Int("parallel", 0, "unit groups in flight at once: families of sampled units, or single units (0 = 4)")
		retries     = flag.Int("retries", 0, "max attempts per unit on the http backend (0 = 8)")
		progress    = flag.Duration("progress", 5*time.Second, "progress/ETA report interval (0 = quiet)")
		metrics     = flag.Bool("metrics", false, "dump Prometheus-style sweep counters to stderr at the end")
		metricsAddr = flag.String("metrics-addr", "", "serve live sweep metrics at http://ADDR/metrics while the sweep runs")
		timingsPath = flag.String("timings", "", "write a per-unit stage timing CSV (experiment,stage,seconds) to this file")
		logFormat   = flag.String("log-format", "text", "structured log format: text or json")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn or error")
		dryRun      = flag.Bool("dry-run", false, "expand and print the unit grid without running it")
		tracesFlag  = flag.String("traces", "", "comma-separated .rfpt files to register before the sweep, enabling trace:<sha256> workload entries (loaded into the in-process store, or uploaded to every -endpoints daemon)")
	)
	flag.Parse()
	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "rfpsweep: -spec is required (see docs/sweep.md)")
		os.Exit(2)
	}
	if *resume && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "rfpsweep: -resume needs -checkpoint")
		os.Exit(2)
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rfpsweep: %v\n", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	raw, err := os.ReadFile(*specPath)
	if err != nil {
		fatal(err)
	}
	spec, err := sweep.ParseSpec(raw)
	if err != nil {
		fatal(err)
	}

	// mode "check_diff" runs the differential oracle over the grid
	// instead of plain simulations: in-process only (both sides of every
	// pair must run in one process to compare digests), no checkpointing.
	if spec.CheckDiff() {
		if *endpoints != "" || *checkpoint != "" || *resume || *timingsPath != "" {
			fmt.Fprintln(os.Stderr, "rfpsweep: mode check_diff runs in-process only (no -endpoints, -checkpoint, -resume or -timings)")
			os.Exit(2)
		}
		runCheckDiff(spec, *outPath, *parallel, *dryRun, *progress > 0, *metrics, *metricsAddr, logger)
		return
	}

	units, err := spec.Expand()
	if err != nil {
		fatal(err)
	}
	if *dryRun {
		for _, u := range units {
			fmt.Printf("%s %s\n", u.Key[:12], u.Label)
		}
		fmt.Fprintf(os.Stderr, "rfpsweep: %d units\n", len(units))
		return
	}

	m := &sweep.Metrics{}
	var backend sweep.Backend
	if *endpoints != "" {
		urls := strings.Split(*endpoints, ",")
		for i := range urls {
			urls[i] = strings.TrimSuffix(strings.TrimSpace(urls[i]), "/")
		}
		if err := registerTraces(*tracesFlag, urls, nil, logger); err != nil {
			fatal(err)
		}
		backend, err = sweep.NewHTTPBackend(urls, sweep.HTTPBackendOptions{
			MaxAttempts: *retries,
			Metrics:     m,
		})
		if err != nil {
			fatal(err)
		}
	} else {
		store := service.NewTraceStore(0, 0, nil)
		if err := registerTraces(*tracesFlag, nil, store, logger); err != nil {
			fatal(err)
		}
		backend = sweep.LocalBackend{Metrics: m, Traces: store}
	}

	opts := sweep.Options{
		Parallel:       *parallel,
		CheckpointPath: *checkpoint,
		Resume:         *resume,
		ProgressEvery:  *progress,
	}
	if *progress > 0 {
		opts.Progress = os.Stderr
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx = obs.WithLogger(ctx, logger)

	defer serveMetrics(*metricsAddr, m, logger)()

	sum, runErr := sweep.Run(ctx, units, backend, opts, m)
	if *metrics && sum != nil {
		m.WritePrometheus(os.Stderr)
	}
	if *timingsPath != "" && sum != nil {
		if err := writeCSV(*timingsPath, sum.WriteTimingsCSV); err != nil {
			fmt.Fprintf(os.Stderr, "rfpsweep: %v\n", err)
		}
	}
	if runErr != nil {
		if ctx.Err() != nil && *checkpoint != "" {
			fmt.Fprintf(os.Stderr, "rfpsweep: interrupted with %d/%d units journalled; rerun with -resume to finish\n",
				len(sum.Results), len(units))
		}
		fatal(runErr)
	}

	if err := writeCSV(*outPath, sum.WriteCSV); err != nil {
		fatal(err)
	}
}

// runCheckDiff executes a mode "check_diff" sweep: every grid point's
// configuration is paired against its diff-mode base and the committed
// digests compared (see docs/checking.md). Exits 0 only when every
// pairing is identical and violation-free, so CI can gate on it.
func runCheckDiff(spec *sweep.Spec, outPath string, parallel int, dryRun, progress, metrics bool, metricsAddr string, logger *slog.Logger) {
	units, err := spec.ExpandDiff()
	if err != nil {
		fatal(err)
	}
	if dryRun {
		for _, u := range units {
			fmt.Println(u.Label)
		}
		fmt.Fprintf(os.Stderr, "rfpsweep: %d diff units\n", len(units))
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx = obs.WithLogger(ctx, logger)

	m := &sweep.Metrics{}
	defer serveMetrics(metricsAddr, m, logger)()

	var progressW io.Writer
	if progress {
		progressW = os.Stderr
	}
	sum, runErr := sweep.RunCheckDiff(ctx, units, parallel, m, progressW)
	if metrics && sum != nil {
		m.WritePrometheus(os.Stderr)
	}
	if runErr != nil {
		fatal(runErr)
	}

	if err := writeCSV(outPath, sum.WriteCSV); err != nil {
		fatal(err)
	}
	if !sum.Clean() {
		fatal(fmt.Errorf("check_diff found divergence or invariant violations (see output above)"))
	}
}

// registerTraces makes the listed .rfpt files resolvable as
// "trace:<sha256>" workload entries: into the local store for in-process
// sweeps, or via POST /v1/traces to every endpoint for fleet sweeps (each
// daemon validates and content-addresses the bytes itself, so a re-upload
// of already-known bytes is a free dedup). The logged addresses are what
// the spec's workloads list should reference.
func registerTraces(list string, urls []string, store *service.TraceStore, logger *slog.Logger) error {
	if list == "" {
		return nil
	}
	for _, path := range strings.Split(list, ",") {
		path = strings.TrimSpace(path)
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if store != nil {
			info, dedup, err := store.Add(raw)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			logger.Info("trace registered", "file", path, "workload", info.Workload, "uops", info.Uops, "dedup", dedup)
			continue
		}
		for _, u := range urls {
			resp, err := http.Post(u+"/v1/traces", "application/octet-stream", bytes.NewReader(raw))
			if err != nil {
				return fmt.Errorf("uploading %s to %s: %w", path, u, err)
			}
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("uploading %s to %s: %s: %s", path, u, resp.Status, strings.TrimSpace(string(body)))
			}
			var up service.TraceUploadResponse
			if err := json.Unmarshal(body, &up); err != nil {
				return fmt.Errorf("uploading %s to %s: bad response: %w", path, u, err)
			}
			logger.Info("trace uploaded", "file", path, "endpoint", u, "workload", up.Workload, "uops", up.Uops, "dedup", up.Dedup)
		}
	}
	return nil
}

// serveMetrics serves m's live counters at http://addr/metrics while the
// sweep runs, from the same registry machinery rfpsimd uses; scraping it
// answers "is the sweep stuck or just slow" without touching the
// orchestrator. It returns the function that stops the server; an empty
// addr serves nothing.
func serveMetrics(addr string, m *sweep.Metrics, logger *slog.Logger) (stop func()) {
	if addr == "" {
		return func() {}
	}
	reg := obs.NewRegistry()
	reg.Register(m)
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	msrv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			logger.Error("metrics server failed", "addr", addr, "err", err.Error())
		}
	}()
	logger.Info("serving sweep metrics", "addr", addr)
	return func() { msrv.Close() }
}

// writeCSV writes one of the sweep's CSVs (the aggregate, the verdicts or
// the -timings breakdown) to the file at path, or to stdout when path is
// empty.
func writeCSV(path string, write func(io.Writer) error) error {
	if path == "" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "rfpsweep: %v\n", err)
	os.Exit(1)
}
