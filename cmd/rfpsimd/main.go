// Command rfpsimd is the long-running simulation daemon: it accepts
// simulation jobs over HTTP, runs them on a bounded worker pool with
// backpressure, caches results by content address, and exposes
// Prometheus-style metrics. Every request gets a run ID (echoed in the
// X-Rfpsimd-Run-Id response header) that correlates the response with all
// structured log lines the job produced; -pprof mounts the net/http/pprof
// endpoints and -profile-dir captures a per-job CPU profile. See
// docs/service.md for the API and docs/observability.md for the metrics,
// log fields and profiling endpoints.
//
// Usage:
//
//	rfpsimd [-addr :8080] [-workers N] [-queue N] [-tenant-queue N]
//	        [-cache N] [-cache-bytes N] [-cache-dir DIR] [-cache-max-bytes N]
//	        [-timeout 5m] [-maxuops N] [-drain 30s] [-http-timeout 2m]
//	        [-log-format text|json] [-log-level info] [-pprof]
//	        [-profile-dir DIR]
//
// -cache-dir enables the persistent disk result cache, which survives
// restarts. See docs/fabric.md.
//
// The daemon also serves an embedded browser console at /console/ —
// submit jobs, upload traces, watch queue and cache state live, render
// pipeline-trace diagrams. See docs/console.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rfpsim/internal/console"
	"rfpsim/internal/fabric"
	"rfpsim/internal/obs"
	"rfpsim/internal/service"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 0, "concurrent simulations (0 = NumCPU)")
		queue      = flag.Int("queue", 0, "queued-job bound before 429s (0 = 4x workers)")
		cache      = flag.Int("cache", 0, "result cache entries (0 = 4096)")
		timeout    = flag.Duration("timeout", 10*time.Minute, "default per-job timeout (0 = none)")
		maxUops    = flag.Uint64("maxuops", 0, "per-job uop ceiling, (warmup+measure)*seeds (0 = 50M)")
		drain      = flag.Duration("drain", 30*time.Second, "graceful shutdown deadline on SIGTERM/SIGINT")
		httpTO     = flag.Duration("http-timeout", 2*time.Minute, "read/idle timeout per HTTP connection (slowloris guard)")
		logFormat  = flag.String("log-format", "text", "structured log format: text or json")
		logLevel   = flag.String("log-level", "info", "log level: debug, info, warn or error")
		pprofOn    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (exposes internals; keep off on untrusted networks)")
		profileDir = flag.String("profile-dir", "", "capture a CPU profile per executed job into DIR/job-<runid>.pprof")

		cacheBytes  = flag.Int64("cache-bytes", 0, "in-memory result cache byte cap (0 = 256 MiB)")
		tenantQueue = flag.Int("tenant-queue", 0, "per-tenant queued-job bound before 429s (0 = -queue)")
		cacheDir    = flag.String("cache-dir", "", "persistent disk result cache directory (empty = disabled)")
		cacheMaxB   = flag.Int64("cache-max-bytes", 0, "disk cache size cap before LRU eviction (0 = 1 GiB)")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rfpsimd: %v\n", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)
	if *profileDir != "" {
		if err := os.MkdirAll(*profileDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "rfpsimd: -profile-dir: %v\n", err)
			os.Exit(2)
		}
	}

	svc, err := service.New(service.Options{
		Workers:          *workers,
		QueueDepth:       *queue,
		TenantQueueDepth: *tenantQueue,
		CacheEntries:     *cache,
		CacheBytes:       *cacheBytes,
		MaxJobUops:       *maxUops,
		DefaultTimeout:   *timeout,
		Logger:           logger,
		CPUProfileDir:    *profileDir,
		Fabric:           fabric.Options{Dir: *cacheDir, MaxBytes: *cacheMaxB},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rfpsimd: %v\n", err)
		os.Exit(2)
	}
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	console.Mount(mux, svc, console.Options{Logger: logger})
	if *pprofOn {
		obs.RegisterPprof(mux)
	}

	// A slow or stalled client must not hold a connection (and its
	// handler goroutine) forever: bound header parsing tightly and body
	// reads/idle keep-alives by -http-timeout. WriteTimeout is deliberately
	// left unset — it would start ticking while a legitimate multi-minute
	// simulation is still running; the per-job -timeout bounds that side.
	headerTO := 15 * time.Second
	if *httpTO > 0 && *httpTO < headerTO {
		headerTO = *httpTO
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: headerTO,
		ReadTimeout:       *httpTO,
		IdleTimeout:       *httpTO,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("rfpsimd listening", "addr", *addr, "pprof", *pprofOn)

	select {
	case err := <-errc:
		logger.Error("rfpsimd serve failed", "err", err.Error())
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting connections, let in-flight handlers
	// (and the jobs they wait on) finish within the deadline, then stop
	// the worker pool.
	logger.Info("rfpsimd draining", "deadline", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Error("rfpsimd shutdown", "err", err.Error())
	}
	svc.Close()
	logger.Info("rfpsimd drained")
}
