// Command perturbd serves the perturbation analysis over HTTP.
//
// Usage:
//
//	perturbd [-addr A] [-max-concurrency N] [-queue N] [-timeout D]
//	         [-drain-timeout D] [-max-body N] [-cache-bytes N] [-debug-addr A]
//	         [-selftrace FILE] [-request-log FILE] [-version]
//
// POST a trace (any codec, auto-detected) to /v1/analyze and the response
// is the approximation as JSON; query parameters select the analysis (see
// the README's "Running as a service" and docs/http-api.md). POST to
// /v1/analyze/stream and windowed results stream back as NDJSON while the
// upload is still in flight, closing with the batch-identical summary.
// /healthz reports liveness, /readyz readiness. -debug-addr serves expvar
// and pprof on a second listener, including the server.* admission
// counters and the cache.* hit/miss/eviction counters.
//
// Results are cached content-addressed (-cache-bytes budget, default
// 256 MiB; 0 disables): a re-upload of an already-analyzed trace with the
// same analysis parameters is served from memory, concurrent identical
// uploads coalesce onto one analysis, and cached responses carry
// "cached": true plus the input's content address as input_sha256. With
// the cache disabled the wire format is exactly the pre-cache one.
//
// Load beyond -max-concurrency running plus -queue waiting requests is
// shed with 429 and a Retry-After hint. SIGTERM or SIGINT drains: the
// listener closes, in-flight analyses get -drain-timeout to finish and
// are then cancelled cooperatively; the process exits 0 on a clean or
// forced drain.
//
// The service can trace itself: with -selftrace FILE every request's
// phases, queue waits and singleflight waits are recorded as spans and
// written at shutdown as an event trace in the columnar codec — a trace
// `perturb -load` analyzes like any other subject program. The live
// recorder is also downloadable from /debug/selftrace on the service
// address. /metrics serves the telemetry snapshot in the Prometheus text
// exposition format, including a latency histogram for every request
// phase and wait (perturb_server_decode_ns, ...), with or without
// -selftrace; -request-log FILE ("-" for stderr) writes one JSON line per
// request with trace id, status, cache outcome and latency.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"perturb"
	"perturb/internal/buildinfo"
	"perturb/internal/obs"
	"perturb/internal/selftrace"
	"perturb/internal/server"
)

type options struct {
	addr         string
	maxConc      int
	queue        int
	timeout      time.Duration
	drainTimeout time.Duration
	maxBody      int64
	memoryBudget int64
	cacheBytes   int64
	debugAddr    string
	selftrace    string
	requestLog   string
	version      bool
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perturbd: ")

	var o options
	flag.StringVar(&o.addr, "addr", "localhost:7077", "listen address for the analysis service")
	flag.IntVar(&o.maxConc, "max-concurrency", 0, "analyses running at once (0 = GOMAXPROCS)")
	flag.IntVar(&o.queue, "queue", 0, "admitted requests that may wait for a slot (0 = 2×max-concurrency)")
	flag.DurationVar(&o.timeout, "timeout", 30*time.Second, "per-request deadline, body read included")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 10*time.Second, "grace period for in-flight requests on shutdown")
	flag.Int64Var(&o.maxBody, "max-body", 64<<20, "largest accepted trace body in bytes")
	flag.Int64Var(&o.memoryBudget, "memory-budget", 0, "uploads larger than this run the low-memory streaming engine and return a summary-only degraded result (0 = never degrade)")
	flag.Int64Var(&o.cacheBytes, "cache-bytes", server.DefaultCacheBytes, "result cache budget in bytes (0 disables caching)")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "serve expvar and pprof on this address (e.g. localhost:6060)")
	flag.StringVar(&o.selftrace, "selftrace", "", "record request spans and write them as a columnar event trace to this file at shutdown")
	flag.StringVar(&o.requestLog, "request-log", "", "write one JSON line per request to this file (\"-\" = stderr)")
	flag.BoolVar(&o.version, "version", false, "print build and version information and exit")
	flag.Parse()

	if o.version {
		buildinfo.Resolve().Print(os.Stdout, "perturbd")
		return
	}

	if err := validateOptions(o, flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "perturbd: %v\n\n", err)
		flag.Usage()
		os.Exit(2)
	}

	if err := run(o); err != nil {
		log.Fatal(err)
	}
}

// validateOptions rejects unusable flag combinations before any socket is
// opened; main reports the error with usage and exits non-zero.
func validateOptions(o options, args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments: %s", strings.Join(args, " "))
	}
	if o.addr == "" {
		return fmt.Errorf("-addr must name a listen address")
	}
	if _, _, err := net.SplitHostPort(o.addr); err != nil {
		return fmt.Errorf("-addr %q is not host:port: %v", o.addr, err)
	}
	if o.maxConc < 0 {
		return fmt.Errorf("-max-concurrency must be >= 0 (0 = GOMAXPROCS), got %d", o.maxConc)
	}
	if o.queue < 0 {
		return fmt.Errorf("-queue must be >= 0 (0 = 2×max-concurrency), got %d", o.queue)
	}
	if o.timeout <= 0 {
		return fmt.Errorf("-timeout must be positive, got %v", o.timeout)
	}
	if o.drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout must be positive, got %v", o.drainTimeout)
	}
	if o.maxBody <= 0 {
		return fmt.Errorf("-max-body must be positive, got %d", o.maxBody)
	}
	if o.memoryBudget < 0 {
		return fmt.Errorf("-memory-budget must be >= 0 (0 = never degrade), got %d", o.memoryBudget)
	}
	if o.cacheBytes < 0 {
		return fmt.Errorf("-cache-bytes must be >= 0 (0 disables caching), got %d", o.cacheBytes)
	}
	if o.debugAddr != "" {
		if _, _, err := net.SplitHostPort(o.debugAddr); err != nil {
			return fmt.Errorf("-debug-addr %q is not host:port: %v", o.debugAddr, err)
		}
	}
	return nil
}

func run(o options) error {
	// /metrics renders the obs snapshot, so the service always records
	// its own telemetry (the gated-counter overhead is within the obs
	// budget and changes no response bytes).
	perturb.EnableObservability(true)
	if o.debugAddr != "" {
		d, err := perturb.ServeDebug(o.debugAddr)
		if err != nil {
			return err
		}
		defer d.Close()
		log.Printf("debug server on http://%s/debug/vars (pprof under /debug/pprof/)", d.Addr())
	}

	var recorder *obs.Recorder
	if o.selftrace != "" {
		recorder = obs.NewRecorder(0)
	}
	var requestLog io.Writer
	switch o.requestLog {
	case "":
	case "-":
		requestLog = os.Stderr
	default:
		f, err := os.Create(o.requestLog)
		if err != nil {
			return err
		}
		defer f.Close()
		requestLog = f
	}

	// Flag semantics: 0 disables the cache. Config semantics: 0 means the
	// default budget, negative disables — so the flag's 0 maps to -1.
	cacheBytes := o.cacheBytes
	if cacheBytes == 0 {
		cacheBytes = -1
	}
	srv := server.New(server.Config{
		MaxConcurrency:    o.maxConc,
		QueueDepth:        o.queue,
		RequestTimeout:    o.timeout,
		MaxBodyBytes:      o.maxBody,
		MemoryBudgetBytes: o.memoryBudget,
		CacheBytes:        cacheBytes,
		Logger:            log.Default(),
		Recorder:          recorder,
		RequestLog:        requestLog,
	})

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	log.Printf("serving analysis on http://%s/v1/analyze (streaming at /v1/analyze/stream)", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		log.Printf("received %v, draining (grace %v)", s, o.drainTimeout)
	case err := <-serveErr:
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	forced, err := srv.Shutdown(ctx)
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	<-serveErr
	if forced {
		log.Print("drain deadline passed, in-flight requests cancelled")
	} else {
		log.Print("drained cleanly")
	}
	if recorder != nil {
		if err := selftrace.WriteFile(recorder, o.selftrace); err != nil {
			return fmt.Errorf("writing self-trace: %w", err)
		}
		log.Printf("self-trace written to %s (%d procs, %d dropped)",
			o.selftrace, recorder.Procs(), recorder.Dropped())
	}
	return nil
}
