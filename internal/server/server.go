// Package server implements perturbd, an HTTP analysis service over the
// perturbation pipeline. A request POSTs a trace in any codec to
// /v1/analyze and gets the approximation back as JSON, or to
// /v1/analyze/stream and gets windowed results back as NDJSON while the
// upload is still in flight, closed by the batch-identical summary. See
// docs/http-api.md for the wire contract. Every request phase and wait
// is an obs span (pipeline.go), so /metrics carries their latency
// histograms and an attached Recorder their self-trace.
//
// The service is built to degrade rather than fall over: a fixed number of
// analyses run concurrently, a short queue absorbs bursts, and anything
// beyond that is shed immediately with 429 + Retry-After instead of piling
// up goroutines. Each request runs under a deadline and is cancelled
// cooperatively through the analysis stack when the client disconnects. A
// panic in one analysis is confined to that request. Shutdown drains:
// the listener closes, /readyz flips to 503, in-flight requests get a
// grace period and are then force-cancelled.
//
// The analysis is deterministic, so results are content-addressed: by
// default a byte-bounded LRU caches finished responses keyed on the
// decoded trace plus every result-affecting option (see internal/cache),
// and concurrent identical uploads coalesce onto a single analysis
// (singleflight). Cache hits bypass admission control entirely — they
// cost a decode plus a hash, never an analysis slot. Config.CacheBytes < 0
// disables the cache and keeps the pre-cache wire format; the request
// runs through the same pipeline over an always-miss cache, so it has no
// admission order of its own (see pipeline.go).
package server

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"perturb/internal/buildinfo"
	"perturb/internal/cache"
	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/obs"
	"perturb/internal/selftrace"
	"perturb/internal/trace"
)

// Service telemetry, visible on the obs debug mux alongside the analysis
// pipeline's own stats.
var (
	cRequests = obs.NewCounter("server.requests")
	cShed     = obs.NewCounter("server.shed")
	cOK       = obs.NewCounter("server.ok")
	cDeadline = obs.NewCounter("server.deadline")
	cCanceled = obs.NewCounter("server.canceled")
	cPanics   = obs.NewCounter("server.panics")
)

// Config sizes the service. The zero value is usable: New fills in
// defaults.
type Config struct {
	// MaxConcurrency caps analyses running simultaneously. Default:
	// GOMAXPROCS.
	MaxConcurrency int
	// QueueDepth is how many admitted requests may wait for a slot beyond
	// those running. Requests past running+queued are shed with 429.
	// Default: 2×MaxConcurrency.
	QueueDepth int
	// RequestTimeout bounds a single request end to end, body read
	// included. Default: 30s.
	RequestTimeout time.Duration
	// MaxBodyBytes caps the request body; larger uploads get 413.
	// Default: 64 MiB.
	MaxBodyBytes int64
	// CacheBytes budgets the content-addressed result cache. 0 (the
	// zero value) selects DefaultCacheBytes; a negative value disables
	// caching entirely, reproducing the pre-cache wire format byte for
	// byte.
	CacheBytes int64
	// MemoryBudgetBytes, when positive, is the largest upload the
	// service will buffer in memory. Batch /v1/analyze requests declaring a
	// larger Content-Length (but still within MaxBodyBytes) degrade
	// gracefully: they stream through the LowMemory incremental engine
	// and return a summary-only response flagged "degraded": true,
	// instead of 413 or an OOM. 0 disables degradation.
	MemoryBudgetBytes int64
	// Logger receives request errors and panic stacks. Default: the
	// standard logger.
	Logger *log.Logger
	// Recorder, when non-nil, records request-scoped spans (phases,
	// queue and singleflight waits, the shutdown drain) for export as an
	// analyzable event trace; it also mounts /debug/selftrace on the
	// service mux. See internal/obs and internal/selftrace.
	Recorder *obs.Recorder
	// RequestLog, when non-nil, receives one structured JSON line per
	// analyze request: trace id, endpoint, status, cache outcome, and
	// latency. Writes are serialized by the server.
	RequestLog io.Writer
}

// DefaultCacheBytes is the result-cache budget a zero Config gets. A
// cached response is a few hundred bytes, so the default admits on the
// order of a million distinct results.
const DefaultCacheBytes = 256 << 20

// Server is the perturbd HTTP service. Create with New, serve with Serve,
// stop with Shutdown.
type Server struct {
	cfg Config

	// slots admits requests into the service: capacity is
	// MaxConcurrency+QueueDepth, so a failed non-blocking acquire means
	// both the running set and the queue are full and the request is shed.
	// running is the inner concurrency gate admitted requests block on.
	slots   chan struct{}
	running chan struct{}

	draining atomic.Bool

	// degradedActive counts memory-budget degraded analyses currently
	// running; /readyz reports "degraded" while it is non-zero.
	degradedActive atomic.Int64

	// forceCtx is cancelled when Shutdown's grace period expires; every
	// request context is parented on it via context.AfterFunc so drain can
	// cut the long tail loose.
	forceCtx    context.Context
	forceCancel context.CancelFunc

	httpSrv *http.Server

	// cache holds finished responses content-addressed by the decoded
	// trace and analysis options; nil when Config.CacheBytes < 0.
	cache *cache.Cache

	// version is the single-token build version shown in /healthz and
	// the /metrics build_info labels.
	version string
	build   buildinfo.Info

	// logMu serializes Config.RequestLog writes so concurrent handlers
	// never interleave JSON lines.
	logMu sync.Mutex

	// hookAnalyze, when set, replaces core.AnalyzeContext. Tests use it to
	// park requests mid-analysis or panic on demand.
	hookAnalyze func(ctx context.Context, m *trace.Trace, cal instr.Calibration, opts core.Options) (*core.Approximation, error)
}

// New builds a Server from cfg, filling its zero fields with defaults.
func New(cfg Config) *Server {
	if cfg.MaxConcurrency <= 0 {
		cfg.MaxConcurrency = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 2 * cfg.MaxConcurrency
	}
	cfg.QueueDepth = max(cfg.QueueDepth, 0)
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.Logger == nil {
		cfg.Logger = log.Default()
	}
	s := &Server{
		cfg:     cfg,
		slots:   make(chan struct{}, cfg.MaxConcurrency+cfg.QueueDepth),
		running: make(chan struct{}, cfg.MaxConcurrency),
		cache:   cache.New(cfg.CacheBytes), // nil, always missing, when disabled
	}
	s.forceCtx, s.forceCancel = context.WithCancel(context.Background())
	s.build = buildinfo.Resolve()
	s.version = s.build.Short()

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/analyze", s.handleAnalyze)
	mux.HandleFunc("/v1/analyze/stream", s.handleAnalyzeStream)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	if cfg.Recorder != nil {
		mux.Handle("/debug/selftrace", selftrace.Handler(cfg.Recorder))
	}
	s.httpSrv = &http.Server{
		Handler: mux,
		// The request deadline covers the body read, so the connection
		// read timeout only needs headroom past it; the header timeout
		// alone closes slowloris connections.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       cfg.RequestTimeout + 5*time.Second,
		IdleTimeout:       60 * time.Second,
		ErrorLog:          cfg.Logger,
	}
	return s
}

// Handler exposes the service mux, for in-process tests via httptest.
func (s *Server) Handler() http.Handler { return s.httpSrv.Handler }

// Serve accepts connections on ln until Shutdown. It returns nil after a
// clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	err := s.httpSrv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the service: the listener closes, readiness flips to
// not-ready, and in-flight requests get until ctx's deadline to finish.
// When the deadline passes, their contexts are force-cancelled and the
// cooperative cancellation in the analysis stack unwinds them; forced
// reports whether that was necessary.
func (s *Server) Shutdown(ctx context.Context) (forced bool, err error) {
	s.draining.Store(true)
	// The drain is a server.drain interval, recorded as a barrier in the
	// self-trace: every request processor arrives when the drain starts
	// and is released when the last in-flight request has unwound.
	defer s.cfg.Recorder.Drain(spDrain).End()
	err = s.httpSrv.Shutdown(ctx)
	if err == nil {
		return false, nil
	}
	// Grace period expired with requests still in flight: cut them loose
	// and give the handlers a moment to unwind and write their errors.
	s.forceCancel()
	final, cancelFinal := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelFinal()
	if err2 := s.httpSrv.Shutdown(final); err2 != nil {
		s.httpSrv.Close()
		return true, err2
	}
	return true, nil
}

// Inflight reports requests currently admitted (queued or running): the
// admission slots held.
func (s *Server) Inflight() int64 { return int64(len(s.slots)) }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness: the process is up and serving. Stays 200 while draining.
	// The first token stays "ok" for line-oriented probes; the build
	// version rides along for humans and fleet inventories.
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "ok version=%s\n", s.version)
}

// handleMetrics renders the obs snapshot in the Prometheus text
// exposition format, with a build_info gauge carrying the binary's
// version labels. Dependency-free: see obs.WriteProm.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WriteProm(w, obs.Snapshot(), &obs.BuildLabels{
		Version:   s.version,
		Revision:  s.build.Revision,
		GoVersion: s.build.GoVersion,
	})
}

// Request-tracing plumbing: every analyze request carries a trace id —
// the client's X-Perturb-Trace-Id when present (so retries, fleet
// failovers and hedges correlate across endpoints), freshly generated
// otherwise — which is echoed on the response and stamped on the
// structured request log line.
const (
	traceIDHeader = "X-Perturb-Trace-Id"
	attemptHeader = "X-Perturb-Attempt"
)

// End-to-end integrity headers. A network that corrupts bytes in flight
// produces requests that decode as garbage and responses that parse as
// the wrong numbers; checksums turn both into *detected, retryable*
// failures instead of silent wrong answers or spurious terminal 400s.
const (
	// contentSHAHeader carries the hex SHA-256 of the request body. When
	// present, the server verifies it (a buffered upload before decoding,
	// a streamed one at EOF) and rejects a mismatch with 400 + code
	// "checksum_mismatch" — which clients treat as retryable, since
	// resending is exactly the remedy for transit damage.
	contentSHAHeader = "X-Perturb-Content-SHA256"
	// bodySHAHeader carries the hex SHA-256 of the response's JSON body.
	// Clients verify it before decoding; a mismatch is a transport-grade
	// (retryable) failure.
	bodySHAHeader = "X-Perturb-Body-SHA256"
)

// errCodeChecksumMismatch is the machine-readable errorBody.Code for a
// request whose body hash contradicts its X-Perturb-Content-SHA256.
const errCodeChecksumMismatch = "checksum_mismatch"

// cChecksum counts uploads rejected for checksum mismatch — the
// /metrics signal that the network between clients and this box is
// damaging bytes.
var cChecksum = obs.NewCounter("server.checksum_mismatch")

// requestTraceID resolves (or mints) the request's trace id.
func requestTraceID(r *http.Request) string {
	if id := r.Header.Get(traceIDHeader); id != "" {
		return id
	}
	return NewTraceID()
}

// NewTraceID mints a random request trace id (16 hex characters). The
// client and the fleet use it to tag every wire attempt of one logical
// request with a shared X-Perturb-Trace-Id.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(b[:])
}

// requestLogLine is the structured log record written per request.
type requestLogLine struct {
	TraceID string `json:"trace_id"`
	Attempt string `json:"attempt,omitempty"`
	Method  string `json:"method"`
	Path    string `json:"path"`
	Status  int    `json:"status"`
	// Cache is the request's cache outcome: "hit" (resident), "miss"
	// (fresh analysis), "coalesced" (joined an in-flight analysis),
	// "off" (cache disabled), "bypass" (streams and memory-budget
	// uploads, which never touch the cache), or "" for requests turned
	// away before an engine ran (bad method or query, draining).
	Cache     string `json:"cache,omitempty"`
	LatencyNS int64  `json:"latency_ns"`
}

// logRequest writes one JSON line to Config.RequestLog, if configured.
func (s *Server) logRequest(line requestLogLine) {
	if s.cfg.RequestLog == nil {
		return
	}
	b, err := json.Marshal(line)
	if err != nil {
		return
	}
	b = append(b, '\n')
	s.logMu.Lock()
	s.cfg.RequestLog.Write(b)
	s.logMu.Unlock()
}

// readyzBody is the /readyz JSON: status is "ready", "degraded"
// (serving, but load balancers should weight traffic away) or
// "draining" (refusing new work, 503). Degraded is still 200 — the box
// works, it is just not a good place to send more load.
type readyzBody struct {
	APIVersion string `json:"api_version"`
	Status     string `json:"status"`
	// Detail lists why the status is degraded; empty otherwise.
	Detail []string `json:"detail,omitempty"`
	// QueueUsed/QueueCap describe the admission queue (running+queued
	// slots in use vs total).
	QueueUsed int `json:"queue_used"`
	QueueCap  int `json:"queue_cap"`
	// DegradedActive counts memory-budget degraded analyses in flight.
	DegradedActive int64 `json:"degraded_active,omitempty"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	body := readyzBody{
		APIVersion: APIVersion,
		Status:     "ready",
		QueueUsed:  len(s.slots),
		QueueCap:   cap(s.slots),
	}
	if s.draining.Load() {
		body.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	if body.QueueUsed >= body.QueueCap {
		body.Status = "degraded"
		body.Detail = append(body.Detail, "admission queue saturated: new requests are being shed with 429")
	}
	if n := s.degradedActive.Load(); n > 0 {
		body.Status = "degraded"
		body.DegradedActive = n
		body.Detail = append(body.Detail,
			fmt.Sprintf("memory-budget degradation active: %d oversized upload(s) running on the low-memory engine", n))
	}
	writeJSON(w, http.StatusOK, body)
}

// CacheStats reports the result cache's counters; ok is false when the
// cache is disabled.
func (s *Server) CacheStats() (st cache.Stats, ok bool) {
	if s.cache == nil {
		return cache.Stats{}, false
	}
	return s.cache.Stats(), true
}

// writeJSON renders v indented, stamping the body's SHA-256 on the
// response so clients can detect transit damage. The bytes written are
// exactly what the pre-hashing encoder produced — the hash rides in a
// header, never in the body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Unreachable for the wire types; fail loudly rather than hash
		// a half-encoded body.
		http.Error(w, "encoding response", http.StatusInternalServerError)
		return
	}
	w.Header().Set(bodySHAHeader, bodySHA(buf.Bytes()))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes())
}
