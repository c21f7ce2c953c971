package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"perturb/internal/cache"
	"perturb/internal/cancel"
	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/obs"
	"perturb/internal/trace"
)

// The request pipeline. Every analyze request, batch or streamed, passes
// the same four stages:
//
//   - entry: method and drain checks, then the request deadline (also
//     cut by a forced shutdown) and the request's self-trace scope;
//   - query: options, calibration and window geometry, parsed before
//     admission so a malformed query is a 400 at any load;
//   - engine: batch (buffer and verify the upload, resolve its content
//     address, then serve the resident result or join the one flight
//     that admits, analyzes and encodes) or streamed (admit, feed the
//     incremental engine while hashing the upload, verify at EOF,
//     close);
//   - respond: the JSON or NDJSON success body, or one error → status
//     mapping for every engine (fail).
//
// Panics anywhere in a request, or in a flight on its own goroutine, are
// confined by guard.

// Request spans: each phase and wait feeds its histogram on /metrics
// (server.decode_ns, ...) and, with a Recorder, the self-trace. A phase
// stays open across a wait in it: server.lookup includes server.flight,
// and server.admission includes server.queue.
var (
	spAdmission = obs.NewSpan("server.admission")
	spDecode    = obs.NewSpan("server.decode")
	spLookup    = obs.NewSpan("server.lookup")
	spAnalyze   = obs.NewSpan("server.analyze")
	spEncode    = obs.NewSpan("server.encode")
	spStream    = obs.NewSpan("server.stream")
	spClose     = obs.NewSpan("server.close")
	spWindow    = obs.NewSpan("server.window")
	spQueue     = obs.NewSpan("server.queue")
	spFlight    = obs.NewSpan("server.flight")
	spDrain     = obs.NewSpan("server.drain")
)

// httpError is a request failure that carries its status, whether it
// counts as shed, and a machine-readable code for errors whose remedy
// differs from the status's default. Every other failure is a cancel
// sentinel from the request's deadline or disconnect, or an analysis
// error (422).
type httpError struct {
	status int
	shed   bool
	code   string
	msg    string
}

// The pipeline's fixed failures.
var (
	errDraining     = &httpError{status: http.StatusServiceUnavailable, shed: true, msg: "server is draining"}
	errAtCapacity   = &httpError{status: http.StatusTooManyRequests, shed: true, msg: "server at capacity, retry later"}
	errQueueTimeout = &httpError{status: http.StatusServiceUnavailable, shed: true, msg: "timed out waiting for an analysis slot"}
	errInternal     = &httpError{status: http.StatusInternalServerError, msg: "internal error during analysis"}
)

func (e *httpError) Error() string { return e.msg }

func errStatus(status int, format string, args ...any) error {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

// request is one analyze request on its way through the pipeline.
type request struct {
	w      http.ResponseWriter
	r      *http.Request
	stream bool // /v1/analyze/stream: NDJSON windows, then a final line
	sc     *obs.Scope
	line   requestLogLine

	query // the query stage's result

	// enc is set once NDJSON output has begun (the 200 is on the wire);
	// windows counts the window lines written.
	enc     *json.Encoder
	windows int
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) { s.serve(w, r, false) }

func (s *Server) handleAnalyzeStream(w http.ResponseWriter, r *http.Request) {
	cStreams.Add(1)
	s.serve(w, r, true)
}

// serve runs one request through the pipeline and writes its log line.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, stream bool) {
	cRequests.Add(1)
	start := time.Now()
	q := &request{w: w, r: r, stream: stream, line: requestLogLine{
		TraceID: requestTraceID(r),
		Attempt: r.Header.Get(attemptHeader),
		Method:  r.Method,
		Path:    r.URL.Path,
	}}
	w.Header().Set(traceIDHeader, q.line.TraceID)
	if err := s.guard(r.URL.Path, func() error { return s.pipeline(q) }); err != nil {
		s.fail(q, err)
	} else {
		cOK.Add(1)
		q.line.Status = http.StatusOK
	}
	q.line.LatencyNS = time.Since(start).Nanoseconds()
	s.logRequest(q.line)
}

// pipeline runs the entry, query and engine stages; the engine writes the
// success response, and serve maps any error.
func (s *Server) pipeline(q *request) error {
	if q.r.Method != http.MethodPost {
		q.w.Header().Set("Allow", http.MethodPost)
		return errStatus(http.StatusMethodNotAllowed, "POST a trace to %s", q.r.URL.Path)
	}
	if s.draining.Load() {
		return errDraining
	}
	ctx, cancelReq := context.WithTimeout(q.r.Context(), s.cfg.RequestTimeout)
	defer cancelReq()
	defer context.AfterFunc(s.forceCtx, cancelReq)()
	// The request's span timeline: one processor slot in the self-trace.
	q.sc = s.cfg.Recorder.Begin()
	defer q.sc.End()
	q.sc.Phase(spAdmission)

	var err error
	if q.query, err = parseQuery(q.r.URL.Query(), q.stream); err != nil {
		return errStatus(http.StatusBadRequest, "%v", err)
	}
	// A batch upload declaring more bytes than the memory budget is never
	// buffered: it streams through the LowMemory engine instead. Uploads
	// of unknown length take the batch engine, where MaxBodyBytes caps
	// them.
	overBudget := !q.stream && s.cfg.MemoryBudgetBytes > 0 && q.r.ContentLength > s.cfg.MemoryBudgetBytes
	if overBudget && q.opts.Repair {
		// Repair needs the complete trace in memory — precisely what the
		// budget forbids. Be honest instead of OOMing.
		return errStatus(http.StatusRequestEntityTooLarge,
			"repair needs the full trace buffered, and this upload (%d bytes) exceeds the memory budget (%d bytes): retry without repair=1 or raise -memory-budget",
			q.r.ContentLength, s.cfg.MemoryBudgetBytes)
	}
	q.r.Body = http.MaxBytesReader(q.w, q.r.Body, s.cfg.MaxBodyBytes)
	if q.stream || overBudget {
		q.line.Cache = "bypass"
		return s.streamed(ctx, q)
	}
	return s.batch(ctx, q)
}

// guard runs f and confines a panic in it to the one request: the panic
// is counted, logged with its stack, and returned as errInternal. Batch
// flights run under their own guard, since a cached flight runs on a
// goroutine of its own where a panic would take down the process.
func (s *Server) guard(path string, f func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			cPanics.Add(1)
			s.cfg.Logger.Printf("perturbd: panic serving %s: %v\n%s", path, p, debug.Stack())
			err = errInternal
		}
	}()
	return f()
}

// admit takes an admission slot, shedding with errAtCapacity when the
// running set and the queue are both full (a client retry later beats a
// goroutine pileup here), then waits in the queue for a running slot
// until ctx ends (errQueueTimeout). The queue wait is a server.queue
// interval, which the self-trace exports as an advance/await pair. An
// admitted caller must release.
func (s *Server) admit(ctx context.Context, sc *obs.Scope) error {
	select {
	case s.slots <- struct{}{}:
	default:
		return errAtCapacity
	}
	defer sc.Wait(spQueue).End()
	select {
	case s.running <- struct{}{}:
		return nil
	case <-ctx.Done():
		<-s.slots
		return errQueueTimeout
	}
}

func (s *Server) release() {
	<-s.running
	<-s.slots
}

// fail is the respond stage of a failed request: status-carrying errors
// keep theirs, cancellations map here, and shed, deadline and canceled
// requests are counted here. Every 429 and 503 carries Retry-After. Once
// NDJSON output has begun the 200 is already on the wire, so the failure
// becomes an in-band error line.
func (s *Server) fail(q *request, err error) {
	var he *httpError
	status := http.StatusUnprocessableEntity
	switch {
	case errors.As(err, &he):
		status = he.status
		if he.shed {
			cShed.Add(1)
		}
	case errors.Is(err, cancel.ErrDeadlineExceeded):
		status = http.StatusGatewayTimeout
		cDeadline.Add(1)
	case errors.Is(err, cancel.ErrCanceled):
		status = http.StatusServiceUnavailable
		cCanceled.Add(1)
	}
	q.line.Status = status
	if q.enc != nil {
		q.emit(streamLine{Error: err.Error()})
		return
	}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		q.w.Header().Set("Retry-After", s.retryAfter())
	}
	body := errorBody{APIVersion: APIVersion, Error: err.Error()}
	if he != nil {
		body.Code = he.code
	}
	writeJSON(q.w, status, body)
}

// retryAfter estimates how long a shed client should back off: roughly one
// request timeout's worth of queue turnover, floored at one second.
func (s *Server) retryAfter() string {
	d := s.cfg.RequestTimeout / 4
	if d < time.Second {
		d = time.Second
	}
	return strconv.Itoa(int(d / time.Second))
}

// batch is the buffered engine. Its decode phase reads and verifies the
// upload and resolves its content address: the wire-byte alias of a
// repeat of the exact same bytes, else the hash of the decoded events.
// Its lookup phase serves a resident result or joins the one flight
// analyzing this content address. With the cache off every lookup misses
// on the nil cache, the flight runs inline, and the response carries no
// cache fields.
func (s *Server) batch(ctx context.Context, q *request) error {
	if s.cache == nil {
		q.line.Cache = "off"
	}
	q.sc.Phase(spDecode)
	// A bytes.Buffer doubles as it fills where io.ReadAll grows by about
	// a quarter: a 400 KB upload allocates 1 MB instead of 2 MB.
	var body bytes.Buffer
	if _, err := body.ReadFrom(q.r.Body); err != nil {
		return readError(ctx, err)
	}
	raw := body.Bytes()
	// One hash per upload verifies the client's checksum and keys the
	// wire-byte alias. The checksum goes first: transit damage to the
	// codec magic is a retryable mismatch, not a terminal 415.
	wire := bodySHA(raw)
	if err := verifyContentSHA(q.r, wire); err != nil {
		return err
	}
	if err := checkTraceContentType(q.r.Header.Get("Content-Type"), raw); err != nil {
		return err
	}
	var tr *trace.Trace
	var err error
	inputSHA, aliased := s.cache.Alias(wire)
	if !aliased {
		if tr, err = decodeTrace(ctx, raw); err != nil {
			return readError(ctx, err)
		}
		if s.cache != nil {
			if inputSHA, err = cache.TraceSHA256(tr); err != nil {
				return err
			}
			s.cache.PutAlias(wire, inputSHA)
		}
	}

	q.sc.Phase(spLookup)
	key := cache.KeyFromTraceSHA(inputSHA, q.cal, q.opts)
	if v, hit := s.cache.Get(key); hit {
		q.line.Cache = "hit"
		s.respondBatch(q, v, true)
		return nil
	}
	if tr == nil { // the alias outlived the result it led to
		q.sc.Phase(spDecode)
		if tr, err = decodeTrace(ctx, raw); err != nil {
			return readError(ctx, err)
		}
		q.sc.Phase(spLookup)
	}

	// The singleflight wait is a server.flight interval, exported as an
	// advance/await pair: the flight has its own processor timeline, while
	// this request — leader and followers alike — waits for its advance.
	fw := q.sc.Wait(spFlight)
	cal, opts, path := q.cal, q.opts, q.r.URL.Path
	v, cached, err := s.cache.Do(ctx, key, responseSize, func(fctx context.Context) (v any, err error) {
		err = s.guard(path, func() error {
			v, err = s.flight(fctx, tr, cal, opts, inputSHA)
			return err
		})
		return v, err
	})
	fw.End()
	if err != nil {
		return err
	}
	if s.cache != nil {
		q.line.Cache = "miss"
		if cached {
			q.line.Cache = "coalesced"
		}
	}
	s.respondBatch(q, v, cached)
	return nil
}

// responseSize reports a cached response's budget charge: its encoded
// JSON length.
func responseSize(v any) int64 {
	b, err := json.Marshal(v)
	if err != nil {
		return 1024 // unreachable for a Response; charge something sane
	}
	return int64(len(b))
}

// flight is the one analysis behind a cache key: admission, analysis and
// encoding on the flight's own self-trace timeline. The analysis leaves
// its trace uncollected, since the response reads it only to hash it:
// the encode phase runs the canonical merge straight into the
// fingerprint. Admission is held only here, so cache hits and coalesced
// followers never take a slot; the flight context stays live while any
// coalesced request still waits, so a queued analysis keeps its place
// even if the request that started it gives up.
func (s *Server) flight(ctx context.Context, tr *trace.Trace, cal instr.Calibration, opts core.Options, inputSHA string) (*Response, error) {
	sc := s.cfg.Recorder.Begin()
	defer sc.End()
	sc.Phase(spAdmission)
	if err := s.admit(ctx, sc); err != nil {
		return nil, err
	}
	defer s.release()
	sc.Phase(spAnalyze)
	analyzeFn := core.AnalyzeUncollected
	if s.hookAnalyze != nil {
		analyzeFn = s.hookAnalyze
	}
	approx, err := analyzeFn(ctx, tr, cal, opts)
	if err != nil {
		return nil, fmt.Errorf("analysis failed: %w", err)
	}
	sc.Phase(spEncode)
	resp, err := BuildResponse(approx)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errInternal, err)
	}
	resp.InputSHA256 = inputSHA
	return resp, nil
}

// respondBatch writes a batch result. The shallow copy keeps the
// per-request cached flag off the shared resident value; with the cache
// off the flag is left out of the wire format altogether.
func (s *Server) respondBatch(q *request, v any, cached bool) {
	q.sc.Phase(spEncode)
	resp := *v.(*Response)
	if s.cache != nil {
		resp.Cached = &cached
	}
	writeJSON(q.w, http.StatusOK, &resp)
}

// readError classifies a failure reading or decoding the upload: past
// the body cap it is a 413, with the request's deadline or disconnect it
// is that cancellation, and otherwise the trace is malformed (400).
func readError(ctx context.Context, err error) error {
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return errStatus(http.StatusRequestEntityTooLarge, "trace body exceeds %d bytes", tooBig.Limit)
	case ctx.Err() != nil:
		return fmt.Errorf("reading trace: %w", cancel.Err(ctx))
	default:
		return errStatus(http.StatusBadRequest, "reading trace: %v", err)
	}
}

// decodeTrace decodes a buffered upload in any trace codec.
func decodeTrace(ctx context.Context, raw []byte) (*trace.Trace, error) {
	tr, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	return trace.ReadAllContext(ctx, tr)
}

// verifyContentSHA checks an upload's hex SHA-256 against its
// X-Perturb-Content-SHA256, when the client sent one. A mismatch is a 400
// with the checksum_mismatch code, which clients retry.
func verifyContentSHA(r *http.Request, got string) error {
	want := r.Header.Get(contentSHAHeader)
	if want == "" || strings.EqualFold(got, want) {
		return nil
	}
	cChecksum.Add(1)
	return &httpError{
		status: http.StatusBadRequest,
		code:   errCodeChecksumMismatch,
		msg:    fmt.Sprintf("request body checksum mismatch (got sha256 %s, header said %s): upload damaged in transit, resend", got, want),
	}
}

// sniffLen is how many leading body bytes the content-type check peeks
// at: enough for either binary magic and a useful prefix of the text
// header.
const sniffLen = 32

// checkTraceContentType verifies a request's declared Content-Type
// against the body's sniffed codec magic. Undeclared bodies, the generic
// application/octet-stream, and non-trace types (curl's default form
// encoding, say) all pass — the codec is authoritative either way, read
// from the bytes. But a declared *trace* type that contradicts the magic
// is a client bug worth rejecting loudly (415) instead of silently
// analyzing something other than what the client labeled.
func checkTraceContentType(declared string, prefix []byte) error {
	ct := declared
	if i := strings.Index(ct, ";"); i >= 0 {
		ct = ct[:i]
	}
	ct = strings.TrimSpace(ct)
	if !trace.IsTraceContentType(ct) {
		return nil
	}
	if actual := trace.SniffContentType(prefix); actual != "" && actual != ct {
		return errStatus(http.StatusUnsupportedMediaType,
			"declared Content-Type %s does not match the body (%s by codec magic)", ct, actual)
	}
	return nil
}
