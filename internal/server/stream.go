package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime/debug"
	"strconv"
	"time"

	"perturb/internal/cancel"
	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/obs"
	"perturb/internal/trace"
)

var (
	cStreams = obs.NewCounter("server.streams")
	cWindows = obs.NewCounter("server.stream_windows")
)

// streamLine is one NDJSON line of a /v1/analyze/stream response. Exactly
// one of three shapes appears per line:
//
//   - {"window": {...}}                           — a finished window
//   - {"final": true, "windows": N, "result": {}} — the closing summary,
//     byte-for-byte the Response a batch /v1/analyze of the same events
//     would return (minus cache fields: streams are never cached)
//   - {"error": "..."}                            — analysis failed after
//     the stream started; always the last line
type streamLine struct {
	Window  *core.WindowResult `json:"window,omitempty"`
	Final   bool               `json:"final,omitempty"`
	Windows int                `json:"windows,omitempty"`
	Result  *Response          `json:"result,omitempty"`
	Error   string             `json:"error,omitempty"`
}

// streamBatchLen is how many events the stream handler reads from the
// request body per Feed: large enough to amortize the codec, small enough
// that windows surface promptly.
const streamBatchLen = 4096

// handleAnalyzeStream serves POST /v1/analyze/stream: the request body is
// a trace in any codec (typically a chunked upload of a live trace), and
// the response streams NDJSON — one line per finished window as the
// analysis catches up with the upload, then a final line with the
// cumulative Response. Admission control is the same as an uncached
// /v1/analyze: a stream holds an analysis slot for its whole life and is
// shed with 429 when the service is full. Streams bypass the result
// cache — their value is the windows, which a cached summary cannot
// replay.
func (s *Server) handleAnalyzeStream(w http.ResponseWriter, r *http.Request) {
	cRequests.Add(1)
	cStreams.Add(1)
	reqStart := time.Now()
	line := requestLogLine{
		TraceID: requestTraceID(r),
		Attempt: r.Header.Get(attemptHeader),
		Method:  r.Method,
		Path:    r.URL.Path,
	}
	w.Header().Set(traceIDHeader, line.TraceID)
	defer func() {
		line.LatencyNS = time.Since(reqStart).Nanoseconds()
		s.logRequest(line)
	}()

	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		line.Status = http.StatusMethodNotAllowed
		writeError(w, line.Status, "POST a trace to /v1/analyze/stream")
		return
	}
	if s.draining.Load() {
		w.Header().Set("Retry-After", s.retryAfter())
		line.Status = http.StatusServiceUnavailable
		writeError(w, line.Status, "server is draining")
		cShed.Add(1)
		return
	}

	sc := s.cfg.Recorder.Begin()
	defer sc.End()
	sc.Phase("admission")

	select {
	case s.slots <- struct{}{}:
		defer func() { <-s.slots }()
	default:
		w.Header().Set("Retry-After", s.retryAfter())
		line.Status = http.StatusTooManyRequests
		writeError(w, line.Status, "server at capacity, retry later")
		cShed.Add(1)
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	ctx, cancelReq := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancelReq()
	stop := context.AfterFunc(s.forceCtx, cancelReq)
	defer stop()

	qw := sc.Wait("queue")
	select {
	case s.running <- struct{}{}:
		qw.End()
		defer func() { <-s.running }()
	case <-ctx.Done():
		qw.End()
		w.Header().Set("Retry-After", s.retryAfter())
		line.Status = http.StatusServiceUnavailable
		writeError(w, line.Status, "timed out waiting for an analysis slot")
		cShed.Add(1)
		return
	}

	line.Status = s.analyzeStream(ctx, w, r, sc)
}

// analyzeStream runs one admitted streaming request and returns the
// status for the request log. Errors before the first output line get a
// proper HTTP status; once NDJSON is flowing the status is already 200 on
// the wire, so later failures are reported in-band as a final
// {"error": ...} line — exactly like a truncated batch response, but
// explicit.
func (s *Server) analyzeStream(ctx context.Context, w http.ResponseWriter, r *http.Request, sc *obs.Scope) (status int) {
	defer func() {
		if p := recover(); p != nil {
			cPanics.Add(1)
			s.cfg.Logger.Printf("perturbd: panic serving %s: %v\n%s", r.URL.Path, p, debug.Stack())
			status = http.StatusInternalServerError
		}
	}()

	opts, cal, window, slide, err := parseStreamQuery(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return http.StatusBadRequest
	}

	sc.Phase("decode")
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	br := bufio.NewReader(r.Body)
	prefix, _ := br.Peek(sniffLen)
	if cterr := checkTraceContentType(r.Header.Get("Content-Type"), prefix); cterr != nil {
		writeError(w, http.StatusUnsupportedMediaType, cterr.Error())
		return http.StatusUnsupportedMediaType
	}
	rd, err := trace.NewReader(br)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading trace: %v", err))
		return http.StatusBadRequest
	}
	sess, err := core.NewStream(cal, core.StreamOptions{
		Mode:   opts.Mode,
		Repair: opts.Repair,
		Procs:  rd.Procs(),
		Window: window,
		Slide:  slide,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("stream session: %v", err))
		return http.StatusBadRequest
	}
	// Deterministic teardown on every exit: a client that vanishes
	// mid-upload must not strand the session's watermark state, buffered
	// repair feed, or pending windows until some later GC — Abort frees
	// them before the handler returns (and with it the admission slots
	// held by the deferred releases upstream). After a clean Close this
	// only drops already-surrendered references.
	defer sess.Abort()

	// Window lines go out while the upload is still being read, which on
	// HTTP/1.x needs explicit full-duplex: by default the server closes
	// the request body once the response starts. Errors only if the
	// connection cannot support it (HTTP/2 always can; 1.1 keep-alive
	// can), in which case windows still stream — the body just cannot be
	// read past the first write, and chunked uploads should use HTTP/2.
	_ = http.NewResponseController(w).EnableFullDuplex()

	// From here on output is NDJSON; the header is written lazily so an
	// early failure (unreadable body, invalid events before any window)
	// still gets its real status code.
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	started := false
	windows := 0
	emit := func(l streamLine) {
		if !started {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			started = true
		}
		enc.Encode(l) // past WriteHeader, nothing useful to do on error
		if flusher != nil {
			flusher.Flush()
		}
	}
	fail := func(code int, msg string) int {
		if started {
			emit(streamLine{Error: msg})
			return code
		}
		writeError(w, code, msg)
		return code
	}

	sc.Phase("stream")
	batch := make([]trace.Event, streamBatchLen)
	for {
		n, rerr := rd.Read(batch)
		if n > 0 {
			if ferr := sess.Feed(ctx, batch[:n]); ferr != nil {
				return fail(streamErrStatus(ferr), fmt.Sprintf("analysis failed: %v", ferr))
			}
			for _, win := range sess.Windows() {
				sc.Phase("window")
				cWindows.Add(1)
				windows++
				win := win
				emit(streamLine{Window: &win})
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			// Distinguish the peer vanishing mid-upload (cancelled
			// context: the disconnect propagated) from a body that is
			// actually malformed — a reset connection is not a client bug.
			if ctx.Err() != nil {
				return fail(streamErrStatus(cancel.Err(ctx)), fmt.Sprintf("reading trace: %v", rerr))
			}
			var tooBig *http.MaxBytesError
			if errors.As(rerr, &tooBig) {
				return fail(http.StatusRequestEntityTooLarge, fmt.Sprintf("trace body exceeds %d bytes", tooBig.Limit))
			}
			return fail(http.StatusBadRequest, fmt.Sprintf("reading trace: %v", rerr))
		}
	}
	// The codec can hit EOF with framing bytes (a chunked-encoding
	// trailer) still unread; drain them now. Returning with a partially
	// read body on a full-duplex HTTP/1.x connection races the body
	// reader against the connection's next-request read.
	io.Copy(io.Discard, br)

	sc.Phase("close")
	approx, err := sess.Close(ctx)
	if err != nil {
		return fail(streamErrStatus(err), fmt.Sprintf("analysis failed: %v", err))
	}
	for _, win := range sess.Windows() {
		sc.Phase("window")
		cWindows.Add(1)
		windows++
		win := win
		emit(streamLine{Window: &win})
	}
	sc.Phase("encode")
	resp, err := BuildResponse(approx)
	if err != nil {
		return fail(http.StatusInternalServerError, err.Error())
	}
	emit(streamLine{Final: true, Windows: windows, Result: resp})
	cOK.Add(1)
	return http.StatusOK
}

// streamErrStatus maps a mid-stream analysis error onto the status an
// equivalent batch request would get.
func streamErrStatus(err error) int {
	switch {
	case errors.Is(err, cancel.ErrDeadlineExceeded):
		cDeadline.Add(1)
		return http.StatusGatewayTimeout
	case errors.Is(err, cancel.ErrCanceled):
		cCanceled.Add(1)
		return http.StatusServiceUnavailable
	default:
		return http.StatusUnprocessableEntity
	}
}

// parseStreamQuery extends parseQuery with the streaming-only window
// geometry:
//
//	window=N   window length on the measured-time axis, ns; 0 (default)
//	           means a single cumulative window emitted at the end
//	slide=N    window start spacing, ns; 0 means tumbling (slide=window)
//
// Like parseQuery, it validates and ignores the workers parameter.
func parseStreamQuery(q url.Values) (core.Options, instr.Calibration, trace.Time, trace.Time, error) {
	opts, cal, err := parseQuery(q)
	if err != nil {
		return opts, cal, 0, 0, err
	}
	geom := func(name string) (trace.Time, error) {
		v := q.Get(name)
		if v == "" {
			return 0, nil
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("bad %s %q (want a non-negative nanosecond count)", name, v)
		}
		return trace.Time(n), nil
	}
	window, err := geom("window")
	if err != nil {
		return opts, cal, 0, 0, err
	}
	slide, err := geom("slide")
	if err != nil {
		return opts, cal, 0, 0, err
	}
	return opts, cal, window, slide, nil
}
