package server

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"net/http"

	"perturb/internal/core"
	"perturb/internal/obs"
	"perturb/internal/trace"
)

var (
	cStreams = obs.NewCounter("server.streams")
	cWindows = obs.NewCounter("server.stream_windows")
	// Degradation telemetry: how often the memory budget rerouted an
	// upload, and how many degraded analyses are running right now.
	cDegraded       = obs.NewCounter("server.degraded")
	gDegradedActive = obs.NewGauge("server.degraded_active")
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

// streamBatchLen caps the events one Feed takes from the request body.
// Windows surface promptly whatever the cap: each Read hands over the
// events that have arrived without waiting for the batch to fill.
const streamBatchLen = 4096

// streamed is the incremental engine. It holds an analysis slot for the
// whole upload and feeds core.Stream as the body arrives, hashing the
// bytes on the way through, so the client's checksum is verified at EOF
// without buffering. The result cache is bypassed: it holds *Response
// values keyed by the hash of the decoded upload, which is known only
// once the whole upload has been read, and this engine analyzes the
// upload while it arrives. Close leaves the approximated trace
// uncollected, and the final line's fingerprint reads it from the
// engine's canonical merge.
//
// On /v1/analyze/stream it writes NDJSON windows while the upload is
// still in flight, then the batch-identical final line. A batch upload
// over the memory budget runs LowMemory instead — the OOM the budget
// exists to prevent is exactly what buffering would risk — and gets a
// summary-only response flagged "degraded".
func (s *Server) streamed(ctx context.Context, q *request) error {
	if err := s.admit(ctx, q.sc); err != nil {
		return err
	}
	defer s.release()
	if !q.stream {
		cDegraded.Add(1)
		s.degradedActive.Add(1)
		gDegradedActive.Add(1)
		defer func() {
			s.degradedActive.Add(-1)
			gDegradedActive.Add(-1)
		}()
	}

	q.sc.Phase(spDecode)
	var hasher hash.Hash
	body := io.Reader(q.r.Body)
	if q.r.Header.Get(contentSHAHeader) != "" {
		hasher = sha256.New()
		body = io.TeeReader(body, hasher)
	}
	br := bufio.NewReaderSize(body, 1<<16) // codec-sized: trace.NewReader reuses it
	prefix, _ := br.Peek(sniffLen)
	if err := checkTraceContentType(q.r.Header.Get("Content-Type"), prefix); err != nil {
		return err
	}
	rd, err := trace.NewReader(br)
	if err != nil {
		return readError(ctx, err)
	}
	sess, err := core.NewStream(q.cal, core.StreamOptions{
		Mode:      q.opts.Mode,
		Repair:    q.opts.Repair,
		LowMemory: !q.stream,
		Procs:     rd.Procs(),
		Window:    q.window,
		Slide:     q.slide,
	})
	if err != nil {
		return errStatus(http.StatusBadRequest, "stream session: %v", err)
	}
	// Deterministic teardown on every exit: a client that vanishes
	// mid-upload must not strand the session's watermark state, buffered
	// repair feed, or pending windows until some later GC — Abort frees
	// them before the admission slot is released. After a clean Close
	// this only drops already-surrendered references.
	defer sess.Abort()
	if q.stream {
		// Window lines go out while the upload is still being read, which
		// on HTTP/1.x needs explicit full-duplex: by default the server
		// closes the request body once the response starts. Errors only
		// if the connection cannot support it (HTTP/2 always can; 1.1
		// keep-alive can), in which case windows still stream — the body
		// just cannot be read past the first write.
		_ = http.NewResponseController(q.w).EnableFullDuplex()
	}

	q.sc.Phase(spStream)
	batch := make([]trace.Event, streamBatchLen)
	for {
		n, rerr := rd.Read(batch)
		if n > 0 {
			if err := sess.Feed(ctx, batch[:n]); err != nil {
				return fmt.Errorf("analysis failed: %w", err)
			}
			if q.emitWindows(sess) {
				q.sc.Phase(spStream) // back to reading the upload
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return readError(ctx, rerr)
		}
	}
	// The codec can hit EOF with framing bytes (a chunked-encoding
	// trailer) still unread; drain them so the hash covers the whole body
	// and, on a full-duplex HTTP/1.x connection, the body reader does not
	// race the connection's next-request read.
	if _, err := io.Copy(io.Discard, br); err != nil {
		return readError(ctx, err)
	}
	if hasher != nil {
		if err := verifyContentSHA(q.r, hex.EncodeToString(hasher.Sum(nil))); err != nil {
			return err
		}
	}

	q.sc.Phase(spClose)
	approx, err := sess.CloseUncollected(ctx)
	if err != nil {
		return fmt.Errorf("analysis failed: %w", err)
	}
	q.emitWindows(sess)
	q.sc.Phase(spEncode)
	if !q.stream {
		writeJSON(q.w, http.StatusOK, buildDegradedResponse(sess, approx))
		return nil
	}
	resp, err := BuildResponse(approx)
	if err != nil {
		return fmt.Errorf("%w: %v", errInternal, err)
	}
	q.emit(streamLine{Final: true, Windows: q.windows, Result: resp})
	return nil
}

// emitWindows writes the session's newly finished windows as NDJSON
// lines, in one server.window phase, and reports whether it wrote any. A
// memory-budget session's single cumulative window is not output: its
// response is one JSON summary.
func (q *request) emitWindows(sess *core.Stream) bool {
	if !q.stream {
		return false
	}
	wins := sess.Windows()
	if len(wins) == 0 {
		return false
	}
	q.sc.Phase(spWindow)
	for i := range wins {
		cWindows.Add(1)
		q.windows++
		q.emit(streamLine{Window: &wins[i]})
	}
	return true
}

// emit writes one NDJSON line and flushes it. The first line commits the
// 200 and the NDJSON content type, which is why failures before it still
// get their real status.
func (q *request) emit(l streamLine) {
	if q.enc == nil {
		q.w.Header().Set("Content-Type", "application/x-ndjson")
		q.w.WriteHeader(http.StatusOK)
		q.enc = json.NewEncoder(q.w)
	}
	q.enc.Encode(l) // past WriteHeader, nothing useful to do on error
	if f, ok := q.w.(http.Flusher); ok {
		f.Flush()
	}
}

// buildDegradedResponse renders a LowMemory result: the summary fields
// are exact (identical to what a full analysis computes), but there is
// no approximated trace to fingerprint, so TraceSHA256 is absent and
// Degraded marks the response as summary-only.
func buildDegradedResponse(sess *core.Stream, a *core.Approximation) *Response {
	resp := summaryResponse(a, sess.Procs(), sess.Events())
	resp.Degraded = true
	return resp
}
