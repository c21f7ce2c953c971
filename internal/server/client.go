package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/trace"
)

// Client talks to a perturbd service, retrying shed and transient failures
// with capped exponential backoff plus jitter. Retry-After headers from the
// server override the computed backoff. The zero value with a BaseURL is
// usable.
type Client struct {
	// BaseURL locates the service, e.g. "http://localhost:7077".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// MaxRetries caps retry attempts after the first try. Default: 4.
	MaxRetries int
	// BaseDelay seeds the backoff (doubled per attempt). Default: 200ms.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep. Default: 5s.
	MaxDelay time.Duration
	// Breaker, when non-nil, circuit-breaks the endpoint under the retry
	// loop: while open, attempts fail locally with ErrBreakerOpen (still
	// consuming retry budget and backoff), and the breaker's own
	// half-open probe schedule decides when traffic flows again.
	Breaker *Breaker
}

// Request selects the analysis the service should run; zero values mean
// the service defaults (event-based, paper calibration).
type Request struct {
	Mode   core.Mode
	Repair bool
	// Cal overrides the service's default calibration when non-nil; every
	// field travels as a query parameter.
	Cal *instr.Calibration
	// TraceID travels as the X-Perturb-Trace-Id header, correlating
	// retries, failovers and hedges of one logical request in the
	// service's request log. Empty means the client mints one per
	// Analyze call (and the fleet one per fleet-level Analyze), so every
	// wire attempt of the same logical request shares an id.
	TraceID string
	// Attempt travels as the X-Perturb-Attempt header: a per-wire-attempt
	// tag ("try0", "r1p0-hedge", ...) distinguishing attempts that share
	// a TraceID. Filled by the retry loop and the fleet.
	Attempt string
}

// StatusError is a non-2xx response from the service whose error body
// decoded cleanly — the server answered and meant it. Responses whose
// error body is damaged or not perturbd JSON surface as plain
// (transport-grade, retryable) errors instead.
type StatusError struct {
	StatusCode int
	Message    string
	// Code is the machine-readable errorBody code, when the server sent
	// one ("checksum_mismatch" marks a damaged upload worth resending).
	Code string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("perturbd: %d %s: %s", e.StatusCode, http.StatusText(e.StatusCode), e.Message)
}

// ErrBodyNotReplayable means a retry or failover wanted to resend a
// request whose body reader cannot seek back to the start. The client
// refuses rather than sending a truncated re-read; callers who want
// retries should hand AnalyzeReader an io.ReadSeeker (bytes.Reader,
// os.File) or use Analyze, which owns its buffer.
var ErrBodyNotReplayable = errors.New("request body is not replayable (no Seek)")

// Analyze posts t to the service and returns the decoded response. Shed
// responses (429, 503, 504), damaged exchanges (upload checksum
// rejections, response hash mismatches) and transport errors are
// retried; other statuses return a *StatusError immediately. ctx bounds
// the whole exchange, sleeps included.
func (c *Client) Analyze(ctx context.Context, t *trace.Trace, req Request) (*Response, error) {
	var body bytes.Buffer
	if err := t.WriteBinary(&body); err != nil {
		return nil, fmt.Errorf("encoding trace: %w", err)
	}
	return c.analyzeBytes(ctx, req, body.Bytes())
}

// AnalyzeReader posts an already-encoded trace body. Seekable bodies
// (bytes.Reader, os.File) are rewound to the start for every attempt, so
// retries and failovers resend the full upload; a body that cannot seek
// gets exactly one attempt, and a failure that would otherwise be
// retried returns ErrBodyNotReplayable instead of a truncated re-send.
func (c *Client) AnalyzeReader(ctx context.Context, body io.Reader, req Request) (*Response, error) {
	if rs, ok := body.(io.ReadSeeker); ok {
		if _, err := rs.Seek(0, io.SeekStart); err != nil {
			return nil, fmt.Errorf("perturbd client: rewinding body: %w", err)
		}
		raw, err := io.ReadAll(rs)
		if err != nil {
			return nil, fmt.Errorf("perturbd client: reading body: %w", err)
		}
		return c.analyzeBytes(ctx, req, raw)
	}

	// One shot: the body can only be read once.
	u, err := c.analyzeURL(req)
	if err != nil {
		return nil, err
	}
	httpc := c.HTTPClient
	if httpc == nil {
		httpc = http.DefaultClient
	}
	if c.Breaker != nil && !c.Breaker.Allow(time.Now()) {
		return nil, fmt.Errorf("perturbd: %w", ErrBreakerOpen)
	}
	traceID := req.TraceID
	if traceID == "" {
		traceID = NewTraceID()
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, u, body)
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/octet-stream")
	hreq.Header.Set(traceIDHeader, traceID)
	hreq.Header.Set(attemptHeader, "try0")
	resp, _, err := c.do(httpc, hreq)
	if c.Breaker != nil && ctx.Err() == nil {
		c.Breaker.Record(time.Now(), !breakerFailure(err))
	}
	if err != nil && clientRetryable(err) {
		return nil, fmt.Errorf("perturbd: refusing to retry after %v: %w", err, ErrBodyNotReplayable)
	}
	return resp, err
}

// analyzeBytes is the shared retry loop over a fully-buffered body,
// which every attempt resends from the start.
func (c *Client) analyzeBytes(ctx context.Context, req Request, body []byte) (*Response, error) {
	u, err := c.analyzeURL(req)
	if err != nil {
		return nil, err
	}

	httpc := c.HTTPClient
	if httpc == nil {
		httpc = http.DefaultClient
	}
	maxRetries := c.MaxRetries
	if maxRetries == 0 {
		maxRetries = 4
	}
	baseDelay := c.BaseDelay
	if baseDelay <= 0 {
		baseDelay = 200 * time.Millisecond
	}
	maxDelay := c.MaxDelay
	if maxDelay <= 0 {
		maxDelay = 5 * time.Second
	}

	// One trace id spans every retry of this call, so the service's
	// request log shows them as attempts of one logical request.
	traceID := req.TraceID
	if traceID == "" {
		traceID = NewTraceID()
	}

	var lastErr error
	for attempt := 0; ; attempt++ {
		var resp *Response
		var retryAfter time.Duration
		var err error
		if c.Breaker != nil && !c.Breaker.Allow(time.Now()) {
			// Refused locally: the endpoint is known-dead. Burn a retry
			// slot and back off; the breaker half-opens on its own clock.
			err = fmt.Errorf("perturbd: %w", ErrBreakerOpen)
		} else {
			var hreq *http.Request
			hreq, err = http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
			if err != nil {
				return nil, err
			}
			hreq.Header.Set("Content-Type", traceContentType(body))
			hreq.Header.Set(contentSHAHeader, bodySHA(body))
			hreq.Header.Set(traceIDHeader, traceID)
			hreq.Header.Set(attemptHeader, fmt.Sprintf("try%d", attempt))

			resp, retryAfter, err = c.do(httpc, hreq)
			if c.Breaker != nil && ctx.Err() == nil {
				c.Breaker.Record(time.Now(), !breakerFailure(err))
			}
		}
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if !clientRetryable(err) {
			return nil, err
		}
		if attempt >= maxRetries {
			return nil, fmt.Errorf("perturbd: giving up after %d attempts: %w", attempt+1, lastErr)
		}

		delay := baseDelay << uint(attempt)
		if delay > maxDelay {
			delay = maxDelay
		}
		// Full jitter spreads synchronized retries across the window.
		delay = time.Duration(rand.Int63n(int64(delay))) + delay/2
		if retryAfter > delay {
			delay = retryAfter
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, fmt.Errorf("perturbd: %w (last error: %v)", ctx.Err(), lastErr)
		}
	}
}

// analyzeOnce runs a single no-retry exchange with a pre-encoded trace
// body — the fleet's per-endpoint attempt primitive, where retries and
// failover are owned by the caller.
func (c *Client) analyzeOnce(ctx context.Context, req Request, body []byte) (*Response, error) {
	u, err := c.analyzeURL(req)
	if err != nil {
		return nil, err
	}
	httpc := c.HTTPClient
	if httpc == nil {
		httpc = http.DefaultClient
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", traceContentType(body))
	hreq.Header.Set(contentSHAHeader, bodySHA(body))
	if req.TraceID != "" {
		hreq.Header.Set(traceIDHeader, req.TraceID)
	}
	if req.Attempt != "" {
		hreq.Header.Set(attemptHeader, req.Attempt)
	}
	resp, _, err := c.do(httpc, hreq)
	return resp, err
}

// bodySHA is the hex SHA-256 a request stamps on its upload for
// server-side verification.
func bodySHA(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// do runs one attempt, returning the decoded response or an error plus
// any Retry-After hint from the server.
//
// The body is read in full and verified against the server's
// X-Perturb-Body-SHA256 before any decoding: a mismatch, an undecodable
// body, or a non-perturbd error shape (a middlebox's plain-text 400, a
// response corrupted into syntactically-valid-but-wrong JSON) all
// surface as transport-grade errors — retryable — rather than as a
// terminal StatusError or, worse, a silently wrong Response.
func (c *Client) do(httpc *http.Client, hreq *http.Request) (*Response, time.Duration, error) {
	hresp, err := httpc.Do(hreq)
	if err != nil {
		return nil, 0, err
	}
	defer hresp.Body.Close()

	retryAfter := parseRetryAfter(hresp.Header.Get("Retry-After"), time.Now())
	limit := int64(1 << 16)
	if hresp.StatusCode == http.StatusOK {
		limit = 1 << 28
	}
	raw, err := io.ReadAll(io.LimitReader(hresp.Body, limit))
	if err != nil {
		return nil, retryAfter, fmt.Errorf("reading response body: %w", err)
	}
	if want := hresp.Header.Get(bodySHAHeader); want != "" && bodySHA(raw) != strings.ToLower(want) {
		return nil, retryAfter, fmt.Errorf("perturbd client: response body hash mismatch (transit damage), status %d", hresp.StatusCode)
	}
	if hresp.StatusCode != http.StatusOK {
		var eb errorBody
		if err := json.Unmarshal(raw, &eb); err != nil || eb.Error == "" {
			// Not a perturbd error body: whatever produced this status, it
			// was not the service's handler answering this request.
			return nil, retryAfter, fmt.Errorf("perturbd client: status %d with undecodable error body", hresp.StatusCode)
		}
		return nil, retryAfter, &StatusError{StatusCode: hresp.StatusCode, Message: eb.Error, Code: eb.Code}
	}
	var resp Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, retryAfter, fmt.Errorf("decoding response: %w", err)
	}
	return &resp, 0, nil
}

// clientRetryable reports whether the single-endpoint retry loop should
// try again: shed/overload statuses (429, 503, 504), explicitly
// retryable error codes from the service (a checksum mismatch means the
// upload was damaged in flight — resending is exactly the remedy), local
// breaker refusals, and anything transport-level. Other HTTP statuses
// are terminal: the server understood the request and rejected it.
func clientRetryable(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return se.StatusCode == http.StatusTooManyRequests ||
			se.StatusCode == http.StatusServiceUnavailable ||
			se.StatusCode == http.StatusGatewayTimeout ||
			se.Code == errCodeChecksumMismatch
	}
	return true
}

// parseRetryAfter interprets a Retry-After header value in either RFC
// 9110 form: delta-seconds ("120") or an HTTP-date ("Fri, 31 Dec 1999
// 23:59:59 GMT"), the latter relative to now. Unparseable or past values
// yield 0, falling back to the client's computed backoff.
func parseRetryAfter(v string, now time.Time) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// traceContentType declares an encoded trace body: the precise codec
// type when the magic identifies one, the generic octet-stream otherwise
// (never wrong, merely vague — the server sniffs the codec from the bytes
// regardless and rejects only contradictory declarations).
func traceContentType(body []byte) string {
	if ct := trace.SniffContentType(body); ct != "" {
		return ct
	}
	return "application/octet-stream"
}

// analyzeURL renders req as the /v1/analyze query string.
func (c *Client) analyzeURL(req Request) (string, error) {
	base := strings.TrimSuffix(c.BaseURL, "/")
	if base == "" {
		return "", fmt.Errorf("perturbd client: BaseURL is empty")
	}
	q := url.Values{}
	switch req.Mode {
	case core.ModeEventBased:
	case core.ModeTimeBased:
		q.Set("mode", "time")
	default:
		return "", fmt.Errorf("perturbd client: mode %v is not servable", req.Mode)
	}
	if req.Repair {
		q.Set("repair", "1")
	}
	if req.Cal != nil {
		for _, p := range []struct {
			name string
			v    trace.Time
		}{
			{"event", req.Cal.Overheads.Event},
			{"advance", req.Cal.Overheads.Advance},
			{"awaitb", req.Cal.Overheads.AwaitB},
			{"awaite", req.Cal.Overheads.AwaitE},
			{"snowait", req.Cal.SNoWait},
			{"swait", req.Cal.SWait},
			{"advanceop", req.Cal.AdvanceOp},
			{"barrier", req.Cal.Barrier},
		} {
			q.Set(p.name, strconv.FormatInt(int64(p.v), 10))
		}
	}
	u := base + "/v1/analyze"
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	return u, nil
}
