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
// server lengthen the backoff. A Client is a fleet of one endpoint: it runs
// the fleet's retry loop, with its fields as the loop's policy. The zero
// value with a BaseURL is usable.
type Client struct {
	// BaseURL locates the service, e.g. "http://localhost:7077".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// MaxRetries caps retry attempts after the first try. Default: 4;
	// negative means none.
	MaxRetries int
	// BaseDelay seeds the backoff (doubled per attempt). Default: 200ms.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep, except that a longer
	// Retry-After wins. Default: 5s.
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
	// service's request log. Empty means each Analyze call mints one, so
	// every wire attempt of the same logical request shares an id.
	TraceID string
	// Attempt travels as the X-Perturb-Attempt header: a per-wire-attempt
	// tag distinguishing attempts that share a TraceID. The retry loop
	// fills it with "try<n>", n counting the call's wire attempts across
	// rounds and endpoints from 0; a hedge of attempt n is "try<n>-hedge".
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

// ErrBodyNotReplayable means a call failed in a way worth retrying, but
// its body came from a reader that cannot seek back to the start, and
// such a body gets a single attempt. Callers who want retries should
// hand AnalyzeReader an io.ReadSeeker (bytes.Reader, os.File) or use
// Analyze, which owns its buffer.
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
	return c.analyze(ctx, req, body.Bytes(), true)
}

// AnalyzeReader posts an already-encoded trace body, read into memory
// first. Seekable bodies (bytes.Reader, os.File) are read from the start
// and get the full retry budget; a body that cannot seek gets exactly one
// attempt, and a failure that would otherwise be retried also wraps
// ErrBodyNotReplayable.
func (c *Client) AnalyzeReader(ctx context.Context, body io.Reader, req Request) (*Response, error) {
	rs, seekable := body.(io.Seeker)
	if seekable {
		if _, err := rs.Seek(0, io.SeekStart); err != nil {
			return nil, fmt.Errorf("perturbd client: rewinding body: %w", err)
		}
	}
	raw, err := io.ReadAll(body)
	if err != nil {
		return nil, fmt.Errorf("perturbd client: reading body: %w", err)
	}
	resp, err := c.analyze(ctx, req, raw, seekable)
	if err != nil && !seekable && clientRetryable(err) {
		return nil, fmt.Errorf("%w; not retried: %w", err, ErrBodyNotReplayable)
	}
	return resp, err
}

// analyze runs the fleet's retry loop over c as a one-endpoint fleet,
// where each round is one attempt: MaxRetries+1 of them, or one for a
// body that cannot be replayed.
func (c *Client) analyze(ctx context.Context, req Request, body []byte, replayable bool) (*Response, error) {
	if _, err := url.Parse(c.BaseURL); c.BaseURL == "" || err != nil {
		return nil, fmt.Errorf("perturbd client: BaseURL %q is empty or malformed", c.BaseURL)
	}
	rounds := max(c.MaxRetries, 0) + 1
	if c.MaxRetries == 0 {
		rounds = 5
	}
	if !replayable {
		rounds = 1
	}
	f := &Fleet{
		cfg:       FleetConfig{BaseDelay: c.BaseDelay},
		maxDelay:  c.MaxDelay,
		endpoints: []*endpoint{newEndpoint(c.BaseURL, c.HTTPClient, c.Breaker, 0)},
	}
	return f.analyze(ctx, f.endpoints, rounds, req, body)
}

// upload is one call's body with what every attempt stamps on it,
// computed once per call.
type upload struct {
	body             []byte
	query            string // the /v1/analyze query, with its "?", or ""
	sha, contentType string
}

// post runs one exchange against e: it builds the request, stamps the
// content hash, trace id and attempt tag, verifies the response, and
// records the outcome in e's breaker. Cancelled attempts (a hedge that
// lost the race, a caller that gave up) say nothing about e's health and
// are not recorded. It also returns the response's Retry-After hint.
func (e *endpoint) post(ctx context.Context, req Request, up upload) (*Response, time.Duration, error) {
	u := strings.TrimSuffix(e.base, "/") + "/v1/analyze" + up.query
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(up.body))
	if err != nil {
		return nil, 0, err
	}
	hreq.Header.Set("Content-Type", up.contentType)
	hreq.Header.Set(contentSHAHeader, up.sha)
	hreq.Header.Set(traceIDHeader, req.TraceID)
	hreq.Header.Set(attemptHeader, req.Attempt)
	start := time.Now()
	resp, wait, err := readResponse(e.httpc.Do(hreq))
	if err == nil {
		e.recordLatency(time.Since(start))
	}
	if ctx.Err() == nil {
		e.breaker.Record(time.Now(), !breakerFailure(err))
	}
	return resp, wait, err
}

// bodySHA is the hex SHA-256 a request stamps on its upload for
// server-side verification.
func bodySHA(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// readResponse decodes one exchange's outcome, returning the response or
// an error plus any Retry-After hint from the server.
//
// The body is read in full and verified against the server's
// X-Perturb-Body-SHA256 before any decoding: a mismatch, an undecodable
// body, or a non-perturbd error shape (a middlebox's plain-text 400, a
// response corrupted into syntactically-valid-but-wrong JSON) all
// surface as transport-grade errors — retryable — rather than as a
// terminal StatusError or, worse, a silently wrong Response.
func readResponse(hresp *http.Response, err error) (*Response, time.Duration, error) {
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

// clientRetryable reports whether the retry loop should try again, on
// this endpoint or another: shed/overload statuses (429, 503, 504),
// explicitly retryable error codes from the service (a checksum mismatch
// means the upload was damaged in flight — resending is exactly the
// remedy), local breaker refusals, and anything transport-level. Other
// HTTP statuses are terminal: the server understood the request and
// rejected it.
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

// analyzeQuery renders req as the /v1/analyze query string, "?" included,
// or "" when every field is the service default.
func analyzeQuery(req Request) (string, error) {
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
	if len(q) == 0 {
		return "", nil
	}
	return "?" + q.Encode(), nil
}
