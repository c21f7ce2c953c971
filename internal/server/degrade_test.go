package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"perturb/internal/core"
)

// postWithHeaders is post with extra request headers.
func postWithHeaders(t testing.TB, url string, body []byte, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestMemoryBudgetDegradation uploads a trace larger than the memory
// budget and expects a 200 with "degraded": true whose summary fields
// are exactly what a full in-memory analysis computes — graceful
// degradation must change the fidelity flag, never the numbers.
func TestMemoryBudgetDegradation(t *testing.T) {
	tr := bigTrace(t)
	body := traceBody(t, tr)
	_, base := startServer(t, Config{
		MaxConcurrency:    2,
		MemoryBudgetBytes: int64(len(body) / 2), // force the degraded path
	})

	resp, raw := postWithHeaders(t, base+"/v1/analyze", body, map[string]string{
		contentSHAHeader: bodySHA(body), // exercises the streaming hash verify
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	var got Response
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	if !got.Degraded {
		t.Fatal("oversized upload did not flag degraded")
	}
	if got.TraceSHA256 != "" {
		t.Fatalf("degraded response carries a trace fingerprint: %q", got.TraceSHA256)
	}
	if got.Cached != nil {
		t.Fatal("degraded response claims a cache outcome")
	}

	approx, err := core.Analyze(tr, DefaultCalibration(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Duration != approx.Duration ||
		got.WaitsKept != approx.WaitsKept ||
		got.WaitsRemoved != approx.WaitsRemoved ||
		got.WaitsIntroduced != approx.WaitsIntroduced {
		t.Fatalf("degraded summary diverges from full analysis:\n got %+v\nwant dur=%d kept=%d removed=%d introduced=%d",
			got, approx.Duration, approx.WaitsKept, approx.WaitsRemoved, approx.WaitsIntroduced)
	}
	if got.Procs != tr.Procs || got.Events != tr.Len() {
		t.Fatalf("degraded trace shape: procs=%d events=%d, want %d/%d", got.Procs, got.Events, tr.Procs, tr.Len())
	}
}

// TestBuildResponseSummaryOnly: a low-memory session's result keeps no
// events, so BuildResponse has nothing to fingerprint. It must refuse the
// result with an error, not panic, and never fingerprint it as an empty
// trace.
func TestBuildResponseSummaryOnly(t *testing.T) {
	tr := testTrace(t, 17)
	sess, err := core.NewStream(DefaultCalibration(), core.StreamOptions{Procs: tr.Procs, LowMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Feed(context.Background(), tr.Events); err != nil {
		t.Fatal(err)
	}
	a, err := sess.Close(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := BuildResponse(a); err == nil {
		t.Fatalf("BuildResponse of a summary-only result = %+v, want an error", resp)
	}
}

// TestMemoryBudgetUnderLimitUnaffected: uploads within the budget take
// the normal cached path and are byte-identical to a budget-less server.
func TestMemoryBudgetUnderLimitUnaffected(t *testing.T) {
	tr := testTrace(t, 3)
	body := traceBody(t, tr)
	_, base := startServer(t, Config{
		MaxConcurrency:    2,
		MemoryBudgetBytes: int64(len(body)) + 1024,
	})
	resp, raw := post(t, base+"/v1/analyze", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	var got Response
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Degraded {
		t.Fatal("under-budget upload was degraded")
	}
	if got.TraceSHA256 == "" {
		t.Fatal("normal-path response lost its fingerprint")
	}
}

// TestDegradedRepairRejected: repair needs the whole trace in memory, so
// an over-budget repair request must be refused loudly, not OOM quietly.
func TestDegradedRepairRejected(t *testing.T) {
	body := traceBody(t, bigTrace(t))
	_, base := startServer(t, Config{
		MaxConcurrency:    2,
		MemoryBudgetBytes: int64(len(body) / 2),
	})
	resp, raw := post(t, base+"/v1/analyze?repair=1", body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413; body %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "memory budget") {
		t.Fatalf("413 body does not explain the budget: %s", raw)
	}
}

// TestDegradedChecksumMismatch: the streaming hash verify on the
// degraded path must reject a damaged upload with the retryable code.
func TestDegradedChecksumMismatch(t *testing.T) {
	body := traceBody(t, bigTrace(t))
	_, base := startServer(t, Config{
		MaxConcurrency:    2,
		MemoryBudgetBytes: int64(len(body) / 2),
	})
	resp, raw := postWithHeaders(t, base+"/v1/analyze", body, map[string]string{
		contentSHAHeader: strings.Repeat("0", 64),
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, raw)
	}
	var eb errorBody
	if err := json.Unmarshal(raw, &eb); err != nil || eb.Code != errCodeChecksumMismatch {
		t.Fatalf("want code %q, got body %s", errCodeChecksumMismatch, raw)
	}
}

// TestChecksumMismatchRejected covers the buffered (cached) path.
func TestChecksumMismatchRejected(t *testing.T) {
	body := traceBody(t, testTrace(t, 3))
	_, base := startServer(t, Config{MaxConcurrency: 2})
	resp, raw := postWithHeaders(t, base+"/v1/analyze", body, map[string]string{
		contentSHAHeader: strings.Repeat("f", 64),
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, raw)
	}
	var eb errorBody
	if err := json.Unmarshal(raw, &eb); err != nil || eb.Code != errCodeChecksumMismatch {
		t.Fatalf("want code %q, got body %s", errCodeChecksumMismatch, raw)
	}
	// A correct checksum sails through.
	resp, raw = postWithHeaders(t, base+"/v1/analyze", body, map[string]string{
		contentSHAHeader: bodySHA(body),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("correct checksum rejected: %d %s", resp.StatusCode, raw)
	}
}

// TestReadyzStates drives /readyz through ready → degraded (queue
// saturated, then memory-budget active) and checks the JSON detail. The
// degraded conditions are set directly on the server — the handler's
// reporting is what is under test, and this keeps it deterministic.
func TestReadyzStates(t *testing.T) {
	s, base := startServer(t, Config{MaxConcurrency: 1, QueueDepth: 1})

	get := func() (int, readyzBody) {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body readyzBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("readyz is not JSON: %v", err)
		}
		return resp.StatusCode, body
	}

	if code, body := get(); code != http.StatusOK || body.Status != "ready" {
		t.Fatalf("idle readyz: %d %+v", code, body)
	}

	// Saturate the admission queue (slots cap = MaxConcurrency+QueueDepth).
	for i := 0; i < cap(s.slots); i++ {
		s.slots <- struct{}{}
	}
	if code, body := get(); code != http.StatusOK || body.Status != "degraded" ||
		len(body.Detail) == 0 || !strings.Contains(body.Detail[0], "queue") {
		t.Fatalf("saturated readyz: %d %+v", code, body)
	} else if body.QueueUsed != body.QueueCap {
		t.Fatalf("queue gauge: %d/%d", body.QueueUsed, body.QueueCap)
	}
	for i := 0; i < cap(s.slots); i++ {
		<-s.slots
	}

	// Memory-budget degradation active.
	s.degradedActive.Add(1)
	if code, body := get(); code != http.StatusOK || body.Status != "degraded" || body.DegradedActive != 1 {
		t.Fatalf("degrading readyz: %d %+v", code, body)
	}
	s.degradedActive.Add(-1)

	if code, body := get(); code != http.StatusOK || body.Status != "ready" {
		t.Fatalf("recovered readyz: %d %+v", code, body)
	}
}

// resetBody feeds a prefix of a valid trace upload, then cancels the
// request context and fails the read — exactly what a mid-upload
// connection reset looks like to the handler, with no timing involved.
type resetBody struct {
	data   []byte
	off    int
	cancel context.CancelFunc
}

func (b *resetBody) Read(p []byte) (int, error) {
	if b.off < len(b.data) {
		n := copy(p, b.data[b.off:])
		b.off += n
		return n, nil
	}
	b.cancel()
	return 0, fmt.Errorf("read tcp 127.0.0.1: %w", errors.New("connection reset by peer"))
}

func (b *resetBody) Close() error { return nil }

// TestStreamMidUploadDisconnect drives /v1/analyze/stream synchronously
// through the handler with a body that dies halfway through the upload.
// The handler must unwind deterministically: admission slots released,
// inflight zero, and the disconnect mapped to a cancellation status, not
// a client-error 400.
func TestStreamMidUploadDisconnect(t *testing.T) {
	s := New(Config{MaxConcurrency: 2, Logger: log.New(io.Discard, "", 0)})
	body := traceBody(t, testTrace(t, 3))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/analyze/stream",
		&resetBody{data: body[:len(body)/2], cancel: cancel}).WithContext(ctx)
	req.Header.Set("Content-Type", "application/octet-stream")
	rec := httptest.NewRecorder()

	// ServeHTTP runs on this goroutine: when it returns, every deferred
	// release has executed — the assertions below are not racing anything.
	s.Handler().ServeHTTP(rec, req)

	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (canceled); body %s", rec.Code, rec.Body.String())
	}
	if got := len(s.slots); got != 0 {
		t.Fatalf("admission slots leaked: %d held", got)
	}
	if got := len(s.running); got != 0 {
		t.Fatalf("running slots leaked: %d held", got)
	}
	if got := s.Inflight(); got != 0 {
		t.Fatalf("inflight leaked: %d", got)
	}
}

// TestStreamMidUploadDisconnectRepair exercises the repair-mode session
// (buffered feed) through the same deterministic disconnect.
func TestStreamMidUploadDisconnectRepair(t *testing.T) {
	s := New(Config{MaxConcurrency: 2, Logger: log.New(io.Discard, "", 0)})
	body := traceBody(t, testTrace(t, 3))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/analyze/stream?repair=1",
		&resetBody{data: body[:len(body)/2], cancel: cancel}).WithContext(ctx)
	req.Header.Set("Content-Type", "application/octet-stream")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)

	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503; body %s", rec.Code, rec.Body.String())
	}
	if len(s.slots) != 0 || len(s.running) != 0 || s.Inflight() != 0 {
		t.Fatalf("leaked: slots=%d running=%d inflight=%d", len(s.slots), len(s.running), s.Inflight())
	}
}
