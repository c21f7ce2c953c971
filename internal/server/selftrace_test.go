package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"perturb/internal/obs"
	"perturb/internal/promfmt"
	"perturb/internal/trace"
)

// syncBuffer is a goroutine-safe request-log sink: the handler's deferred
// log write can land after the response reaches the client.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitLines polls until the log holds n newline-terminated lines.
func (b *syncBuffer) waitLines(t testing.TB, n int) []string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := b.String()
		lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
		if s != "" && len(lines) >= n {
			return lines[:n]
		}
		if time.Now().After(deadline) {
			t.Fatalf("request log has %q, want %d lines", s, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestClientTraceIDSpansRetries(t *testing.T) {
	var (
		mu       sync.Mutex
		traceIDs []string
		attempts []string
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		traceIDs = append(traceIDs, r.Header.Get(traceIDHeader))
		attempts = append(attempts, r.Header.Get(attemptHeader))
		n := len(traceIDs)
		mu.Unlock()
		if n == 1 {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"analysis":"event"}`))
	}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, MaxRetries: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	if _, err := c.Analyze(context.Background(), testTrace(t, 3), Request{}); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	if len(traceIDs) != 2 {
		mu.Unlock()
		t.Fatalf("saw %d attempts, want 2", len(traceIDs))
	}
	if traceIDs[0] == "" || traceIDs[0] != traceIDs[1] {
		t.Errorf("retries carried trace ids %q and %q, want one shared non-empty id", traceIDs[0], traceIDs[1])
	}
	if attempts[0] != "try0" || attempts[1] != "try1" {
		t.Errorf("attempt tags = %v, want [try0 try1]", attempts)
	}
	mu.Unlock()

	// A caller-supplied id is forwarded verbatim.
	if _, err := c.Analyze(context.Background(), testTrace(t, 3), Request{TraceID: "caller-id"}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if got := traceIDs[len(traceIDs)-1]; got != "caller-id" {
		t.Errorf("caller trace id not forwarded: got %q", got)
	}
}

func TestFleetHedgeSharesTraceID(t *testing.T) {
	type seen struct {
		traceID, attempt string
	}
	var (
		mu  sync.Mutex
		got []seen
	)
	slow := make(chan struct{})
	defer close(slow)
	// Both endpoints hang or answer based on arrival order: the first
	// request in hangs, the hedge answers — so the test does not depend
	// on which endpoint the ring ranks first.
	var first sync.Once
	answered := make(chan struct{})
	handler := func(w http.ResponseWriter, r *http.Request) {
		// Drain the body: the server only notices a client abort (the
		// fleet cancelling the losing attempt) once the body is consumed.
		io.Copy(io.Discard, r.Body)
		mu.Lock()
		got = append(got, seen{r.Header.Get(traceIDHeader), r.Header.Get(attemptHeader)})
		hang := len(got) == 1
		mu.Unlock()
		if hang {
			select {
			case <-slow:
			case <-r.Context().Done():
			}
			return
		}
		first.Do(func() { close(answered) })
		w.Write([]byte(`{"analysis":"event"}`))
	}
	a := httptest.NewServer(http.HandlerFunc(handler))
	defer a.Close()
	b := httptest.NewServer(http.HandlerFunc(handler))
	defer b.Close()

	f, err := NewFleet(FleetConfig{
		Endpoints:  []string{a.URL, b.URL},
		Hedge:      true,
		HedgeAfter: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Analyze(context.Background(), testTrace(t, 3), Request{}); err != nil {
		t.Fatal(err)
	}
	<-answered

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("saw %d attempts, want primary + hedge", len(got))
	}
	if got[0].traceID == "" || got[0].traceID != got[1].traceID {
		t.Errorf("hedge carried trace ids %q and %q, want one shared non-empty id",
			got[0].traceID, got[1].traceID)
	}
	if got[0].attempt != "try0" || got[1].attempt != "try0-hedge" {
		t.Errorf("attempt tags = %q, %q; want try0 and try0-hedge", got[0].attempt, got[1].attempt)
	}
}

func TestRequestLogJSONLines(t *testing.T) {
	var logBuf syncBuffer
	_, base := startServer(t, Config{MaxConcurrency: 2, RequestLog: &logBuf})
	body := traceBody(t, testTrace(t, 3))

	resp, _ := post(t, base+"/analyze", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if resp.Header.Get(traceIDHeader) == "" {
		t.Error("response lacks the trace id header")
	}
	resp2, _ := post(t, base+"/analyze", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second status = %d", resp2.StatusCode)
	}

	lines := logBuf.waitLines(t, 2)
	var entries []requestLogLine
	for i, line := range lines {
		var e requestLogLine
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("log line %d is not JSON: %v (%q)", i, err, line)
		}
		entries = append(entries, e)
	}
	for i, e := range entries {
		if e.TraceID == "" {
			t.Errorf("line %d: empty trace_id", i)
		}
		if e.Status != http.StatusOK {
			t.Errorf("line %d: status = %d", i, e.Status)
		}
		if e.Path != "/analyze" {
			t.Errorf("line %d: path = %q", i, e.Path)
		}
		if e.LatencyNS <= 0 {
			t.Errorf("line %d: latency_ns = %d", i, e.LatencyNS)
		}
	}
	if entries[0].TraceID == entries[1].TraceID {
		t.Errorf("distinct requests share trace id %q", entries[0].TraceID)
	}
	if entries[0].Cache != "miss" || entries[1].Cache != "hit" {
		t.Errorf("cache outcomes = %q, %q; want miss then hit", entries[0].Cache, entries[1].Cache)
	}
	// The server echoes the response trace id into the log.
	if got := resp.Header.Get(traceIDHeader); got != entries[0].TraceID {
		t.Errorf("response header id %q != logged id %q", got, entries[0].TraceID)
	}
}

func TestMetricsEndpointExposition(t *testing.T) {
	_, base := startServer(t, Config{MaxConcurrency: 2})
	post(t, base+"/analyze", traceBody(t, testTrace(t, 3)))

	resp, body := get(t, base+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if err := promfmt.Check(bytes.NewReader(body)); err != nil {
		t.Fatalf("exposition format violation: %v\n%s", err, body)
	}
	if !strings.Contains(string(body), "perturb_build_info{") {
		t.Error("metrics lack perturb_build_info")
	}
}

func TestSelfTraceEndpointServesRequestSpans(t *testing.T) {
	rec := obs.NewRecorder(0)
	_, base := startServer(t, Config{MaxConcurrency: 2, Recorder: rec})
	post(t, base+"/analyze", traceBody(t, testTrace(t, 3)))

	resp, body := get(t, base+"/debug/selftrace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	st, err := trace.ReadColumnar(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("self-trace endpoint returned an unreadable trace: %v", err)
	}
	if st.Len() == 0 {
		t.Fatal("self-trace is empty after a request")
	}
	if defects := trace.Audit(st); len(defects) != 0 {
		t.Fatalf("live self-trace has audit defects: %v", defects)
	}
}

func TestHealthzReportsVersion(t *testing.T) {
	_, base := startServer(t, Config{MaxConcurrency: 1})
	resp, body := get(t, base+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	fields := strings.Fields(string(body))
	if len(fields) != 2 || fields[0] != "ok" || !strings.HasPrefix(fields[1], "version=") {
		t.Fatalf("healthz body = %q, want \"ok version=...\"", body)
	}
	if fields[1] == "version=" {
		t.Fatalf("healthz version empty: %q", body)
	}
}

func TestNewTraceID(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("trace ids %q, %q: want 16 hex chars", a, b)
	}
	if a == b {
		t.Fatalf("trace ids collide: %q", a)
	}
}

func get(t testing.TB, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}
