package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"perturb/internal/core"
	"perturb/internal/instr"
)

// fastClient returns a client with near-zero backoff so retry tests run in
// milliseconds.
func fastClient(base string) *Client {
	return &Client{
		BaseURL:   base,
		BaseDelay: time.Millisecond,
		MaxDelay:  5 * time.Millisecond,
	}
}

func TestClientRetriesShedRequests(t *testing.T) {
	tr := testTrace(t, 3)
	approx, err := core.Analyze(tr, DefaultCalibration(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := BuildResponse(approx)
	if err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "0")
			writeError(w, http.StatusTooManyRequests, "shed")
		case 2:
			writeError(w, http.StatusServiceUnavailable, "draining")
		default:
			writeJSON(w, http.StatusOK, want)
		}
	}))
	defer srv.Close()

	got, err := fastClient(srv.URL).Analyze(context.Background(), tr, Request{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if got.TraceSHA256 != want.TraceSHA256 {
		t.Errorf("fingerprint = %s, want %s", got.TraceSHA256, want.TraceSHA256)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("server saw %d calls, want 3 (two shed + one success)", n)
	}
}

func TestClientDoesNotRetryTerminalErrors(t *testing.T) {
	tr := testTrace(t, 3)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeError(w, http.StatusBadRequest, "bad calibration")
	}))
	defer srv.Close()

	_, err := fastClient(srv.URL).Analyze(context.Background(), tr, Request{})
	var se *StatusError
	if !errors.As(err, &se) || se.StatusCode != http.StatusBadRequest {
		t.Fatalf("err = %v, want StatusError 400", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("server saw %d calls, want 1 (400 must not be retried)", n)
	}
}

func TestClientGivesUpAfterMaxRetries(t *testing.T) {
	tr := testTrace(t, 3)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeError(w, http.StatusServiceUnavailable, "always shedding")
	}))
	defer srv.Close()

	c := fastClient(srv.URL)
	c.MaxRetries = 2
	_, err := c.Analyze(context.Background(), tr, Request{})
	if err == nil {
		t.Fatal("Analyze succeeded against a permanently shedding server")
	}
	var se *StatusError
	if !errors.As(err, &se) || se.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want wrapped StatusError 503", err)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("server saw %d calls, want 3 (initial + 2 retries)", n)
	}
}

func TestClientHonorsContext(t *testing.T) {
	tr := testTrace(t, 3)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30") // force a long backoff
		writeError(w, http.StatusServiceUnavailable, "shed")
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := fastClient(srv.URL).Analyze(ctx, tr, Request{})
		done <- err
	}()
	// Let the first attempt land, then cancel during the 30s backoff.
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client kept retrying after its context was canceled")
	}
}

func TestClientRoundTripsAgainstRealServer(t *testing.T) {
	tr := testTrace(t, 17)
	_, base := startServer(t, Config{MaxConcurrency: 2})

	cal := instr.Exact(instr.Uniform(100), 50, 80, 30, 40)
	got, err := fastClient(base).Analyze(context.Background(), tr, Request{Cal: &cal})
	if err != nil {
		t.Fatal(err)
	}

	approx, err := core.Analyze(tr, cal, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := BuildResponse(approx)
	if err != nil {
		t.Fatal(err)
	}
	// The default-on cache annotates responses; the analysis fields must
	// still be byte-faithful to the local run.
	if got.Cached == nil || *got.Cached {
		t.Errorf("first request Cached = %v, want false", got.Cached)
	}
	got.Cached, got.InputSHA256 = nil, ""
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if string(gj) != string(wj) {
		t.Errorf("remote analysis %s != local %s", gj, wj)
	}
}
