package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perturb/internal/cache"
)

// flipBit is a RoundTripper that flips one bit of every request body at
// a fixed offset before forwarding it.
type flipBit struct {
	off int
	bit byte
}

func (f flipBit) RoundTrip(req *http.Request) (*http.Response, error) {
	raw, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	raw[f.off] ^= f.bit
	req = req.Clone(req.Context())
	req.Body = io.NopCloser(bytes.NewReader(raw))
	req.ContentLength = int64(len(raw))
	return http.DefaultTransport.RoundTrip(req)
}

// TestOneWayUploadCarriesContentSHA: a body that cannot seek gets one
// attempt, but that attempt is as checked as any other. Every bit flipped
// in transit must be caught by the server's checksum verify, never
// analyzed into a 200 with a different fingerprint.
func TestOneWayUploadCarriesContentSHA(t *testing.T) {
	body := traceBody(t, testTrace(t, 3))
	_, base := startServer(t, Config{MaxConcurrency: 2, CacheBytes: -1})
	for k := 0; k < 64; k++ {
		c := fastClient(base)
		c.HTTPClient = &http.Client{Transport: flipBit{off: len(body)/2 + k, bit: 1 << (k % 8)}}
		resp, err := c.AnalyzeReader(context.Background(), bytes.NewBuffer(body), Request{})
		if err == nil {
			t.Errorf("flip %d: answered 200 with trace_sha256 %s", k, resp.TraceSHA256)
			continue
		}
		var se *StatusError
		if !errors.Is(err, ErrBodyNotReplayable) || !errors.As(err, &se) || se.Code != errCodeChecksumMismatch {
			t.Errorf("flip %d: err = %v, want a checksum_mismatch StatusError and ErrBodyNotReplayable", k, err)
		}
	}
}

// TestBackoffCannotOverflow: a retry budget longer than the bits of a
// Duration must keep backing off at MaxDelay, not shift the delay into
// garbage.
func TestBackoffCannotOverflow(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeError(w, http.StatusServiceUnavailable, "always shedding")
	}))
	defer srv.Close()

	c := &Client{BaseURL: srv.URL, MaxRetries: 70, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}
	_, err := c.Analyze(context.Background(), testTrace(t, 3), Request{})
	var se *StatusError
	if !errors.As(err, &se) || se.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want wrapped StatusError 503", err)
	}
	if n := calls.Load(); n != 71 {
		t.Errorf("server saw %d calls, want 71 (initial + 70 retries)", n)
	}
}

// TestNegativeMaxRetriesMeansOneAttempt: MaxRetries < 0 is no retries,
// not a negative attempt budget.
func TestNegativeMaxRetriesMeansOneAttempt(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeError(w, http.StatusServiceUnavailable, "always shedding")
	}))
	defer srv.Close()

	c := fastClient(srv.URL)
	c.MaxRetries = -1
	if _, err := c.Analyze(context.Background(), testTrace(t, 3), Request{}); err == nil {
		t.Fatal("Analyze succeeded against a permanently shedding server")
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("server saw %d calls, want 1", n)
	}
}

// TestHedgeChargesEachEndpoint: the hedge target's dropped connections
// count against the target, and the ring owner's 429 proves the owner
// alive, so only the target cools down.
func TestHedgeChargesEachEndpoint(t *testing.T) {
	var owner atomic.Value // the ring owner's base URL, known once both servers listen
	handler := func(w http.ResponseWriter, r *http.Request) {
		if "http://"+r.Host == owner.Load() {
			time.Sleep(80 * time.Millisecond)
			writeError(w, http.StatusTooManyRequests, "at capacity")
			return
		}
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	}
	a := httptest.NewServer(http.HandlerFunc(handler))
	defer a.Close()
	b := httptest.NewServer(http.HandlerFunc(handler))
	defer b.Close()

	f, err := NewFleet(FleetConfig{
		Endpoints:  []string{a.URL, b.URL},
		Hedge:      true,
		HedgeAfter: 5 * time.Millisecond,
		Cooldown:   time.Minute,
		BaseDelay:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace(t, 3)
	sha, err := cache.TraceSHA256(tr)
	if err != nil {
		t.Fatal(err)
	}
	prefs := f.route(sha)
	owner.Store(prefs[0].base)
	if _, err := f.Analyze(context.Background(), tr, Request{}); err == nil {
		t.Fatal("Analyze succeeded; the owner only sheds and the target only drops")
	}
	now := time.Now()
	if prefs[0].coolingDown(now) {
		t.Error("owner is cooling down after answering 429")
	}
	if !prefs[1].coolingDown(now) {
		t.Error("hedge target is not cooling down after dropping its connections")
	}
}

// TestFleetHonorsRetryAfter: when every endpoint sheds with Retry-After,
// the next round waits at least that long rather than BaseDelay.
func TestFleetHonorsRetryAfter(t *testing.T) {
	var (
		mu     sync.Mutex
		starts []time.Time
		seen   = map[string]bool{}
	)
	handler := func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		starts = append(starts, time.Now())
		first := !seen[r.Host]
		seen[r.Host] = true
		mu.Unlock()
		if first {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		w.Write([]byte(`{"analysis":"event"}`))
	}
	a := httptest.NewServer(http.HandlerFunc(handler))
	defer a.Close()
	b := httptest.NewServer(http.HandlerFunc(handler))
	defer b.Close()

	f, err := NewFleet(FleetConfig{Endpoints: []string{a.URL, b.URL}, BaseDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Analyze(context.Background(), testTrace(t, 3), Request{}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(starts) != 3 {
		t.Fatalf("saw %d attempts, want 3 (both shed, then one success)", len(starts))
	}
	if gap := starts[2].Sub(starts[1]); gap < time.Second {
		t.Errorf("third attempt started %v after the second, want at least the 1s Retry-After", gap)
	}
}
