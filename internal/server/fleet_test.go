package server

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"perturb/internal/cache"
	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/trace"
)

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"0", 0},
		{"120", 2 * time.Minute},
		{"-5", 0},
		// RFC 9110 HTTP-date form, 90 seconds in the future.
		{now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		// A date in the past means "retry now", not a negative sleep.
		{now.Add(-time.Hour).Format(http.TimeFormat), 0},
		// Garbage falls back to the computed backoff.
		{"soon", 0},
		{"Thu, 32 Jan 2026 99:00:00 GMT", 0},
	} {
		if got := parseRetryAfter(tc.in, now); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// fleetTraces builds n distinct traces (each a one-event retiming of the
// base) so consistent hashing spreads them over the ring.
func fleetTraces(t testing.TB, n int) []*trace.Trace {
	t.Helper()
	base := testTrace(t, 3)
	traces := make([]*trace.Trace, n)
	for i := range traces {
		tr := base.Clone()
		tr.Events[0].Time += trace.Time(i)
		traces[i] = tr
	}
	return traces
}

// TestFleetRoutingDeterministic pins the consistent-hashing contract:
// the same trace always resolves to the same preference order, every
// endpoint appears exactly once in it, and the key space spreads over
// all endpoints rather than degenerating onto one.
func TestFleetRoutingDeterministic(t *testing.T) {
	f, err := NewFleet(FleetConfig{Endpoints: []string{"http://a", "http://b", "http://c"}})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, tr := range fleetTraces(t, 64) {
		sha, err := cache.TraceSHA256(tr)
		if err != nil {
			t.Fatal(err)
		}
		prefs := f.route(sha)
		if len(prefs) != 3 {
			t.Fatalf("route returned %d endpoints, want 3", len(prefs))
		}
		seen := map[string]bool{}
		for _, ep := range prefs {
			if seen[ep.base] {
				t.Fatalf("endpoint %s repeated in preference list", ep.base)
			}
			seen[ep.base] = true
		}
		for rep := 0; rep < 3; rep++ {
			again := f.route(sha)
			for i := range prefs {
				if again[i] != prefs[i] {
					t.Fatalf("routing for %s is not deterministic", sha[:12])
				}
			}
		}
		counts[prefs[0].base]++
	}
	for _, base := range []string{"http://a", "http://b", "http://c"} {
		if counts[base] == 0 {
			t.Errorf("endpoint %s owns no keys out of 64; ring is degenerate (%v)", base, counts)
		}
	}
	t.Logf("key ownership over 64 traces: %v", counts)
}

// startKillableServer is startServer without the cleanup-time error
// check, for servers the test intends to kill mid-flight.
func startKillableServer(t testing.TB, cfg Config) (*Server, string, func()) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	s := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	var once sync.Once
	kill := func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			s.Shutdown(ctx)
			<-done
		})
	}
	t.Cleanup(kill)
	return s, "http://" + ln.Addr().String(), kill
}

// TestFleetZeroLossOnEndpointKill storms a three-endpoint fleet with
// distinct traces and kills one endpoint mid-storm: every request must
// still succeed, rerouted to the dead endpoint's ring successors.
func TestFleetZeroLossOnEndpointKill(t *testing.T) {
	cfg := Config{MaxConcurrency: 4, QueueDepth: 64}
	_, base1 := startServer(t, cfg)
	_, base2 := startServer(t, cfg)
	_, base3, kill := startKillableServer(t, cfg)

	f, err := NewFleet(FleetConfig{
		Endpoints: []string{base1, base2, base3},
		BaseDelay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	const n = 32
	traces := fleetTraces(t, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, tr := range traces {
		wg.Add(1)
		go func(i int, tr *trace.Trace) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			resp, err := f.Analyze(ctx, tr, Request{})
			if err == nil && resp.TraceSHA256 == "" {
				err = fmt.Errorf("response lacks fingerprint")
			}
			errs[i] = err
		}(i, tr)
	}
	// Kill the third endpoint while the storm is in flight.
	time.Sleep(10 * time.Millisecond)
	kill()
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d lost during endpoint kill: %v", i, err)
		}
	}
}

// TestFleetHedging makes a trace's ring owner artificially slow: with
// hedging on, the fleet must mirror the request to the next replica
// after the hedge delay, win with the replica's answer, and cancel the
// loser — and one box must never run the same analysis twice.
func TestFleetHedging(t *testing.T) {
	s1, base1 := startServer(t, Config{MaxConcurrency: 2})
	s2, base2 := startServer(t, Config{MaxConcurrency: 2})
	servers := map[string]*Server{base1: s1, base2: s2}

	f, err := NewFleet(FleetConfig{
		Endpoints:  []string{base1, base2},
		Hedge:      true,
		HedgeAfter: 20 * time.Millisecond,
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
	primary, replica := servers[prefs[0].base], servers[prefs[1].base]

	// The ring owner stalls until cancelled; only the hedge can answer.
	slow := make(chan struct{})
	defer close(slow)
	primary.hookAnalyze = func(ctx context.Context, m *trace.Trace, cal instr.Calibration, opts core.Options) (*core.Approximation, error) {
		select {
		case <-slow:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return core.Analyze(m, cal, opts)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	resp, err := f.Analyze(ctx, tr, Request{})
	if err != nil {
		t.Fatalf("hedged Analyze: %v", err)
	}
	elapsed := time.Since(start)
	if resp.TraceSHA256 == "" {
		t.Error("hedged response lacks fingerprint")
	}
	if elapsed > 5*time.Second {
		t.Errorf("hedged request took %v; the hedge never fired", elapsed)
	}

	// The replica analyzed it once; the stalled primary never completed
	// an analysis (its flight was cancelled with the losing request), so
	// no box ran the analysis twice.
	if st, _ := replica.CacheStats(); st.Misses != 1 || st.Inserts != 1 {
		t.Errorf("replica stats = %+v, want exactly one analysis", st)
	}
	if st, _ := primary.CacheStats(); st.Inserts != 0 {
		t.Errorf("primary stats = %+v, want no completed analysis on the loser", st)
	}

	// The cancelled loser must unwind: the primary's inflight gauge
	// drains back to zero.
	deadline := time.Now().Add(5 * time.Second)
	for primary.Inflight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("primary still has %d inflight requests; hedge loser was not cancelled", primary.Inflight())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFleetFailoverOn503 drains one endpoint (readiness off, requests
// shed with 503) and checks requests fail over without error and the
// drained endpoint cools down.
func TestFleetFailoverOn503(t *testing.T) {
	s1, base1 := startServer(t, Config{MaxConcurrency: 2})
	_, base2 := startServer(t, Config{MaxConcurrency: 2})

	f, err := NewFleet(FleetConfig{
		Endpoints: []string{base1, base2},
		BaseDelay: 10 * time.Millisecond,
		Cooldown:  time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Force the first endpoint to shed everything.
	s1.draining.Store(true)
	defer s1.draining.Store(false)

	// The ring hashes the test's random ports, so pick traces the
	// draining endpoint owns: every run then exercises the failover.
	var owned []*trace.Trace
	for _, tr := range fleetTraces(t, 64) {
		sha, err := cache.TraceSHA256(tr)
		if err != nil {
			t.Fatal(err)
		}
		if f.route(sha)[0].base == base1 && len(owned) < 8 {
			owned = append(owned, tr)
		}
	}
	if len(owned) == 0 {
		t.Fatal("consistent hashing assigned the draining endpoint no traces")
	}
	for i, tr := range owned {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		resp, err := f.Analyze(ctx, tr, Request{})
		cancel()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.TraceSHA256 == "" {
			t.Errorf("request %d lacks fingerprint", i)
		}
	}
	// At least one request must have been routed to the draining endpoint
	// first and marked it down.
	var down bool
	for _, ep := range f.endpoints {
		if ep.base == base1 && ep.coolingDown(time.Now()) {
			down = true
		}
	}
	if !down {
		t.Error("draining endpoint was never marked down")
	}
}

// BenchmarkClientHedged measures the steady-state cost of a hedged fleet
// request served from a warm server cache: routing, hashing, and one
// HTTP round-trip — the hedge timer must not fire on fast hits.
func BenchmarkClientHedged(b *testing.B) {
	s1, base1 := startServer(b, Config{MaxConcurrency: 2})
	s2, base2 := startServer(b, Config{MaxConcurrency: 2})
	_, _ = s1, s2
	f, err := NewFleet(FleetConfig{
		Endpoints: []string{base1, base2},
		Hedge:     true,
	})
	if err != nil {
		b.Fatal(err)
	}
	tr := testTrace(b, 3)
	ctx := context.Background()
	if _, err := f.Analyze(ctx, tr, Request{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Analyze(ctx, tr, Request{}); err != nil {
			b.Fatal(err)
		}
	}
}
