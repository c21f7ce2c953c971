package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"perturb/internal/instr"
	"perturb/internal/loops"
	"perturb/internal/machine"
	"perturb/internal/program"
	"perturb/internal/trace"
)

// stormTrace simulates a two-phase DOACROSS program: enough analysis per
// wire byte that the cache's savings dominate the storm's wall clock.
func stormTrace(t testing.TB) *trace.Trace {
	t.Helper()
	def, err := loops.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	prog := program.NewProgram("cache-storm", def.Loop, def.Loop)
	res, err := machine.RunProgram(prog, instr.FullPlan(loops.PaperOverheads(), true), machine.Alliant())
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

// stormConfig is the service shape both storm runs use: enough queue to
// admit every distinct analysis, so the only variable is the cache.
func stormConfig(cacheBytes int64) Config {
	return Config{
		MaxConcurrency: 4,
		QueueDepth:     256,
		RequestTimeout: time.Minute,
		CacheBytes:     cacheBytes,
	}
}

// runStorm fires the canonical duplicate-heavy request mix at base:
// total requests of which dupes carry the identical (trace, calibration)
// pair and the rest each carry a distinct calibration. It returns the
// wall-clock time and the per-request bodies (nil entries for failures,
// which are reported on t).
func runStorm(t *testing.T, base string, body []byte, total, dupes int) (time.Duration, [][]byte) {
	t.Helper()
	// A dedicated pooled transport: the default client keeps only two idle
	// connections per host, so a 127-way storm would spend most of its
	// wall clock on TCP handshakes and measure the dialer, not the server.
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: total}}
	defer client.CloseIdleConnections()

	bodies := make([][]byte, total)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Every request runs the repair pipeline — the most expensive
			// analysis the service offers — so the storm measures what the
			// cache saves, not fixed HTTP costs.
			url := base + "/v1/analyze?repair=1"
			if i >= dupes {
				// Distinct calibration per straggler: same trace bytes, a
				// different analysis, so the cache cannot help.
				url += fmt.Sprintf("&probe=%d", 200+i)
			}
			resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status=%d err=%v body=%s", i, resp.StatusCode, err, b)
				return
			}
			bodies[i] = b
		}(i)
	}
	wg.Wait()
	return time.Since(start), bodies
}

// TestCacheStorm is the tentpole acceptance test: a 128-request storm in
// which 90% of requests are exact duplicates. With the cache on, the
// duplicate majority must be served from residency — bounded by hashing
// plus a map lookup — with zero sheds, a hit ratio over the 0.85 floor,
// and responses byte-identical (modulo the cached flag) to the fresh
// analysis. Off the race detector it also asserts the headline speedup:
// at least 3x faster wall-clock than the identical storm against a
// cache-disabled server.
func TestCacheStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("cache storm is not a -short test")
	}
	const (
		total = 128
		dupes = 115 // ~90% of the storm shares one cache key
	)
	// A two-phase DOACROSS program with repair on every request: the most
	// analysis work per wire byte the service offers, so the storm
	// measures what the cache saves rather than fixed HTTP costs.
	tr := stormTrace(t)
	body := traceBody(t, tr)

	s, base := startServer(t, stormConfig(0))

	// Warm the hot key so the duplicate tier measures residency, not a
	// 114-way coalesce on one in-flight analysis (which TestSingleflight
	// covers at the cache layer).
	resp, warm := post(t, base+"/v1/analyze?repair=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm request: status=%d body=%s", resp.StatusCode, warm)
	}
	var want Response
	if err := json.Unmarshal(warm, &want); err != nil {
		t.Fatal(err)
	}

	cachedElapsed, bodies := runStorm(t, base, body, total-1, dupes-1)

	// Every duplicate response must match the warm analysis byte-for-byte
	// once the per-request cached flag is stripped.
	want.Cached = nil
	for i, b := range bodies[:dupes-1] {
		if b == nil {
			continue // already reported by runStorm
		}
		var got Response
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("dupe %d: %v", i, err)
		}
		if got.Cached == nil || !*got.Cached {
			t.Errorf("dupe %d: cached = %v, want true", i, got.Cached)
		}
		got.Cached = nil
		if !reflect.DeepEqual(&got, &want) {
			t.Errorf("dupe %d differs from warm analysis:\n got %+v\nwant %+v", i, got, want)
		}
	}

	st, ok := s.CacheStats()
	if !ok {
		t.Fatal("cache disabled on the storm server")
	}
	if served := st.Hits + st.Coalesced; served < dupes-1 {
		t.Errorf("hits+coalesced = %d, want at least %d (every duplicate)", served, dupes-1)
	}
	if st.Misses != total-dupes+1 {
		t.Errorf("misses = %d, want %d (warm + distinct calibrations)", st.Misses, total-dupes+1)
	}
	if ratio := st.HitRatio(); ratio < 0.85 {
		t.Errorf("hit ratio = %.3f, want >= 0.85 (stats %+v)", ratio, st)
	}
	t.Logf("cached storm: %v wall clock, stats %+v, hit ratio %.3f", cachedElapsed, st, st.HitRatio())

	if raceEnabled {
		t.Log("race detector on; skipping the wall-clock speedup assertion")
		return
	}

	// The identical storm against a cache-disabled server analyzes all 128
	// requests; the cached run must beat it by at least 3x.
	_, uncachedBase := startServer(t, stormConfig(-1))
	uncachedElapsed, _ := runStorm(t, uncachedBase, body, total-1, dupes-1)
	t.Logf("uncached storm: %v wall clock (speedup %.1fx)",
		uncachedElapsed, float64(uncachedElapsed)/float64(cachedElapsed))
	if cachedElapsed*3 > uncachedElapsed {
		t.Errorf("cached storm %v is not 3x faster than uncached %v", cachedElapsed, uncachedElapsed)
	}
}

// TestCacheStormCoalesce is the cold-start variant: no warm-up, all 128
// duplicates arrive at once while an admission-blocked analysis is in
// flight. Exactly one analysis may run for the hot key; everyone else
// coalesces onto it. This pins the "thundering herd of identical uploads
// costs one analysis" property end-to-end through HTTP.
func TestCacheStormCoalesce(t *testing.T) {
	tr := testTrace(t, 3)
	body := traceBody(t, tr)

	s, base := startServer(t, stormConfig(0))

	const n = 32
	var wg sync.WaitGroup
	statuses := make([]int, n)
	uncachedCount := 0
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := post(t, base+"/v1/analyze", body)
			statuses[i] = resp.StatusCode
			if resp.StatusCode != http.StatusOK {
				return
			}
			var r Response
			if err := json.Unmarshal(b, &r); err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			if r.Cached != nil && !*r.Cached {
				mu.Lock()
				uncachedCount++
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	for i, code := range statuses {
		if code != http.StatusOK {
			t.Errorf("request %d: status %d, want 200 (coalesced herd must never shed)", i, code)
		}
	}
	if uncachedCount != 1 {
		t.Errorf("%d requests reported cached=false, want exactly 1", uncachedCount)
	}
	st, _ := s.CacheStats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1 (one analysis for the whole herd)", st.Misses)
	}
	if st.Hits+st.Coalesced != n-1 {
		t.Errorf("hits+coalesced = %d, want %d", st.Hits+st.Coalesced, n-1)
	}
}

// BenchmarkCacheHit measures the resident-hit path end to end over HTTP:
// one body hash, two map lookups, and the JSON response — the cost every
// duplicate in a storm pays.
func BenchmarkCacheHit(b *testing.B) {
	body := traceBody(b, testTrace(b, 3))
	_, base := startServer(b, stormConfig(0))
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	defer client.CloseIdleConnections()

	// Warm the key so every measured request is a hit.
	resp, rb := post(b, base+"/v1/analyze", body)
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("warm request: status=%d body=%s", resp.StatusCode, rb)
	}
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(base+"/v1/analyze", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkCacheMissAnalyze measures the miss path: every iteration
// carries a distinct calibration, so the server decodes, hashes, and
// runs the full analysis before inserting. The gap to BenchmarkCacheHit
// is what the cache saves per duplicate.
func BenchmarkCacheMissAnalyze(b *testing.B) {
	body := traceBody(b, testTrace(b, 3))
	_, base := startServer(b, stormConfig(0))
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	defer client.CloseIdleConnections()

	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		url := fmt.Sprintf("%s/v1/analyze?probe=%d", base, 100+i)
		resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}
