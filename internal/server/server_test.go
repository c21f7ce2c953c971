package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/loops"
	"perturb/internal/machine"
	"perturb/internal/trace"
)

// testTrace simulates an instrumented Livermore loop run and returns the
// measured trace.
func testTrace(t testing.TB, loopNo int) *trace.Trace {
	t.Helper()
	def, err := loops.Get(loopNo)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.Alliant()
	res, err := machine.Run(def.Loop, instr.FullPlan(loops.PaperOverheads(), true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

func traceBody(t testing.TB, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// startServer runs a Server on a loopback listener and returns its base
// URL plus a shutdown func.
func startServer(t testing.TB, cfg Config) (*Server, string) {
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
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return s, "http://" + ln.Addr().String()
}

func post(t testing.TB, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
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

func TestAnalyzeEndpoint(t *testing.T) {
	tr := testTrace(t, 3)
	_, base := startServer(t, Config{MaxConcurrency: 2})

	resp, body := post(t, base+"/v1/analyze", traceBody(t, tr))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var got Response
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("response is not JSON: %v", err)
	}

	// With the default cache on, the first request is a miss that reports
	// the input's content address; strip the cache metadata before the
	// byte-fidelity comparison below.
	if got.Cached == nil || *got.Cached {
		t.Errorf("first request Cached = %v, want false", got.Cached)
	}
	if got.InputSHA256 == "" {
		t.Error("response lacks input_sha256")
	}
	got.Cached = nil
	got.InputSHA256 = ""

	// The service must be byte-faithful to a direct Analyze call.
	approx, err := core.Analyze(tr, DefaultCalibration(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := BuildResponse(approx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, want) {
		t.Errorf("service response %+v != direct analysis %+v", got, *want)
	}
	if got.TraceSHA256 == "" {
		t.Error("response lacks the approximation fingerprint")
	}
}

// TestAnalyzeCodecParity uploads the same trace in all three codecs; the
// auto-detecting reader must yield byte-identical analysis responses, so
// clients can switch to the columnar encoding with no server change.
func TestAnalyzeCodecParity(t *testing.T) {
	tr := testTrace(t, 3)
	s, base := startServer(t, Config{MaxConcurrency: 2})

	encode := []struct {
		name string
		enc  func(*trace.Trace, io.Writer) error
	}{
		{"binary", func(tr *trace.Trace, w io.Writer) error { return tr.WriteBinary(w) }},
		{"text", func(tr *trace.Trace, w io.Writer) error { return tr.WriteText(w) }},
		{"columnar", func(tr *trace.Trace, w io.Writer) error { return tr.WriteColumnar(w) }},
	}
	responses := map[string]*Response{}
	for _, e := range encode {
		var buf bytes.Buffer
		if err := e.enc(tr, &buf); err != nil {
			t.Fatal(err)
		}
		resp, body := post(t, base+"/v1/analyze", buf.Bytes())
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s upload: status = %d, body %s", e.name, resp.StatusCode, body)
		}
		var r Response
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatalf("%s upload: %v", e.name, err)
		}
		responses[e.name] = &r
	}
	// The cache key hashes decoded events, so the text and columnar
	// uploads land on the binary upload's entry: same content address,
	// served as hits.
	for _, e := range encode[1:] {
		r := responses[e.name]
		if r.Cached == nil || !*r.Cached {
			t.Errorf("%s upload was not a cache hit (cached = %v)", e.name, r.Cached)
		}
		if r.InputSHA256 != responses["binary"].InputSHA256 {
			t.Errorf("%s upload input_sha256 %s != binary upload %s",
				e.name, r.InputSHA256, responses["binary"].InputSHA256)
		}
		r.Cached = nil
	}
	responses["binary"].Cached = nil
	for _, name := range []string{"text", "columnar"} {
		if !reflect.DeepEqual(responses[name], responses["binary"]) {
			t.Errorf("%s upload response differs from binary upload:\n%+v\nvs\n%+v",
				name, *responses[name], *responses["binary"])
		}
	}
	if st, ok := s.CacheStats(); !ok || st.Hits != 2 || st.Misses != 1 {
		t.Errorf("cache stats = %+v (ok=%v), want 2 hits, 1 miss", st, ok)
	}
}

// TestAnalyzeCacheDisabled pins the no-cache wire format: with the cache
// off, responses carry no cache metadata at all — byte-compatible with
// pre-cache releases.
func TestAnalyzeCacheDisabled(t *testing.T) {
	tr := testTrace(t, 3)
	s, base := startServer(t, Config{MaxConcurrency: 2, CacheBytes: -1})

	resp, body := post(t, base+"/v1/analyze", traceBody(t, tr))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	for _, field := range []string{"input_sha256", "cached"} {
		if bytes.Contains(body, []byte(field)) {
			t.Errorf("cache-disabled response contains %q:\n%s", field, body)
		}
	}
	if _, ok := s.CacheStats(); ok {
		t.Error("CacheStats reports ok with the cache disabled")
	}
}

func TestAnalyzeQueryErrors(t *testing.T) {
	tr := testTrace(t, 3)
	_, base := startServer(t, Config{MaxConcurrency: 2})
	body := traceBody(t, tr)

	for _, tc := range []struct {
		query string
		want  int
	}{
		{"?mode=bogus", http.StatusBadRequest},
		{"?mode=liberal", http.StatusBadRequest},
		{"?repair=maybe", http.StatusBadRequest},
		{"?probe=-1", http.StatusBadRequest},
		{"?snowait=abc", http.StatusBadRequest},
		{"?mode=time", http.StatusOK},
		{"?workers=2&repair=1", http.StatusOK},
	} {
		resp, b := post(t, base+"/v1/analyze"+tc.query, body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.query, resp.StatusCode, tc.want, b)
		}
	}

	// Non-POST methods are rejected.
	resp, err := http.Get(base + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /analyze: status = %d, want 405", resp.StatusCode)
	}

	// Garbage bodies are a client error, not a server fault.
	resp2, b := post(t, base+"/v1/analyze", []byte("not a trace in any codec"))
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status = %d (body %s), want 400", resp2.StatusCode, b)
	}
}

// TestAnalyzeRefusesColumnarBlockFlags: a columnar upload whose block
// sets the reserved flags byte is malformed input, a 400 like any other.
func TestAnalyzeRefusesColumnarBlockFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := testTrace(t, 3).WriteColumnar(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	body[12+1+30] = 1 // the first block's flags, after the magic, procs and marker
	_, base := startServer(t, Config{MaxConcurrency: 2})
	resp, b := post(t, base+"/v1/analyze", body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), "block flags") {
		t.Errorf("status = %d (body %s), want 400 naming the block flags", resp.StatusCode, b)
	}
}

func TestAnalyzeBodyTooLarge(t *testing.T) {
	tr := testTrace(t, 3)
	body := traceBody(t, tr)
	_, base := startServer(t, Config{MaxConcurrency: 2, MaxBodyBytes: int64(len(body) / 2)})

	resp, b := post(t, base+"/v1/analyze", body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d (body %s), want 413", resp.StatusCode, b)
	}
}

func TestAdmissionControl(t *testing.T) {
	release := make(chan struct{})
	// The cache is disabled here: this test posts identical bodies, which
	// the cache would deliberately coalesce into one analysis instead of
	// filling the running slot and queue.
	s, base := startServer(t, Config{MaxConcurrency: 1, QueueDepth: 1, RequestTimeout: 10 * time.Second, CacheBytes: -1})
	s.hookAnalyze = func(ctx context.Context, m *trace.Trace, cal instr.Calibration, opts core.Options) (*core.Approximation, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return core.Analyze(m, cal, opts)
	}

	tr := testTrace(t, 3)
	body := traceBody(t, tr)

	// Fill the running slot and the queue with blocked requests.
	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, _ := post(t, base+"/v1/analyze", body)
			results <- resp.StatusCode
		}()
	}
	// Wait until both are admitted (running + queued).
	deadline := time.Now().Add(5 * time.Second)
	for s.Inflight() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("admitted %d requests, want 2", s.Inflight())
		}
		time.Sleep(time.Millisecond)
	}

	// The third request must be shed immediately with a Retry-After hint.
	resp, b := post(t, base+"/v1/analyze", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d (body %s), want 429", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response lacks Retry-After")
	}

	close(release)
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Errorf("admitted request %d: status = %d, want 200", i, code)
		}
	}
}

func TestPanicIsolation(t *testing.T) {
	s, base := startServer(t, Config{MaxConcurrency: 2})
	s.hookAnalyze = func(ctx context.Context, m *trace.Trace, cal instr.Calibration, opts core.Options) (*core.Approximation, error) {
		panic("deliberate test panic")
	}
	tr := testTrace(t, 3)
	body := traceBody(t, tr)

	resp, b := post(t, base+"/v1/analyze", body)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking analysis: status = %d (body %s), want 500", resp.StatusCode, b)
	}

	// The daemon survives: the next request on a fresh handler succeeds.
	s.hookAnalyze = nil
	resp2, b2 := post(t, base+"/v1/analyze", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("request after panic: status = %d (body %s), want 200", resp2.StatusCode, b2)
	}
	r, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Errorf("healthz after panic: %d", r.StatusCode)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	s, base := startServer(t, Config{MaxConcurrency: 1})
	for _, path := range []string{"/healthz", "/readyz"} {
		r, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("%s = %d, want 200", path, r.StatusCode)
		}
	}
	// Draining flips readiness but not liveness (checked via the handler
	// directly: the real listener stops accepting during Shutdown).
	s.draining.Store(true)
	defer s.draining.Store(false)
	r, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining /readyz = %d, want 503", r.StatusCode)
	}
	r2, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Errorf("draining /healthz = %d, want 200", r2.StatusCode)
	}
}

func TestGracefulDrainForcesStuckRequests(t *testing.T) {
	s := New(Config{MaxConcurrency: 1, RequestTimeout: time.Minute, Logger: log.New(io.Discard, "", 0)})
	entered := make(chan struct{})
	s.hookAnalyze = func(ctx context.Context, m *trace.Trace, cal instr.Calibration, opts core.Options) (*core.Approximation, error) {
		close(entered)
		<-ctx.Done() // simulate an analysis that only stops cooperatively
		return nil, fmt.Errorf("canceled: %w", ctx.Err())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	tr := testTrace(t, 3)
	reqDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/analyze", "application/octet-stream", bytes.NewReader(traceBody(t, tr)))
		if err != nil {
			reqDone <- -1
			return
		}
		resp.Body.Close()
		reqDone <- resp.StatusCode
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	forced, err := s.Shutdown(ctx)
	if err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if !forced {
		t.Error("Shutdown reported a clean drain despite a stuck request")
	}
	if err := <-done; err != nil {
		t.Errorf("Serve: %v", err)
	}
	select {
	case code := <-reqDone:
		// The stuck request was force-cancelled; it unwound as an error
		// response (503) or a dropped connection, never a success.
		if code == http.StatusOK {
			t.Error("force-cancelled request reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stuck request never completed after forced drain")
	}
}

func TestParseQueryCalibration(t *testing.T) {
	q := func(s string) map[string][]string {
		vals := map[string][]string{}
		for _, kv := range strings.Split(s, "&") {
			if kv == "" {
				continue
			}
			parts := strings.SplitN(kv, "=", 2)
			vals[parts[0]] = append(vals[parts[0]], parts[1])
		}
		return vals
	}
	parsed, err := parseQuery(q("mode=event&workers=3&repair=1&probe=100&snowait=50&swait=80&advanceop=30&barrier=40"), false)
	opts, cal := parsed.opts, parsed.cal
	if err != nil {
		t.Fatal(err)
	}
	if !opts.Repair || opts.Mode != core.ModeEventBased {
		t.Errorf("opts = %+v", opts)
	}
	// Unknown parameters such as the retired workers are ignored: the
	// options, and so the cache key, are those of the query without it.
	if plain, err := parseQuery(q("mode=event&repair=1"), false); err != nil || plain.opts != opts {
		t.Errorf("workers=3 changed the options: %+v, without it %+v (%v)", opts, plain.opts, err)
	}
	want := instr.Exact(instr.Uniform(100), 50, 80, 30, 40)
	if cal != want {
		t.Errorf("cal = %+v, want %+v", cal, want)
	}

	// Per-kind overrides refine the uniform shorthand.
	parsed, err = parseQuery(q("probe=100&advance=7"), false)
	if err != nil {
		t.Fatal(err)
	}
	cal2 := parsed.cal
	if cal2.Overheads.Event != 100 || cal2.Overheads.Advance != 7 {
		t.Errorf("cal2.Overheads = %+v", cal2.Overheads)
	}

	// Defaults reproduce the CLI's paper calibration.
	parsed, err = parseQuery(q(""), false)
	if err != nil {
		t.Fatal(err)
	}
	cal3 := parsed.cal
	if cal3 != DefaultCalibration() {
		t.Errorf("default cal = %+v", cal3)
	}
}
