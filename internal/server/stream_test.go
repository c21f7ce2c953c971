package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"perturb/internal/core"
	"perturb/internal/trace"
)

// postStream uploads body to /v1/analyze/stream and decodes every NDJSON
// line.
func postStream(t *testing.T, url string, body []byte) (*http.Response, []streamLine) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp, nil
	}
	var lines []streamLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var l streamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp, lines
}

// TestStreamEndpoint checks the core contract: window lines while the
// trace uploads, then a final record identical to the batch endpoint's
// response for the same trace (minus cache-only fields).
func TestStreamEndpoint(t *testing.T) {
	tr := testTrace(t, 3)
	_, base := startServer(t, Config{MaxConcurrency: 2})
	body := traceBody(t, tr)

	window := int64(tr.End()/6 + 1)
	resp, lines := postStream(t, base+"/v1/analyze/stream?window="+itoa(window), body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	if len(lines) < 2 {
		t.Fatalf("got %d lines, want windows plus a final record", len(lines))
	}
	final := lines[len(lines)-1]
	if !final.Final || final.Result == nil {
		t.Fatalf("last line is not a final record: %+v", final)
	}
	windows := 0
	events := 0
	for _, l := range lines[:len(lines)-1] {
		if l.Window == nil {
			t.Fatalf("non-window line before the final record: %+v", l)
		}
		windows++
		events += l.Window.Events
	}
	if final.Windows != windows {
		t.Errorf("final.Windows = %d, counted %d window lines", final.Windows, windows)
	}
	if events < tr.Len() {
		t.Errorf("windows cover %d events, trace has %d", events, tr.Len())
	}

	// The final record equals the batch endpoint's response body, modulo
	// the cache-only fields streams never carry.
	bresp, bbody := post(t, base+"/v1/analyze", body)
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, body %s", bresp.StatusCode, bbody)
	}
	var batch Response
	if err := json.Unmarshal(bbody, &batch); err != nil {
		t.Fatal(err)
	}
	batch.InputSHA256 = ""
	batch.Cached = nil
	if !reflect.DeepEqual(*final.Result, batch) {
		t.Errorf("final record differs from batch response:\nstream: %+v\nbatch:  %+v", *final.Result, batch)
	}
	if final.Result.APIVersion != APIVersion {
		t.Errorf("final record api_version = %q, want %q", final.Result.APIVersion, APIVersion)
	}
}

func itoa(n int64) string { return strconv.FormatInt(n, 10) }

// TestStreamEndpointTextCodec streams a text-codec upload with its
// precise declared content type.
func TestStreamEndpointTextCodec(t *testing.T) {
	tr := testTrace(t, 1)
	_, base := startServer(t, Config{})
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/analyze/stream", &buf)
	req.Header.Set("Content-Type", trace.ContentTypeText)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, body %s", resp.StatusCode, b)
	}
}

// TestStreamEndpointErrors pins the failure modes: bad query, bad body,
// bad method, a runaway window geometry, and an invalid trace reported
// in-band after streaming starts or as a status before it.
func TestStreamEndpointErrors(t *testing.T) {
	_, base := startServer(t, Config{})

	resp, err := http.Get(base + "/v1/analyze/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status = %d, want 405", resp.StatusCode)
	}

	resp2, lines := postStream(t, base+"/v1/analyze/stream?window=-5", traceBody(t, testTrace(t, 1)))
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad window: status = %d, want 400", resp2.StatusCode)
	}
	if len(lines) != 0 {
		// writeError bodies are not NDJSON stream lines; decoding them
		// as streamLine yields zero-valued lines at most.
		for _, l := range lines {
			if l.Window != nil || l.Final {
				t.Errorf("bad request produced stream output: %+v", l)
			}
		}
	}

	resp3, err := http.Post(base+"/v1/analyze/stream", "application/octet-stream",
		strings.NewReader("not a trace in any codec"))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status = %d, want 400", resp3.StatusCode)
	}

	// A window/slide ratio past core.MaxWindowsPerEvent would fold every
	// event into a trillion windows; the session refuses it up front.
	body := traceBody(t, testTrace(t, 1))
	start := time.Now()
	resp4, _ := postStream(t, base+"/v1/analyze/stream?window=1000000000000&slide=1", body)
	if resp4.StatusCode != http.StatusBadRequest {
		t.Errorf("runaway window geometry: status = %d, want 400", resp4.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("runaway window geometry took %v to refuse", elapsed)
	}
}

// TestStreamCancellationNoLeak interrupts an upload mid-stream and checks
// the handler unwinds: no stuck goroutines, no held slots.
func TestStreamCancellationNoLeak(t *testing.T) {
	tr := testTrace(t, 3)
	s, base := startServer(t, Config{MaxConcurrency: 1})
	body := traceBody(t, tr)

	before := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		pr, pw := io.Pipe()
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/analyze/stream", pr)
		errc := make(chan error, 1)
		go func() {
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			errc <- err
		}()
		// Send half the trace, then abandon the request mid-upload.
		if _, err := pw.Write(body[:len(body)/2]); err != nil {
			t.Fatal(err)
		}
		cancel()
		pw.Close()
		<-errc
	}

	deadline := time.Now().Add(5 * time.Second)
	for s.Inflight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("inflight = %d after cancellations", s.Inflight())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// A healthy request must still get a slot (nothing leaked running/slots).
	resp, b := post(t, base+"/v1/analyze", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel analyze: status = %d, body %s", resp.StatusCode, b)
	}
	// Goroutine count settles back near the baseline.
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+4 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines = %d, baseline %d: handler leak", runtime.NumGoroutine(), before)
}

// TestDeprecatedAnalyzeAlias checks /analyze still answers, with the
// deprecation advertisement, and matches /v1/analyze byte for byte.
func TestDeprecatedAnalyzeAlias(t *testing.T) {
	tr := testTrace(t, 2)
	// Cache off so the two requests' bodies are bit-identical (no
	// cached/input_sha256 variance between a miss and a hit).
	_, base := startServer(t, Config{CacheBytes: -1})
	body := traceBody(t, tr)

	old, oldBody := post(t, base+"/analyze", body)
	if old.StatusCode != http.StatusOK {
		t.Fatalf("/analyze: status = %d, body %s", old.StatusCode, oldBody)
	}
	if dep := old.Header.Get("Deprecation"); dep != "true" {
		t.Errorf("Deprecation header = %q, want \"true\"", dep)
	}
	if link := old.Header.Get("Link"); !strings.Contains(link, "/v1/analyze") ||
		!strings.Contains(link, "successor-version") {
		t.Errorf("Link header = %q, want a successor-version link to /v1/analyze", link)
	}

	now, newBody := post(t, base+"/v1/analyze", body)
	if now.StatusCode != http.StatusOK {
		t.Fatalf("/v1/analyze: status = %d, body %s", now.StatusCode, newBody)
	}
	if dep := now.Header.Get("Deprecation"); dep != "" {
		t.Errorf("/v1/analyze sent a Deprecation header %q", dep)
	}
	if !bytes.Equal(oldBody, newBody) {
		t.Error("alias and versioned responses differ")
	}
	var r Response
	if err := json.Unmarshal(newBody, &r); err != nil {
		t.Fatal(err)
	}
	if r.APIVersion != APIVersion {
		t.Errorf("api_version = %q, want %q", r.APIVersion, APIVersion)
	}
}

// TestContentTypeMismatch checks the 415 guard: a declared trace type
// that contradicts the body's codec magic is rejected; vague or foreign
// declarations are not.
func TestContentTypeMismatch(t *testing.T) {
	tr := testTrace(t, 1)
	_, base := startServer(t, Config{})
	binBody := traceBody(t, tr)

	send := func(path, ct string) int {
		req, _ := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(binBody))
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	for _, path := range []string{"/v1/analyze", "/v1/analyze/stream"} {
		if got := send(path, trace.ContentTypeText); got != http.StatusUnsupportedMediaType {
			t.Errorf("%s: binary body declared text: status = %d, want 415", path, got)
		}
		if got := send(path, trace.ContentTypeBinary); got != http.StatusOK {
			t.Errorf("%s: correct declaration: status = %d, want 200", path, got)
		}
		if got := send(path, "application/octet-stream"); got != http.StatusOK {
			t.Errorf("%s: octet-stream: status = %d, want 200", path, got)
		}
		if got := send(path, "application/x-www-form-urlencoded"); got != http.StatusOK {
			t.Errorf("%s: foreign type passes through: status = %d, want 200", path, got)
		}
	}
	// The no-cache path runs the same check.
	_, baseNC := startServer(t, Config{CacheBytes: -1})
	req, _ := http.NewRequest(http.MethodPost, baseNC+"/v1/analyze", bytes.NewReader(binBody))
	req.Header.Set("Content-Type", trace.ContentTypeColumnar)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("no-cache mismatch: status = %d, want 415", resp.StatusCode)
	}
}

// TestStreamEndpointRepair streams a damaged trace with repair=1 and
// expects a degraded-confidence final record.
func TestStreamEndpointRepair(t *testing.T) {
	tr := testTrace(t, 3)
	// Drop an advance so the trace needs repair.
	damaged := tr.Filter(func(e trace.Event) bool {
		return !(e.Kind == trace.KindAdvance && e.Iter == 5)
	})
	var buf bytes.Buffer
	if err := damaged.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	_, base := startServer(t, Config{})
	resp, lines := postStream(t, base+"/v1/analyze/stream?repair=1", buf.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	final := lines[len(lines)-1]
	if !final.Final || final.Result == nil {
		t.Fatalf("no final record: %+v", final)
	}
	if final.Result.Repair == nil {
		t.Error("repair stream carries no repair summary")
	}
}

// TestStreamMatchesCoreSession cross-checks the wire windows against a
// direct core session over the same trace and geometry.
func TestStreamMatchesCoreSession(t *testing.T) {
	tr := testTrace(t, 2)
	_, base := startServer(t, Config{})
	window := tr.End()/5 + 1

	_, lines := postStream(t, base+"/v1/analyze/stream?window="+itoa(int64(window)), traceBody(t, tr))

	sess, err := core.NewStream(DefaultCalibration(), core.StreamOptions{Procs: tr.Procs, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Feed(context.Background(), tr.Events); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := sess.Windows()
	got := lines[:len(lines)-1]
	if len(got) != len(want) {
		t.Fatalf("wire windows = %d, core session = %d", len(got), len(want))
	}
	for i := range want {
		g, w := *got[i].Window, want[i]
		if g.Index != w.Index || g.Events != w.Events || g.Waiting != w.Waiting ||
			g.Start != w.Start || g.End != w.End || g.ActiveProcs != w.ActiveProcs {
			t.Errorf("window %d differs: wire %+v, core %+v", i, g, w)
		}
	}
}
