package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"perturb/internal/trace"
)

// pipelineTargets are the four engine configurations every request class
// must behave the same under: the batch engine with the cache on and off,
// the memory-budget fallback onto the LowMemory streamed engine, and the
// stream endpoint.
var pipelineTargets = []struct {
	name string
	cfg  Config
	path string
}{
	{"batch", Config{}, "/v1/analyze"},
	{"batch-nocache", Config{CacheBytes: -1}, "/v1/analyze"},
	{"memory-budget", Config{MemoryBudgetBytes: 1}, "/v1/analyze"},
	{"stream", Config{}, "/v1/analyze/stream"},
}

// TestErrorMatrix sends each failure class through every engine
// configuration. A class must get the same status, error code and
// Retry-After whichever engine serves it.
func TestErrorMatrix(t *testing.T) {
	body := traceBody(t, testTrace(t, 3))
	oversize := traceBody(t, bigTrace(t))
	classes := []struct {
		name       string
		method     string
		query      string
		ctype      string
		sha        string
		body       []byte
		drain      bool
		full       bool // every admission slot taken
		status     int
		code       string
		retryAfter bool
	}{
		{name: "GET", method: http.MethodGet, status: http.StatusMethodNotAllowed},
		{name: "bad query", query: "?mode=bogus", status: http.StatusBadRequest},
		{name: "bad query at capacity", query: "?probe=-1", full: true, status: http.StatusBadRequest},
		{name: "contradictory content type", ctype: trace.ContentTypeText, status: http.StatusUnsupportedMediaType},
		{name: "body over MaxBodyBytes", body: oversize, status: http.StatusRequestEntityTooLarge},
		{name: "wrong checksum", sha: strings.Repeat("0", 64), status: http.StatusBadRequest, code: errCodeChecksumMismatch},
		{name: "garbage body", body: []byte("not a trace in any codec"), status: http.StatusBadRequest},
		{name: "at capacity", full: true, status: http.StatusTooManyRequests, retryAfter: true},
		{name: "draining", drain: true, status: http.StatusServiceUnavailable, retryAfter: true},
	}
	for _, tg := range pipelineTargets {
		cfg := tg.cfg
		cfg.MaxConcurrency, cfg.QueueDepth = 1, 1
		cfg.MaxBodyBytes = int64(2 * len(body))
		s, base := startServer(t, cfg)
		for _, c := range classes {
			method, reqBody := http.MethodPost, body
			if c.method != "" {
				method = c.method
			}
			if c.body != nil {
				reqBody = c.body
			}
			req, err := http.NewRequest(method, base+tg.path+c.query, bytes.NewReader(reqBody))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/octet-stream")
			if c.ctype != "" {
				req.Header.Set("Content-Type", c.ctype)
			}
			if c.sha != "" {
				req.Header.Set(contentSHAHeader, c.sha)
			}
			if c.full {
				for len(s.slots) < cap(s.slots) {
					s.slots <- struct{}{}
				}
			}
			s.draining.Store(c.drain)
			resp, err := http.DefaultClient.Do(req)
			s.draining.Store(false)
			for c.full && len(s.slots) > 0 {
				<-s.slots
			}
			if err != nil {
				t.Fatalf("%s %s: %v", tg.name, c.name, err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var eb errorBody
			json.Unmarshal(raw, &eb)
			if resp.StatusCode != c.status || eb.Code != c.code {
				t.Errorf("%s %s: status %d code %q, want %d %q (body %s)",
					tg.name, c.name, resp.StatusCode, eb.Code, c.status, c.code, raw)
			}
			if got := resp.Header.Get("Retry-After") != ""; got != c.retryAfter {
				t.Errorf("%s %s: Retry-After present = %v, want %v", tg.name, c.name, got, c.retryAfter)
			}
		}
	}
}

// ndjsonLines decodes an NDJSON response body.
func ndjsonLines(t *testing.T, r io.Reader) []streamLine {
	t.Helper()
	var lines []streamLine
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var l streamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestStreamVerifiesContentSHA: the stream endpoint hashes the upload as
// it reads it and verifies X-Perturb-Content-SHA256 at EOF, before the
// session closes. With no output yet a mismatch is a 400 carrying the
// retryable code; once window lines are on the wire the stream ends with
// an in-band error line instead of a final line.
func TestStreamVerifiesContentSHA(t *testing.T) {
	tr := testTrace(t, 3)
	body := traceBody(t, tr)
	_, base := startServer(t, Config{})
	bad := map[string]string{contentSHAHeader: strings.Repeat("0", 64)}

	resp, raw := postWithHeaders(t, base+"/v1/analyze/stream", body, bad)
	var eb errorBody
	if err := json.Unmarshal(raw, &eb); err != nil || resp.StatusCode != http.StatusBadRequest || eb.Code != errCodeChecksumMismatch {
		t.Fatalf("unwindowed mismatch: status %d body %s, want 400 %q", resp.StatusCode, raw, errCodeChecksumMismatch)
	}

	stream := func(sha string) (int, []streamLine) {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/analyze/stream?window="+itoa(int64(tr.End()/50+1)), bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(contentSHAHeader, sha)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode, ndjsonLines(t, resp.Body)
	}
	status, lines := stream(bad[contentSHAHeader])
	if status != http.StatusOK || len(lines) < 2 || lines[0].Window == nil {
		t.Fatalf("windowed mismatch: status %d, %d lines; want windows on the wire first", status, len(lines))
	}
	last := lines[len(lines)-1]
	if !strings.Contains(last.Error, "checksum mismatch") {
		t.Errorf("last line %+v, want the checksum mismatch in-band", last)
	}
	for _, l := range lines {
		if l.Final {
			t.Error("a damaged upload got a final line")
		}
	}

	status, lines = stream(bodySHA(body))
	if status != http.StatusOK || len(lines) == 0 || !lines[len(lines)-1].Final {
		t.Fatalf("correct checksum: status %d, %d lines, want a final line", status, len(lines))
	}
}

// TestRequestLogCacheOutcome pins the cache outcome each engine logs.
func TestRequestLogCacheOutcome(t *testing.T) {
	body := traceBody(t, testTrace(t, 3))
	want := map[string]string{"batch": "miss", "batch-nocache": "off", "memory-budget": "bypass", "stream": "bypass"}
	for _, tg := range pipelineTargets {
		var log syncBuffer
		cfg := tg.cfg
		cfg.RequestLog = &log
		_, base := startServer(t, cfg)
		if resp, raw := post(t, base+tg.path, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d body %s", tg.name, resp.StatusCode, raw)
		}
		var e requestLogLine
		if err := json.Unmarshal([]byte(log.waitLines(t, 1)[0]), &e); err != nil {
			t.Fatal(err)
		}
		if e.Status != http.StatusOK || e.Cache != want[tg.name] {
			t.Errorf("%s: logged status %d cache %q, want 200 %q", tg.name, e.Status, e.Cache, want[tg.name])
		}
	}
}
