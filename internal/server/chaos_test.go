package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"perturb/internal/core"
	"perturb/internal/faults"
	"perturb/internal/instr"
	"perturb/internal/loops"
	"perturb/internal/machine"
	"perturb/internal/program"
	"perturb/internal/trace"
)

// bigTrace simulates an 8-phase program so the encoded body is several
// times larger than a single-loop trace — the "oversized" payload for the
// body cap.
func bigTrace(t testing.TB) *trace.Trace {
	t.Helper()
	def, err := loops.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	phases := make([]*program.Loop, 8)
	for i := range phases {
		phases[i] = def.Loop
	}
	prog := program.NewProgram("chaos-oversize", phases...)
	res, err := machine.RunProgram(prog, instr.FullPlan(loops.PaperOverheads(), true), machine.Alliant())
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

// renderJSON produces the exact bytes the service writes for a 200: the
// locally computed response through the same indenting encoder.
func renderJSON(t testing.TB, tr *trace.Trace, opts core.Options) []byte {
	t.Helper()
	approx, err := core.Analyze(tr, DefaultCalibration(), opts)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := BuildResponse(approx)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChaosSoak throws 64 concurrent requests at one service instance:
// valid traces, fault-injected traces with and without repair, oversized
// bodies, and requests whose client context is cancelled mid-flight. The
// service must keep answering health checks, give every undisturbed
// request a byte-identical answer to a direct in-process analysis, and
// come out the other side without leaked goroutines.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is not a -short test")
	}

	valid := testTrace(t, 3)
	// Reorder faults (plus some sync drops) rather than DropsOnly: pure
	// drops degrade gracefully to the no-wait path, but reordered
	// timestamps create await cycles the strict analysis must reject.
	// Injection is seeded, so this spec corrupts identically every run.
	corrupt, report := faults.Inject(valid, faults.Spec{Seed: 2, Reorder: 0.05, DropSync: 0.025})
	if report.Total() == 0 {
		t.Fatal("fault injection placed nothing; chaos corrupt tier is vacuous")
	}
	// Pin the expected server verdicts by running the same analyses
	// locally first: the defective trace must fail strict analysis and
	// pass with repair, or the tiers below assert the wrong statuses.
	if _, err := core.Analyze(corrupt, DefaultCalibration(), core.Options{}); err == nil {
		t.Fatal("injected trace analyzed cleanly; pick a harsher fault spec")
	}
	wantValid := renderJSON(t, valid, core.Options{})
	wantRepaired := renderJSON(t, corrupt, core.Options{Repair: true})

	var validBody, corruptBody, oversizeBody bytes.Buffer
	if err := valid.WriteBinary(&validBody); err != nil {
		t.Fatal(err)
	}
	if err := corrupt.WriteBinary(&corruptBody); err != nil {
		t.Fatal(err)
	}
	if err := bigTrace(t).WriteBinary(&oversizeBody); err != nil {
		t.Fatal(err)
	}
	cap := int64(validBody.Len()) * 2
	if int64(oversizeBody.Len()) <= cap {
		t.Fatalf("oversize body (%d bytes) does not exceed the cap (%d)", oversizeBody.Len(), cap)
	}

	// Queue depth covers the whole storm so no legitimate request is shed:
	// this test is about correctness under load, TestAdmissionControl
	// covers shedding. The cache is off so every response is compared
	// byte-for-byte against the locally rendered pre-cache wire format;
	// TestCacheStorm covers the cached path under the same kind of load.
	_, base := startServer(t, Config{
		MaxConcurrency: 4,
		QueueDepth:     64,
		MaxBodyBytes:   cap,
		CacheBytes:     -1,
	})

	const requests = 64
	type outcome struct {
		kind   string
		status int
		body   []byte
		err    error
	}
	outcomes := make([]outcome, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			var (
				kind string
				url  = base + "/v1/analyze"
				body []byte
			)
			switch i % 4 {
			case 0:
				kind, body = "valid", validBody.Bytes()
			case 1:
				kind, body = "corrupt", corruptBody.Bytes()
			case 2:
				kind, body = "repaired", corruptBody.Bytes()
				url += "?repair=1"
			case 3:
				if i%8 == 3 {
					kind, body = "oversize", oversizeBody.Bytes()
				} else {
					kind, body = "canceled", validBody.Bytes()
					var cancel context.CancelFunc
					ctx, cancel = context.WithCancel(ctx)
					// Cancel while the request is queued or running; the
					// exact phase varies with scheduling, which is the
					// point of the chaos tier.
					time.AfterFunc(time.Duration(i)*time.Millisecond, cancel)
					defer cancel()
				}
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
			if err != nil {
				outcomes[i] = outcome{kind: kind, err: err}
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				outcomes[i] = outcome{kind: kind, err: err}
				return
			}
			defer resp.Body.Close()
			got, err := io.ReadAll(resp.Body)
			outcomes[i] = outcome{kind: kind, status: resp.StatusCode, body: got, err: err}
		}(i)
	}

	// The daemon must stay live while the storm is in progress.
	stormDone := make(chan struct{})
	go func() { wg.Wait(); close(stormDone) }()
	for {
		r, err := http.Get(base + "/healthz")
		if err != nil || r.StatusCode != http.StatusOK {
			t.Errorf("healthz during storm: status=%v err=%v", r, err)
		}
		if err == nil {
			r.Body.Close()
		}
		select {
		case <-stormDone:
		case <-time.After(20 * time.Millisecond):
			continue
		}
		break
	}

	counts := map[string]int{}
	for i, o := range outcomes {
		counts[o.kind]++
		switch o.kind {
		case "valid":
			if o.err != nil || o.status != http.StatusOK {
				t.Errorf("request %d (valid): status=%d err=%v", i, o.status, o.err)
			} else if !bytes.Equal(o.body, wantValid) {
				t.Errorf("request %d (valid): response differs from direct analysis:\n got %s\nwant %s", i, o.body, wantValid)
			}
		case "corrupt":
			if o.err != nil || o.status != http.StatusUnprocessableEntity {
				t.Errorf("request %d (corrupt): status=%d err=%v, want 422", i, o.status, o.err)
			}
		case "repaired":
			if o.err != nil || o.status != http.StatusOK {
				t.Errorf("request %d (repaired): status=%d err=%v", i, o.status, o.err)
			} else if !bytes.Equal(o.body, wantRepaired) {
				t.Errorf("request %d (repaired): response differs from direct repair analysis:\n got %s\nwant %s", i, o.body, wantRepaired)
			}
		case "oversize":
			if o.err != nil || o.status != http.StatusRequestEntityTooLarge {
				t.Errorf("request %d (oversize): status=%d err=%v, want 413", i, o.status, o.err)
			}
		case "canceled":
			// The cancel races the analysis: a transport error (context
			// canceled) and a completed response are both legitimate. The
			// requirement is that the request terminates — which reaching
			// this line after wg.Wait proves — and that the server stays
			// healthy, checked below.
			if o.err == nil && o.status == http.StatusOK && !bytes.Equal(o.body, wantValid) {
				t.Errorf("request %d (canceled-but-finished): completed response differs from direct analysis", i)
			}
		default:
			t.Errorf("request %d: recorded no outcome", i)
		}
	}
	t.Logf("chaos mix: %v", counts)

	// The service must be fully recovered: healthy, ready, and still
	// producing byte-identical answers.
	for _, path := range []string{"/healthz", "/readyz"} {
		r, err := http.Get(base + path)
		if err != nil || r.StatusCode != http.StatusOK {
			t.Fatalf("%s after storm: status=%v err=%v", path, r, err)
		}
		r.Body.Close()
	}
	resp, err := http.Post(base+"/v1/analyze", "application/octet-stream", bytes.NewReader(validBody.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	after, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(after, wantValid) {
		t.Fatalf("post-storm analysis: status=%d, body differs=%v", resp.StatusCode, !bytes.Equal(after, wantValid))
	}
}

// TestChaosNoGoroutineLeak runs a smaller storm in its own test so the
// goroutine accounting is not polluted by other tests' servers, then
// checks the count settles back to the baseline.
func TestChaosNoGoroutineLeak(t *testing.T) {
	valid := testTrace(t, 3)
	var body bytes.Buffer
	if err := valid.WriteBinary(&body); err != nil {
		t.Fatal(err)
	}
	_, base := startServer(t, Config{MaxConcurrency: 2, QueueDepth: 32})

	// Warm the transport's connection pool before the baseline so idle
	// keep-alive readers are not counted as leaks.
	r, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	before := runtime.NumGoroutine()

	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if i%3 == 0 {
				time.AfterFunc(time.Duration(i)*time.Millisecond, cancel)
			}
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/analyze", bytes.NewReader(body.Bytes()))
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()
	http.DefaultClient.CloseIdleConnections()

	for wait := 0; wait < 100; wait++ {
		runtime.GC()
		if after := runtime.NumGoroutine(); after <= before+4 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after the storm settled", before, runtime.NumGoroutine())
}
