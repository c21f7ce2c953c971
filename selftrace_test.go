package perturb_test

// The dogfooding acceptance test: a chaos-soak style workload drives an
// in-process perturbd with the span recorder attached, the recorder's
// export round-trips through the columnar codec, and perturb.Analyze
// loads the service's own trace into a valid summary with the request
// phases present — the service is a subject program of its own analysis.

import (
	"bytes"
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"perturb"
	"perturb/internal/obs"
	"perturb/internal/selftrace"
	"perturb/internal/server"
	"perturb/internal/testgen"
)

func TestSelfTraceAnalyzesOwnService(t *testing.T) {
	const (
		requests    = 24
		concurrency = 6
	)
	rec := obs.NewRecorder(0)
	srv := server.New(server.Config{
		MaxConcurrency: 3,
		QueueDepth:     requests,
		RequestTimeout: 30 * time.Second,
		Recorder:       rec,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &server.Client{BaseURL: ts.URL, HTTPClient: ts.Client()}

	// A chaos-soak style mix: a few distinct traces plus duplicates, so
	// requests exercise fresh analyses, cache hits and coalesced flights.
	traces := []*perturb.Trace{
		testgen.BackwardWave(4, 120),
		testgen.BackwardWave(4, 121),
		testgen.BackwardWave(3, 150),
	}
	var wg sync.WaitGroup
	errs := make(chan error, requests)
	next := make(chan int, requests)
	for i := 0; i < requests; i++ {
		next <- i
	}
	close(next)
	for g := 0; g < concurrency; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if _, err := client.Analyze(context.Background(), traces[i%len(traces)], server.Request{}); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("soak request failed: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The -selftrace file path: export, write columnar, load back through
	// the facade like any other trace.
	var file bytes.Buffer
	if err := selftrace.WriteTo(rec, &file); err != nil {
		t.Fatalf("writing self-trace: %v", err)
	}
	st, err := perturb.ReadTraceColumnar(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatalf("self-trace file unreadable: %v", err)
	}
	if err := st.Validate(); err != nil {
		t.Fatalf("self-trace invalid: %v", err)
	}
	if defects := perturb.AuditTrace(st); len(defects) != 0 {
		t.Fatalf("self-trace audits dirty: %v", defects)
	}

	// The service's own trace carries no probe overhead; a zero
	// calibration analyzes the measured timeline as-is.
	cal := perturb.Calibration{Overheads: perturb.UniformOverheads(0)}
	approx, err := perturb.Analyze(st, cal, perturb.AnalyzeOptions{Mode: perturb.EventBased})
	if err != nil {
		t.Fatalf("perturb.Analyze on the self-trace: %v", err)
	}
	if approx.Duration <= 0 {
		t.Fatalf("approximated duration = %v", approx.Duration)
	}
	if approx.Trace.Len() != st.Len() {
		t.Fatalf("analysis dropped events: %d != %d", approx.Trace.Len(), st.Len())
	}

	// Per-phase spans are present: every request phase appears as compute
	// records under its manifest statement id.
	_, m := selftrace.Export(rec)
	for _, phase := range []string{"server.admission", "server.decode", "server.analyze", "server.encode"} {
		id, ok := m.StmtID(phase)
		if !ok {
			t.Errorf("phase %q missing from the manifest (stmts %v)", phase, m.Stmts)
			continue
		}
		n := 0
		for _, e := range approx.Trace.Events {
			if e.Kind == perturb.KindCompute && e.Stmt == id {
				n++
			}
		}
		if n == 0 {
			t.Errorf("phase %q has no compute records in the analyzed trace", phase)
		}
	}

	// The soak was concurrent, so the self-trace must show more than one
	// request processor.
	if m.RequestProcs < 2 {
		t.Errorf("RequestProcs = %d, want concurrent request slots", m.RequestProcs)
	}
}
