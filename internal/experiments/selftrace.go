package experiments

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/metrics"
	"perturb/internal/obs"
	"perturb/internal/selftrace"
	"perturb/internal/server"
	"perturb/internal/testgen"
	"perturb/internal/timing"
	"perturb/internal/trace"
)

// SelfTraceResult is the dogfooded service-parallelism study: a
// chaos-soak style workload is driven against an in-process perturbd
// with the span recorder attached, the recorder's spans are exported as
// an event trace, and that trace is fed back through the event-based
// analysis — the service analyzed by its own pipeline. The study reports
// where request time went (per-phase spans), how much the service
// actually overlapped work (busy time vs wall time across request
// processors), and what attaching the recorder cost against the obs
// layer's <3% self-perturbation budget.
type SelfTraceResult struct {
	// Soak shape.
	Requests    int
	Concurrency int
	OK          int
	Failed      int

	// Exported trace shape.
	Manifest *selftrace.Manifest
	Defects  int

	// Analysis of the self-trace.
	Duration        trace.Time
	WaitsKept       int
	WaitsRemoved    int
	WaitsIntroduced int

	// Per-phase compute records in the exported trace, by phase name.
	PhaseCounts []PhaseCount

	// Waiting profile of the request processors and the derived average
	// parallelism (total busy time / wall time).
	Waiting        []metrics.ProcWaiting
	AvgParallelism float64

	// Overhead holds the per-round ratios attached/detached of the soak's
	// cost, on the wall clock and on the process CPU clock.
	Overhead timing.Result
}

// PhaseCount is one phase's compute-record count in the exported trace.
type PhaseCount struct {
	Name  string
	Count int
}

// SelfTraceConfig sizes the study; zero fields get defaults.
type SelfTraceConfig struct {
	// Requests is the soak size. Default 48.
	Requests int
	// Concurrency is how many client goroutines drive the soak; more
	// than the server's running cap, so queue waits occur. Default 8.
	Concurrency int
	// Procs and Iters shape the workload traces (testgen.BackwardWave).
	// Defaults 4 and 300.
	Procs, Iters int
}

func (c SelfTraceConfig) withDefaults() SelfTraceConfig {
	if c.Requests <= 0 {
		c.Requests = 48
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Procs <= 0 {
		c.Procs = 4
	}
	if c.Iters <= 0 {
		c.Iters = 300
	}
	return c
}

// SelfTrace runs the dogfooded study. Like SelfPerturb its output holds
// timings, so it is not part of RunAll or the Markdown report.
func SelfTrace(cfg SelfTraceConfig) (*SelfTraceResult, error) {
	cfg = cfg.withDefaults()

	// Workload: a third of the requests are distinct traces, the rest
	// duplicates, so the soak exercises every request shape the recorder
	// instruments — fresh analyses through the admission queue, cache
	// hits, and coalesced singleflight waits.
	distinct := cfg.Requests / 3
	if distinct < 1 {
		distinct = 1
	}
	bodies := make([]*trace.Trace, distinct)
	for i := range bodies {
		bodies[i] = testgen.BackwardWave(cfg.Procs, cfg.Iters+i)
	}

	// The study soak, recorder attached: source of the exported trace.
	rec := obs.NewRecorder(0)
	res := &SelfTraceResult{Requests: cfg.Requests, Concurrency: cfg.Concurrency}
	if _, err := soak(cfg, bodies, rec, res); err != nil {
		return nil, err
	}

	st, manifest := selftrace.Export(rec)
	if err := st.Validate(); err != nil {
		return nil, fmt.Errorf("self-trace invalid: %w", err)
	}
	res.Manifest = manifest
	res.Defects = len(trace.Audit(st))

	// Feed the service's own trace through the event-based analysis. The
	// self-trace carries no probe overhead to remove, so the calibration
	// is all zeros: the approximation reproduces the measured timeline
	// and the value is the waiting classification.
	cal := instr.Calibration{Overheads: instr.Uniform(0)}
	approx, err := core.AnalyzeContext(context.Background(), st, cal, core.Options{Mode: core.ModeEventBased})
	if err != nil {
		return nil, fmt.Errorf("analyzing self-trace: %w", err)
	}
	res.Duration = approx.Duration
	res.WaitsKept = approx.WaitsKept
	res.WaitsRemoved = approx.WaitsRemoved
	res.WaitsIntroduced = approx.WaitsIntroduced

	// Per-phase compute counts, named through the manifest.
	counts := map[int]int{}
	for _, e := range st.Events {
		if e.Kind == trace.KindCompute {
			counts[e.Stmt]++
		}
	}
	for stmt, n := range counts {
		name := fmt.Sprintf("stmt%d", stmt)
		if stmt >= 0 && stmt < len(manifest.Stmts) {
			name = manifest.Stmts[stmt]
		}
		res.PhaseCounts = append(res.PhaseCounts, PhaseCount{Name: name, Count: n})
	}
	sort.Slice(res.PhaseCounts, func(i, j int) bool { return res.PhaseCounts[i].Name < res.PhaseCounts[j].Name })

	// Waiting and parallelism over the request processors. The resource
	// processors carry only instantaneous advances; their rows are
	// dropped so idle synthetic processors do not dilute the profile.
	ws, err := metrics.Waiting(st, cal)
	if err != nil {
		return nil, fmt.Errorf("waiting profile: %w", err)
	}
	var busy trace.Time
	for _, w := range ws {
		if w.Proc < manifest.RequestProcs {
			res.Waiting = append(res.Waiting, w)
			busy += w.Busy
		}
	}
	if wall := st.Duration(); wall > 0 {
		res.AvgParallelism = float64(busy) / float64(wall)
	}

	// Recorder overhead: soaks with the recorder attached against
	// detached, in the alternating, collected rounds of timing.Compare.
	soakWith := func(attach bool) func() error {
		return func() error {
			var r *obs.Recorder
			if attach {
				r = obs.NewRecorder(0)
			}
			_, err := soak(cfg, bodies, r, nil)
			return err
		}
	}
	if res.Overhead, err = timing.Compare(soakWith(true), soakWith(false), OverheadBudget); err != nil {
		return nil, err
	}
	return res, nil
}

// soak drives the workload against a fresh in-process perturbd with the
// given recorder (nil detaches it) and returns how many requests
// succeeded. When res is non-nil its OK/Failed counters are filled.
func soak(cfg SelfTraceConfig, bodies []*trace.Trace, rec *obs.Recorder, res *SelfTraceResult) (int, error) {
	srv := server.New(server.Config{
		MaxConcurrency: 4,
		QueueDepth:     cfg.Requests, // queue everything; the study sheds nothing
		RequestTimeout: 30 * time.Second,
		Recorder:       rec,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &server.Client{BaseURL: ts.URL, HTTPClient: ts.Client()}

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		ok   int
		last error
	)
	next := make(chan int, cfg.Requests)
	for i := 0; i < cfg.Requests; i++ {
		next <- i
	}
	close(next)
	for g := 0; g < cfg.Concurrency; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				_, err := client.Analyze(context.Background(), bodies[i%len(bodies)], server.Request{})
				mu.Lock()
				if err != nil {
					last = err
				} else {
					ok++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	// Drain so the self-trace ends with the shutdown barrier.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := srv.Shutdown(ctx); err != nil {
		return ok, err
	}
	if res != nil {
		res.OK = ok
		res.Failed = cfg.Requests - ok
	}
	if last != nil {
		return ok, fmt.Errorf("soak: %d/%d requests failed, last: %w", cfg.Requests-ok, cfg.Requests, last)
	}
	return ok, nil
}

// Render writes the study as a small report. It holds timings, so it is
// not part of RunAll or the Markdown report.
func (r *SelfTraceResult) Render(w io.Writer) error {
	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := p("Self-tracing perturbd: %d requests over %d client goroutines (running cap 4)\n",
		r.Requests, r.Concurrency); err != nil {
		return err
	}
	if err := p("soak: %d ok, %d failed; exported %d events over %d request procs (peak %d concurrent, %d dropped), %d defects\n",
		r.OK, r.Failed, r.Manifest.Events, r.Manifest.RequestProcs, r.Manifest.ProcPeak, r.Manifest.Dropped, r.Defects); err != nil {
		return err
	}
	if err := p("analysis: duration %v, waits kept %d, removed %d, introduced %d\n",
		time.Duration(r.Duration), r.WaitsKept, r.WaitsRemoved, r.WaitsIntroduced); err != nil {
		return err
	}
	if err := p("phases (compute records):\n"); err != nil {
		return err
	}
	for _, pc := range r.PhaseCounts {
		if err := p("  %-16s %6d\n", pc.Name, pc.Count); err != nil {
			return err
		}
	}
	if err := p("request processors (await / barrier / busy):\n"); err != nil {
		return err
	}
	for i, w := range r.Waiting {
		if i == 8 {
			if err := p("  ... %d more\n", len(r.Waiting)-i); err != nil {
				return err
			}
			break
		}
		if err := p("  p%-3d %12v %12v %12v\n", w.Proc,
			time.Duration(w.Await), time.Duration(w.Barrier), time.Duration(w.Busy)); err != nil {
			return err
		}
	}
	if err := p("average parallelism %.2f\n", r.AvgParallelism); err != nil {
		return err
	}
	if err := p("recorder overhead, attached vs detached:\n"); err != nil {
		return err
	}
	return renderOverhead(w, r.Overhead)
}
