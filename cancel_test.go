package perturb_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"perturb"
)

// cancelTrace simulates an instrumented multi-phase program of Livermore
// loop 3 runs, producing a trace large enough (>100k events) that the
// analysis takes long enough for a mid-flight deadline to land inside the
// engine rather than before it starts.
func cancelTrace(t testing.TB) *perturb.Trace {
	t.Helper()
	loop, err := perturb.LivermoreLoop(3)
	if err != nil {
		t.Fatal(err)
	}
	phases := make([]*perturb.Loop, 8)
	for i := range phases {
		phases[i] = loop
	}
	prog := perturb.NewProgram("cancel-soak", phases...)
	cfg := perturb.Alliant()
	res, err := perturb.SimulateProgram(prog, perturb.FullInstrumentation(perturb.PaperOverheads(), true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

func cancelCal(cfg perturb.MachineConfig) perturb.Calibration {
	return perturb.ExactCalibration(perturb.PaperOverheads(), cfg)
}

// analysisVariants lists the analysis configurations the cancellation
// tests drive.
func analysisVariants() map[string]perturb.AnalyzeOptions {
	return map[string]perturb.AnalyzeOptions{
		"sequential": {},
	}
}

func TestAnalyzeContextAlreadyCanceled(t *testing.T) {
	tr := cancelTrace(t)
	cal := cancelCal(perturb.Alliant())
	for name, opts := range analysisVariants() {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			approx, err := perturb.AnalyzeContext(ctx, tr, cal, opts)
			if !errors.Is(err, perturb.ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v does not unwrap to context.Canceled", err)
			}
			if approx != nil {
				t.Fatal("canceled analysis returned a partial Approximation")
			}
		})
	}
}

// countdownCtx is a context whose Err() stays nil for a fixed number of
// polls and then reports cause forever; the Done channel closes at the
// last nil poll. Real deadline timers on a loaded single-CPU machine can
// fire tens of milliseconds late — after a whole analysis has finished —
// so mid-flight expiry is made deterministic instead: expiring on the
// K-th cooperative check lands the cancellation inside the engine no
// matter how fast the machine is.
type countdownCtx struct {
	mu    sync.Mutex
	left  int
	cause error
	done  chan struct{}
}

func newCountdownCtx(polls int, cause error) *countdownCtx {
	return &countdownCtx{left: polls, cause: cause, done: make(chan struct{})}
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return c.done }
func (c *countdownCtx) Value(key any) any           { return nil }

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left > 0 {
		c.left--
		if c.left == 0 {
			close(c.done)
		}
		return nil
	}
	return c.cause
}

// expireMidAnalysis runs the analysis under countdown contexts expiring at
// successively later cooperative checks and returns the first error
// observed, skipping expiry points the engine never reaches. polls=1 is
// excluded: that expires on the entry check, which the already-canceled
// tests cover.
func expireMidAnalysis(t *testing.T, tr *perturb.Trace, cal perturb.Calibration, opts perturb.AnalyzeOptions, cause error) error {
	t.Helper()
	for polls := 2; polls <= 16; polls++ {
		ctx := newCountdownCtx(polls, cause)
		approx, err := perturb.AnalyzeContext(ctx, tr, cal, opts)
		if err == nil {
			continue // analysis finished before the ctx expired
		}
		if approx != nil {
			t.Fatal("expired analysis returned a partial Approximation")
		}
		return err
	}
	t.Fatal("analysis never observed a context that expired mid-flight")
	return nil
}

func TestAnalyzeContextDeadlineMidAnalysis(t *testing.T) {
	tr := cancelTrace(t)
	cal := cancelCal(perturb.Alliant())
	for name, opts := range analysisVariants() {
		t.Run(name, func(t *testing.T) {
			err := expireMidAnalysis(t, tr, cal, opts, context.DeadlineExceeded)
			if !errors.Is(err, perturb.ErrDeadlineExceeded) {
				t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v does not unwrap to context.DeadlineExceeded", err)
			}
		})
	}
}

func TestAnalyzeContextCancelMidAnalysis(t *testing.T) {
	tr := cancelTrace(t)
	cal := cancelCal(perturb.Alliant())
	for name, opts := range analysisVariants() {
		t.Run(name, func(t *testing.T) {
			err := expireMidAnalysis(t, tr, cal, opts, context.Canceled)
			if !errors.Is(err, perturb.ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v does not unwrap to context.Canceled", err)
			}
		})
	}
}

// TestAnalyzeContextNoGoroutineLeak hammers the analysis with mid-flight
// cancellations and checks that nothing it starts outlives the call: a
// leaked goroutine would show up as monotone goroutine growth.
func TestAnalyzeContextNoGoroutineLeak(t *testing.T) {
	tr := cancelTrace(t)
	cal := cancelCal(perturb.Alliant())
	opts := perturb.AnalyzeOptions{}

	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		// Cycle the expiry point through the cooperative checks the
		// pipeline reaches, so runs are cancelled at varying stages.
		perturb.AnalyzeContext(newCountdownCtx(2+i%8, context.Canceled), tr, cal, opts)
	}
	// Give the runtime a moment to reap exiting goroutines before
	// counting.
	var after int
	for wait := 0; wait < 100; wait++ {
		runtime.GC()
		after = runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after 20 canceled analyses", before, after)
}

// TestSimulateAndReadTraceContext exercises the other two cancellable
// entry points with already-expired contexts.
func TestSimulateAndReadTraceContextCanceled(t *testing.T) {
	loop, err := perturb.LivermoreLoop(3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := perturb.SimulateContext(ctx, loop, perturb.NoInstrumentation(), perturb.Alliant()); !errors.Is(err, perturb.ErrCanceled) {
		t.Errorf("SimulateContext err = %v, want ErrCanceled", err)
	}
}
