package perturb

import (
	"context"
	"io"
	"iter"
	"sync"

	"perturb/internal/core"
)

// Streaming analysis: the incremental counterpart of Analyze. A session
// ingests measured events in arrival order — from a live tracer, a
// growing file, or a network stream — and emits windowed intermediate
// results while the run is still in progress; closing the session yields
// the same Approximation batch Analyze computes over the same events,
// because both run the same engine. Batch Analyze is the one-shot form
// (feed everything, close immediately); StreamAnalyzer is the general
// form.
type (
	// StreamOptions configures NewStreamAnalyzer: analysis mode, repair,
	// window geometry, memory policy. The zero value streams the classic
	// event-based analysis with a single cumulative window at Close.
	StreamOptions = core.StreamOptions
	// WindowResult is one window of streaming output: waiting,
	// parallelism and per-processor timing for a measured-time interval.
	WindowResult = core.WindowResult
	// WindowProc is one processor's share of a WindowResult.
	WindowProc = core.WindowProc
)

// StreamAnalyzer is an incremental analysis session over a live event
// stream. Feed events as they arrive (any chunking — results never
// depend on how the stream is split), drain finished windows with
// Results, and Close to obtain the final Approximation:
//
//	sa, _ := perturb.NewStreamAnalyzer(cal, perturb.StreamOptions{
//		Window: 10 * perturb.Microsecond,
//	})
//	for batch := range source {
//		_ = sa.Feed(ctx, batch)
//		for w := range sa.Results() {
//			fmt.Printf("window %d: waiting %v\n", w.Index, w.Waiting)
//		}
//	}
//	approx, _ := sa.Close(ctx)
//
// Windows become available mid-stream when the feed is globally
// time-sorted (the natural order of a merged trace): once the stream's
// high-water mark passes a window's end, no later event can land in it.
// Unsorted feeds still analyze exactly; their windows all surface at
// Close. With StreamOptions.LowMemory the session keeps only
// synchronization state in flight — memory stays bounded regardless of
// trace length — and Close returns a summary-only Approximation.
//
// A StreamAnalyzer is safe for concurrent use, though feeding from one
// goroutine is the typical shape: events must arrive in a single
// well-defined order for results to be meaningful.
type StreamAnalyzer struct {
	mu sync.Mutex
	s  *core.Stream
}

// NewStreamAnalyzer starts a streaming analysis session under the
// calibration. It fails for option combinations that cannot run
// incrementally: the Liberal mode (whole-trace rescheduling) and
// Repair together with LowMemory (the sanitizer needs the full feed).
func NewStreamAnalyzer(cal Calibration, opts StreamOptions) (*StreamAnalyzer, error) {
	s, err := core.NewStream(cal, opts)
	if err != nil {
		return nil, err
	}
	return &StreamAnalyzer{s: s}, nil
}

// Feed ingests the next events of the stream, in arrival order. The
// analysis advances as far as the new events allow before returning;
// finished windows queue for Results. Validation failures and
// cancellation (ErrCanceled / ErrDeadlineExceeded) abandon the session.
func (a *StreamAnalyzer) Feed(ctx context.Context, events []Event) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.s.Feed(ctx, events)
}

// FeedReader drains a streaming trace reader into the session, feeding
// the events of each read as they arrive: the bridge from the trace
// codecs (NewTraceReader) to streaming analysis without materializing
// the trace.
func (a *StreamAnalyzer) FeedReader(ctx context.Context, r TraceReader) error {
	batch := make([]Event, 4096)
	for {
		n, err := r.Read(batch)
		if n > 0 {
			if ferr := a.Feed(ctx, batch[:n]); ferr != nil {
				return ferr
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// Results yields the finished windows emitted since the last call, in
// window-index order, without blocking — an empty sequence when nothing
// new has finished. Call it between feeds for live output and once after
// Close for the remainder.
func (a *StreamAnalyzer) Results() iter.Seq[WindowResult] {
	a.mu.Lock()
	ws := a.s.Windows()
	a.mu.Unlock()
	return func(yield func(WindowResult) bool) {
		for _, w := range ws {
			if !yield(w) {
				return
			}
		}
	}
}

// Close ends the stream and returns the final Approximation — identical
// to batch Analyze over the same events. Any windows not yet drained
// (including all windows of an unsorted or repair-mode feed) become
// available via Results afterwards. Close is idempotent.
func (a *StreamAnalyzer) Close(ctx context.Context) (*Approximation, error) {
	defer spStreamClose.Start().End()
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.s.Close(ctx)
}
