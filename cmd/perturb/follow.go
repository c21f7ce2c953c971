package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"perturb"
)

// followStudy is the -follow pipeline: tail a growing trace file through
// a streaming analysis session. Windows print as the producer writes
// events; once the file has been quiet for -follow-idle the session
// closes and the summary line — identical to what a batch analysis of the
// finished file would compute — is printed.
func followStudy(w io.Writer, o options) error {
	defer spFollow.Start().End()

	cfg := perturb.Alliant()
	cfg.Procs = o.procs
	ovh := perturb.PaperOverheads()
	if o.probe > 0 {
		ovh = perturb.UniformOverheads(perturb.Time(o.probe.Nanoseconds()))
	}
	cal := perturb.ExactCalibration(ovh, cfg)

	f, err := os.Open(o.followFile)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := perturb.NewTraceReader(&tailReader{f: f, idle: o.followIdle})
	if err != nil {
		return fmt.Errorf("following %s: %w", o.followFile, err)
	}

	opts := perturb.StreamOptions{
		Repair: o.repair,
		Procs:  tr.Procs(),
		Window: perturb.Time(o.window.Nanoseconds()),
		Slide:  perturb.Time(o.slide.Nanoseconds()),
	}
	switch strings.ToLower(o.analysis) {
	case "event":
		opts.Mode = perturb.EventBased
	case "time":
		opts.Mode = perturb.TimeBased
	default:
		return fmt.Errorf("analysis %q cannot run incrementally (use event or time)", o.analysis)
	}
	sa, err := perturb.NewStreamAnalyzer(cal, opts)
	if err != nil {
		return err
	}

	ctx := context.Background()
	events := 0
	var maxTM perturb.Time
	batch := make([]perturb.Event, 4096)
	for {
		n, rerr := tr.Read(batch)
		if n > 0 {
			events += n
			for _, e := range batch[:n] {
				if e.Time > maxTM {
					maxTM = e.Time
				}
			}
			if err := sa.Feed(ctx, batch[:n]); err != nil {
				return err
			}
			printWindows(w, sa, o.quiet)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return fmt.Errorf("following %s: %w", o.followFile, rerr)
		}
	}
	approx, err := sa.Close(ctx)
	if err != nil {
		return err
	}
	printWindows(w, sa, o.quiet)

	mdur := time.Duration(maxTM) * time.Nanosecond
	adur := time.Duration(approx.Duration) * time.Nanosecond
	ratio := 0.0
	if maxTM > 0 {
		ratio = float64(approx.Duration) / float64(maxTM)
	}
	fmt.Fprintf(w, "%s: events %d  measured %v  approximated %v (%.3fx of measured)\n",
		o.followFile, events, mdur, adur, ratio)
	if o.quiet {
		return nil
	}
	fmt.Fprintf(w, "waits kept %d, removed %d, introduced %d\n",
		approx.WaitsKept, approx.WaitsRemoved, approx.WaitsIntroduced)
	if approx.Repair != nil {
		fmt.Fprintf(w, "repair: %s\n", approx.Repair.Summary())
	}
	return nil
}

// printWindows drains the session's finished windows to the report.
func printWindows(w io.Writer, sa *perturb.StreamAnalyzer, quiet bool) {
	for win := range sa.Results() {
		if quiet {
			continue
		}
		fmt.Fprintf(w, "window %d [%v, %v): events %d  procs %d  waiting %v  parallelism %.2f\n",
			win.Index, time.Duration(win.Start), time.Duration(win.End),
			win.Events, win.ActiveProcs, time.Duration(win.Waiting), win.AvgParallelism)
	}
}

// tailReader adapts a growing file to io.Reader: EOF from the file means
// "no new data yet", so reads poll until bytes arrive or the file has
// been idle for the timeout, which ends the stream. The codec reads
// through it only while it has no complete event to hand over, so every
// event in the file reaches the session before a read waits here; a
// record the producer has half written waits for its remaining bytes.
type tailReader struct {
	f    *os.File
	idle time.Duration
}

func (t *tailReader) Read(p []byte) (int, error) {
	poll := t.idle / 40
	if poll < time.Millisecond {
		poll = time.Millisecond
	} else if poll > 50*time.Millisecond {
		poll = 50 * time.Millisecond
	}
	deadline := time.Now().Add(t.idle)
	for {
		n, err := t.f.Read(p)
		if n > 0 {
			// Swallow a trailing EOF: the next call polls for growth.
			return n, nil
		}
		if err != io.EOF {
			return 0, err
		}
		if time.Now().After(deadline) {
			return 0, io.EOF
		}
		time.Sleep(poll)
	}
}
