package rt

import (
	"fmt"
	"time"

	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/program"
	"perturb/internal/trace"
)

// StudyConfig configures a complete perturbation study of a goroutine
// DOACROSS loop: run untraced, run traced, calibrate in vitro, analyze.
type StudyConfig struct {
	Workers  int
	Iters    int
	Distance int
	Schedule program.Schedule
	// Warmup is the number of untraced warm-up runs before timing
	// (default 1).
	Warmup int
	// CalibrationRounds for probe and sync cost measurement (default 5).
	CalibrationRounds int
	// EventsPerIter sizes the tracer buffers (default 8).
	EventsPerIter int
}

// StudyResult is the outcome of a Study.
type StudyResult struct {
	// Untraced and Traced are the wall times of the two runs.
	Untraced, Traced time.Duration
	// Trace is the recorded measurement.
	Trace *trace.Trace
	// Cal is the in-vitro calibration used for the analysis.
	Cal instr.Calibration
	// Approx is the event-based approximation of the traced run.
	Approx *core.Approximation
}

// Slowdown is the tracing perturbation: traced / untraced wall time.
func (r *StudyResult) Slowdown() float64 {
	if r.Untraced <= 0 {
		return 0
	}
	return float64(r.Traced) / float64(r.Untraced)
}

// RecoveryRatio compares the approximated duration to the untraced wall
// time. On a quiet machine with workers <= cores this approaches 1; on an
// oversubscribed machine scheduler noise widens it.
func (r *StudyResult) RecoveryRatio() float64 {
	if r.Untraced <= 0 {
		return 0
	}
	return float64(r.Approx.Duration) / float64(r.Untraced.Nanoseconds())
}

// Study runs the paper's full pipeline against real goroutines: warm up,
// time an untraced run, time a traced run, calibrate the tracer and the
// synchronization costs in vitro, and apply event-based analysis to the
// real trace.
func Study(cfg StudyConfig, body func(*Ctx)) (*StudyResult, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("rt: study requires Workers >= 1")
	}
	if cfg.Warmup < 1 {
		cfg.Warmup = 1
	}
	if cfg.CalibrationRounds < 1 {
		cfg.CalibrationRounds = 5
	}
	if cfg.EventsPerIter < 1 {
		cfg.EventsPerIter = 8
	}
	run := func(tr *Tracer) (time.Duration, error) {
		c := Config{
			Workers: cfg.Workers, Iters: cfg.Iters,
			Distance: cfg.Distance, Schedule: cfg.Schedule, Tracer: tr,
		}
		t0 := time.Now()
		_, err := Doacross(c, body)
		return time.Since(t0), err
	}
	for i := 0; i < cfg.Warmup; i++ {
		if _, err := run(nil); err != nil {
			return nil, err
		}
	}
	untraced, err := run(nil)
	if err != nil {
		return nil, err
	}
	tracer := NewTracer(cfg.Workers, cfg.EventsPerIter*cfg.Iters/max(1, cfg.Workers)+16)
	traced, err := run(tracer)
	if err != nil {
		return nil, err
	}
	tr := tracer.Trace()

	cal := CalibrateSync(cfg.CalibrationRounds)
	cal.Overheads = Calibrate(cfg.CalibrationRounds)
	approx, err := core.EventBased(tr, cal)
	if err != nil {
		return nil, fmt.Errorf("rt: analyzing real trace: %w", err)
	}
	return &StudyResult{
		Untraced: untraced,
		Traced:   traced,
		Trace:    tr,
		Cal:      cal,
		Approx:   approx,
	}, nil
}
