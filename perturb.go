// Package perturb recovers actual execution performance from perturbed
// performance measurements, implementing the event-based perturbation
// analysis of Malony, "Event-Based Performance Perturbation: A Case Study"
// (PPoPP 1991).
//
// # Overview
//
// Software trace instrumentation perturbs the program it measures: probes
// add execution time, and in dependent concurrent execution they also shift
// the relative timing of synchronization operations, hiding waiting that
// the uninstrumented program would exhibit or introducing waiting it would
// not. This package provides:
//
//   - a statement-level program model with sequential, vector, DOALL and
//     DOACROSS loops (NewLoop, LivermoreLoop);
//   - a deterministic simulator of an 8-processor shared-memory machine in
//     the style of the Alliant FX/80, with advance/await synchronization
//     (Simulate) — running without instrumentation yields the actual
//     execution, running with a Plan yields the measured one;
//   - a unified analysis entry point (Analyze) selecting between
//     time-based analysis (paper §3: per-event probe overhead removal),
//     event-based analysis (paper §4: synchronization modeling), and the
//     liberal reschedule-aware variant — see AnalyzeOptions;
//   - a streaming session API (NewStreamAnalyzer) — the incremental form
//     of Analyze and the primary surface for live data: feed events as
//     they arrive, observe windowed intermediate results (waiting,
//     parallelism, per-processor timing over measured-time windows), and
//     close to obtain exactly the batch result. Batch Analyze and the
//     streaming session run the same engine; see StreamOptions;
//   - a trace sanitizer (ValidateTrace via Trace.Validate, RepairTrace,
//     AuditTrace) that classifies and repairs real-world trace defects —
//     dropped probes, unmatched synchronization, clock skew, truncated
//     processors — and a degraded analysis mode (AnalyzeOptions.Repair)
//     that tolerates repaired traces, reporting per-processor confidence;
//   - a deterministic fault injector (InjectFaults) reproducing those
//     defect classes at seeded rates, for robustness experiments;
//   - lock-based (semaphore-style) critical sections alongside
//     advance/await, in both the simulator and the analyses;
//   - multi-phase programs: sequences of loops with per-phase fork/join
//     fences (NewProgram, SimulateProgram);
//   - trace metrics: per-processor waiting, waiting timelines, parallelism
//     profiles, per-statement profiles, per-event accuracy, critical paths
//     (Waiting, Timeline, Parallelism, StatementProfile, CompareTiming,
//     AnalyzeCriticalPath);
//   - a goroutine runtime with advance/await synchronization for taking
//     real traces of real Go code (package internal/rt, re-exported via
//     the examples);
//   - the paper's full evaluation: Figure 1, Tables 1-3, Figures 4-5
//     (RunPaperExperiments).
//
// # Quickstart
//
//	loop := perturb.NewLoop("my doacross", perturb.DOACROSS, 512).
//		Compute("independent work", 4*perturb.Microsecond).
//		CriticalBegin(0).
//		Compute("shared update", perturb.Microsecond).
//		CriticalEnd(0).
//		Loop()
//	cfg := perturb.Alliant()
//	actual, _ := perturb.Simulate(loop, perturb.NoInstrumentation(), cfg)
//	ovh := perturb.UniformOverheads(5 * perturb.Microsecond)
//	measured, _ := perturb.Simulate(loop, perturb.FullInstrumentation(ovh, true), cfg)
//	cal := perturb.ExactCalibration(ovh, cfg)
//	approx, _ := perturb.Analyze(measured.Trace, cal, perturb.AnalyzeOptions{})
//	// approx.Duration ~ actual.Duration even though measured.Duration is
//	// several times larger.
//
// Traces that lost events in the field (dropped probes, truncated
// buffers) still analyze with repair enabled:
//
//	approx, _ := perturb.Analyze(damaged, cal, perturb.AnalyzeOptions{Repair: true})
//	// approx.Repair details what was fixed; approx.Confidence scores each
//	// processor's share of conservative placeholders.
//
// # Streaming
//
// Live traces analyze incrementally through a session (see StreamAnalyzer
// for details): feed events as they arrive, read windowed results while
// the run is still going, close for the final answer:
//
//	sa, _ := perturb.NewStreamAnalyzer(cal, perturb.StreamOptions{
//		Window: 100 * perturb.Microsecond,
//	})
//	for batch := range liveEvents {
//		_ = sa.Feed(ctx, batch)
//		for w := range sa.Results() {
//			fmt.Printf("t=[%d,%d) waiting=%d parallelism=%.2f\n",
//				w.Start, w.End, w.Waiting, w.AvgParallelism)
//		}
//	}
//	approx, _ := sa.Close(ctx) // identical to batch Analyze
package perturb

import (
	"context"
	"io"

	"perturb/internal/cache"
	"perturb/internal/cancel"
	"perturb/internal/core"
	"perturb/internal/experiments"
	"perturb/internal/faults"
	"perturb/internal/instr"
	"perturb/internal/loops"
	"perturb/internal/machine"
	"perturb/internal/metrics"
	"perturb/internal/obs"
	"perturb/internal/order"
	"perturb/internal/program"
	"perturb/internal/slice"
	"perturb/internal/trace"
)

// Core trace types.
type (
	// Time is a point in simulated or real time, in nanoseconds.
	Time = trace.Time
	// Event is a single trace entry.
	Event = trace.Event
	// Trace is an event sequence with a processor count.
	Trace = trace.Trace
	// Kind classifies trace events.
	Kind = trace.Kind
)

// Event kinds.
const (
	KindCompute        = trace.KindCompute
	KindLoopBegin      = trace.KindLoopBegin
	KindLoopEnd        = trace.KindLoopEnd
	KindAdvance        = trace.KindAdvance
	KindAwaitB         = trace.KindAwaitB
	KindAwaitE         = trace.KindAwaitE
	KindBarrierArrive  = trace.KindBarrierArrive
	KindBarrierRelease = trace.KindBarrierRelease
	KindLockReq        = trace.KindLockReq
	KindLockAcq        = trace.KindLockAcq
	KindLockRel        = trace.KindLockRel
)

// Microsecond is the convenience time unit of the cost models.
const Microsecond = trace.Microsecond

// NewTrace returns an empty trace for the given processor count.
func NewTrace(procs int) *Trace { return trace.New(procs) }

// ReadTraceText, ReadTraceBinary and ReadTraceColumnar parse traces
// written with Trace.WriteText / Trace.WriteBinary / Trace.WriteColumnar.
var (
	ReadTraceText     = trace.ReadText
	ReadTraceBinary   = trace.ReadBinary
	ReadTraceColumnar = trace.ReadColumnar
)

// Streaming trace I/O.
type (
	// TraceReader streams trace events in caller-sized batches with
	// buffer reuse; see NewTraceReader.
	TraceReader = trace.Reader
	// TraceWriter streams trace events into an encoded trace; call
	// Flush once after the last Write.
	TraceWriter = trace.Writer
)

// NewTraceReader auto-detects the codec (text, binary or columnar) and
// returns a streaming reader; use ReadTrace to drain it into a whole
// Trace.
func NewTraceReader(r io.Reader) (TraceReader, error) { return trace.NewReader(r) }

// NewTraceTextWriter and NewTraceBinaryWriter return streaming encoders.
// The binary stream uses an unknown-length header sentinel, so it can be
// produced without knowing the event count up front.
var (
	NewTraceTextWriter   = trace.NewTextWriter
	NewTraceBinaryWriter = trace.NewBinaryWriter
)

// Columnar trace format: block-compressed per-column streams with a
// min/max index per block over time, processor and event kind, so
// windowed readers skip blocks without decoding them. See the README's
// "Trace formats" section for how the three codecs compare.

// TraceBlockFilter selects which columnar blocks a filtered reader
// decodes; the zero value decodes everything.
type TraceBlockFilter = trace.BlockFilter

// NewTraceColumnarWriter returns a streaming encoder for the columnar
// block format.
func NewTraceColumnarWriter(w io.Writer, procs int) (TraceWriter, error) {
	return trace.NewColumnarWriter(w, procs)
}

// NewFilteredTraceReader is NewTraceReader with columnar scan pushdown:
// when the stream is columnar, blocks the filter rules out are skipped
// undecoded. The filter is block-granular — callers still row-filter the
// events they receive.
func NewFilteredTraceReader(r io.Reader, f TraceBlockFilter) (TraceReader, error) {
	return trace.NewFilteredReader(r, f)
}

// ReadTrace drains a streaming reader into a fully materialized trace.
func ReadTrace(r TraceReader) (*Trace, error) {
	defer spReadTrace.Start().End()
	return trace.ReadAll(r)
}

// ReadTraceContext is ReadTrace under a context: the drain polls ctx
// between decode batches and abandons the read with ErrCanceled or
// ErrDeadlineExceeded, so decoding an unbounded stream stops promptly
// when its request is canceled.
func ReadTraceContext(ctx context.Context, r TraceReader) (*Trace, error) {
	defer spReadTrace.Start().End()
	return trace.ReadAllContext(ctx, r)
}

// Program model types.
type (
	// Loop is a statement-level loop model.
	Loop = program.Loop
	// Stmt is one statement of a loop.
	Stmt = program.Stmt
	// Builder constructs loops fluently.
	Builder = program.Builder
	// Mode is the loop execution mode.
	Mode = program.Mode
	// Schedule is the iteration-to-processor discipline.
	Schedule = program.Schedule
)

// Loop modes and schedules.
const (
	Sequential = program.Sequential
	Vector     = program.Vector
	DOALL      = program.DOALL
	DOACROSS   = program.DOACROSS

	Interleaved = program.Interleaved
	Blocked     = program.Blocked
	Dynamic     = program.Dynamic
)

// NewLoop starts building a loop model. Livermore kernel models are
// available via LivermoreLoop.
func NewLoop(name string, mode Mode, iters int) *Builder {
	return program.NewBuilder(name, 0, mode, iters)
}

// Program is a sequence of loop phases executed back to back.
type Program = program.Program

// NewProgram assembles a multi-phase program; simulate it with
// SimulateProgram.
func NewProgram(name string, phases ...*Loop) *Program {
	return program.NewProgram(name, phases...)
}

// LivermoreLoop returns the model of Livermore kernel n (1..24). Loops 3,
// 4 and 17 are the DOACROSS kernels the paper studies.
func LivermoreLoop(n int) (*Loop, error) {
	d, err := loops.Get(n)
	if err != nil {
		return nil, err
	}
	return d.Loop, nil
}

// Machine simulation.
type (
	// MachineConfig describes the simulated multiprocessor.
	MachineConfig = machine.Config
	// RunResult is a simulated execution: trace plus ground truth.
	RunResult = machine.Result
)

// Alliant returns the FX/80-flavoured default machine configuration.
func Alliant() MachineConfig { return machine.Alliant() }

// Simulate executes the loop under the instrumentation plan.
func Simulate(l *Loop, p Plan, cfg MachineConfig) (*RunResult, error) {
	defer spSimulate.Start().End()
	return machine.Run(l, p, cfg)
}

// SimulateContext is Simulate under a context: the discrete-event loop
// polls ctx every few thousand steps and abandons the simulation with
// ErrCanceled or ErrDeadlineExceeded, returning no partial result.
func SimulateContext(ctx context.Context, l *Loop, p Plan, cfg MachineConfig) (*RunResult, error) {
	defer spSimulate.Start().End()
	return machine.RunContext(ctx, l, p, cfg)
}

// SimulateProgram executes a multi-phase program under the plan.
func SimulateProgram(prog *Program, p Plan, cfg MachineConfig) (*RunResult, error) {
	defer spSimulateProgram.Start().End()
	return machine.RunProgram(prog, p, cfg)
}

// SimulateProgramContext is SimulateProgram under a context; each phase
// runs with SimulateContext's cooperative cancellation.
func SimulateProgramContext(ctx context.Context, prog *Program, p Plan, cfg MachineConfig) (*RunResult, error) {
	defer spSimulateProgram.Start().End()
	return machine.RunProgramContext(ctx, prog, p, cfg)
}

// Instrumentation.
type (
	// Plan selects which events are probed and at what cost.
	Plan = instr.Plan
	// Overheads are per-event probe costs.
	Overheads = instr.Overheads
	// Calibration is the analyst's estimate of probe and
	// synchronization costs, the input to the analyses.
	Calibration = instr.Calibration
)

// UniformOverheads charges the same probe cost for every event kind.
func UniformOverheads(c Time) Overheads { return instr.Uniform(c) }

// PaperOverheads returns the probe costs of the paper-scale experiments.
func PaperOverheads() Overheads { return loops.PaperOverheads() }

// FullInstrumentation probes every statement; withSync adds advance/await
// probes (the paper's Table 1 vs Table 2 configurations).
func FullInstrumentation(o Overheads, withSync bool) Plan { return instr.FullPlan(o, withSync) }

// NoInstrumentation emits the actual (unperturbed) trace via a zero-cost
// omniscient observer.
func NoInstrumentation() Plan { return instr.NonePlan() }

// ExactCalibration returns the calibration that reports the machine's true
// costs; see PerturbedCalibration for modeling calibration error.
func ExactCalibration(o Overheads, cfg MachineConfig) Calibration {
	return instr.Exact(o, cfg.SNoWait, cfg.SWait, cfg.AdvanceOp, cfg.Barrier)
}

// PerturbedCalibration skews cal by a deterministic relative error (at most
// maxRelErrPerMille/1000 per constant), emulating real in-vitro overhead
// measurement noise.
func PerturbedCalibration(cal Calibration, seed uint64, maxRelErrPerMille int) Calibration {
	return instr.Perturbed(cal, seed, maxRelErrPerMille)
}

// Analyses.
type (
	// Approximation is a perturbation-analysis result: the measured
	// trace re-timed to approximate the actual execution.
	Approximation = core.Approximation
	// ProcConfidence is one processor's degraded-mode quality summary on
	// an Approximation (see AnalyzeOptions.Repair).
	ProcConfidence = core.ProcConfidence
	// AnalyzeOptions configures Analyze. The zero value runs the
	// event-based analysis of a well-formed trace.
	AnalyzeOptions = core.Options
	// AnalyzeMode selects the analysis family in AnalyzeOptions.
	AnalyzeMode = core.Mode
	// LiberalOptions parameterizes the liberal analysis mode.
	LiberalOptions = core.LiberalOptions
)

// Analysis modes for AnalyzeOptions.Mode.
const (
	// EventBased (the default) models synchronization operations and
	// reconstructs waiting (paper §4).
	EventBased = core.ModeEventBased
	// TimeBased removes per-event probe overhead thread by thread,
	// without interpreting synchronization (paper §3).
	TimeBased = core.ModeTimeBased
	// Liberal re-derives DOACROSS dependencies from the loop's dependence
	// distance, predicting behaviour under other schedules (paper §4.2.3).
	Liberal = core.ModeLiberal
)

// Analyze recovers an approximation of the actual execution from the
// measured trace under the calibration, applying the analysis selected by
// opts (see AnalyzeOptions):
//
//   - opts.Mode picks the analysis family (EventBased, TimeBased,
//     Liberal);
//   - opts.Repair sanitizes defective traces first (see RepairTrace) and
//     tolerates the repairs, attaching the repair report and per-processor
//     confidence scores to the result.
func Analyze(m *Trace, cal Calibration, opts AnalyzeOptions) (*Approximation, error) {
	defer spAnalyze.Start().End()
	return core.Analyze(m, cal, opts)
}

// AnalyzeContext is Analyze under a context: the analysis polls ctx
// cooperatively — every few thousand events inside the hot resolution
// loop — and abandons the run with ErrCanceled or ErrDeadlineExceeded
// (matching context.Canceled / context.DeadlineExceeded too under
// errors.Is) without returning a partial Approximation. A background
// context reproduces Analyze exactly.
func AnalyzeContext(ctx context.Context, m *Trace, cal Calibration, opts AnalyzeOptions) (*Approximation, error) {
	defer spAnalyze.Start().End()
	return core.AnalyzeContext(ctx, m, cal, opts)
}

// CachedAnalyzer memoizes Analyze results in-process. The analysis is
// deterministic — the same trace, calibration and options always yield
// the same approximation — so results are stored content-addressed: the
// key hashes the decoded events (codec-invariant) plus every analysis
// input that changes the output. Repeated analyses of an unchanged input
// cost a hash and a map lookup; concurrent identical analyses coalesce
// onto a single computation. This is the same engine perturbd uses for
// its service-side result cache.
//
// A CachedAnalyzer is safe for concurrent use. Returned approximations
// are shared across callers and must be treated as read-only.
type CachedAnalyzer struct {
	c *Cache
}

// Cache is the in-process analysis-result cache backing a CachedAnalyzer;
// see NewCachedAnalyzer.
type Cache = cache.Cache

// CacheStats summarizes a CachedAnalyzer's effectiveness: hits, misses,
// coalesced waiters, evictions, and current residency.
type CacheStats = cache.Stats

// NewCachedAnalyzer returns an analyzer memoizing up to maxBytes of
// results (sizes estimated from the approximation's trace footprint),
// evicting least recently used results beyond that. maxBytes <= 0
// disables caching: every call analyzes, which keeps the zero budget
// safe to configure.
func NewCachedAnalyzer(maxBytes int64) *CachedAnalyzer {
	return &CachedAnalyzer{c: cache.New(maxBytes)}
}

// Analyze is AnalyzeContext through the cache: a resident result returns
// immediately with cached=true, a concurrent identical call coalesces
// (also cached=true), and otherwise the analysis runs and is stored. A
// caller whose ctx expires leaves with ErrCanceled/ErrDeadlineExceeded
// while the computation continues for any remaining waiters.
func (a *CachedAnalyzer) Analyze(ctx context.Context, m *Trace, cal Calibration, opts AnalyzeOptions) (approx *Approximation, cached bool, err error) {
	defer spAnalyzeCached.Start().End()
	key, _, err := cache.Key(m, cal, opts)
	if err != nil {
		return nil, false, err
	}
	v, cached, err := a.c.Do(ctx, key, approxSize, func(fctx context.Context) (any, error) {
		return core.AnalyzeContext(fctx, m, cal, opts)
	})
	if err != nil {
		return nil, false, err
	}
	return v.(*Approximation), cached, nil
}

// Stats returns the cache's lifetime counters and current residency.
func (a *CachedAnalyzer) Stats() CacheStats { return a.c.Stats() }

// approxSize estimates an approximation's resident footprint for the
// byte budget: the dominating term is the approximated trace's event
// slice.
func approxSize(v any) int64 {
	const perEvent = 64 // fields of trace.Event plus slice overhead
	ap := v.(*Approximation)
	size := int64(1024)
	if ap.Trace != nil {
		size += int64(len(ap.Trace.Events)) * perEvent
	}
	return size
}

// AnalyzeTimeBasedTotal estimates only the total execution time with the
// crudest time-based model (per-processor overhead subtraction); a cheap
// baseline, not an approximated trace.
func AnalyzeTimeBasedTotal(m *Trace, cal Calibration) (Time, error) {
	return core.TimeBasedTotal(m, cal)
}

// Imperfect traces: validation, repair, and fault injection.
//
// Real tracers drop probes under buffer pressure, lose processor tails,
// duplicate flushes, and skew clocks. Trace.Validate classifies such
// defects (returning errors matching the Err* sentinels below);
// RepairTrace fixes what can be fixed and flags the rest; Analyze with
// AnalyzeOptions.Repair runs the whole pipeline and degrades gracefully.
type (
	// RepairReport itemizes the defects one repair pass found and what it
	// did about each.
	RepairReport = trace.RepairReport
	// TraceDefect is one classified defect within a RepairReport.
	TraceDefect = trace.Defect
	// DefectClass enumerates the defect taxonomy.
	DefectClass = trace.DefectClass
	// FaultSpec configures deterministic fault injection; see InjectFaults.
	FaultSpec = faults.Spec
	// FaultReport counts the faults one injection pass placed.
	FaultReport = faults.Report
)

// Sentinel errors. Analysis and codec errors wrap these; test with
// errors.Is.
var (
	// ErrMalformedTrace is the umbrella for structurally invalid traces:
	// non-monotonic per-processor times, invalid processor ids or event
	// kinds, undecodable input.
	ErrMalformedTrace = trace.ErrMalformedTrace
	// ErrUnmatchedSync marks synchronization constructs missing one side
	// (an await without its advance, a lock acquisition without release).
	ErrUnmatchedSync = trace.ErrUnmatchedSync
	// ErrTruncatedTrace marks processors whose event stream ends early
	// (missing barrier participation at the end of a phase).
	ErrTruncatedTrace = trace.ErrTruncatedTrace
	// ErrUnresolvable is returned by event-based analysis when
	// constructive resolution cannot complete (without Repair).
	ErrUnresolvable = core.ErrUnresolvable
	// ErrUnsupported is returned when a trace's shape is outside what the
	// requested analysis can model.
	ErrUnsupported = core.ErrUnsupported
	// ErrCanceled is returned by the *Context entry points
	// (AnalyzeContext, SimulateContext, ReadTraceContext, ...) when their
	// context was canceled before the work completed; it wraps the
	// underlying context error, so errors.Is matches both this sentinel
	// and context.Canceled.
	ErrCanceled = cancel.ErrCanceled
	// ErrDeadlineExceeded is the deadline counterpart of ErrCanceled,
	// matching context.DeadlineExceeded as well.
	ErrDeadlineExceeded = cancel.ErrDeadlineExceeded
)

// RepairTrace sanitizes a defective trace: exact duplicates are dropped,
// inverted and half-missing synchronization brackets are re-timed or
// completed with placeholder events (stmt = SynthStmt), estimated clock
// skew is removed, truncated processors get their missing barrier
// participation synthesized, and unrepairable defects are flagged. The
// input is never modified; the report's Clean reports whether the trace
// was defect-free.
func RepairTrace(t *Trace) (*Trace, *RepairReport) { return trace.Repair(t) }

// AuditTrace classifies a trace's defects without repairing anything: the
// defect list RepairTrace would report, with the input untouched.
func AuditTrace(t *Trace) []TraceDefect { return trace.Audit(t) }

// SynthStmt is the statement id of sanitizer-synthesized placeholder
// events; real statements never use it.
const SynthStmt = trace.SynthStmt

// InjectFaults returns a corrupted copy of the trace, deterministically
// seeded by the spec — dropped probes and sync sides, duplicates,
// reorderings, clock skew, truncated processor tails — plus a report of
// the faults placed. The input is never modified; the zero FaultSpec is
// the identity.
func InjectFaults(t *Trace, spec FaultSpec) (*Trace, *FaultReport) { return faults.Inject(t, spec) }

// UniformFaults returns a FaultSpec injecting every per-event fault class
// at the given rate; DropFaults injects only drop faults (the robustness
// experiment's failure mode).
func UniformFaults(rate float64, seed uint64) FaultSpec { return faults.Uniform(rate, seed) }

// DropFaults returns a FaultSpec injecting only probe and sync-side drops.
func DropFaults(rate float64, seed uint64) FaultSpec { return faults.DropsOnly(rate, seed) }

// Metrics.
type (
	// ProcWaiting is one processor's waiting summary.
	ProcWaiting = metrics.ProcWaiting
	// WaitInterval is a classified busy/waiting span.
	WaitInterval = metrics.Interval
	// ParallelismProfile is a busy-processor step function.
	ParallelismProfile = metrics.Profile
)

// Waiting computes per-processor waiting statistics (paper Table 3).
func Waiting(t *Trace, cal Calibration) ([]ProcWaiting, error) { return metrics.Waiting(t, cal) }

// WaitingPercent converts waiting summaries to percentages of total time.
func WaitingPercent(ws []ProcWaiting, total Time) []float64 {
	return metrics.WaitingPercent(ws, total)
}

// Timeline decomposes a trace into per-processor busy/waiting intervals
// (paper Figure 4).
func Timeline(t *Trace, cal Calibration) ([][]WaitInterval, error) {
	return metrics.Timeline(t, cal)
}

// Parallelism computes the busy-processor profile (paper Figure 5).
func Parallelism(t *Trace, cal Calibration) (*ParallelismProfile, error) {
	return metrics.Parallelism(t, cal)
}

// TimingError quantifies per-event approximation accuracy.
type TimingError = metrics.TimingError

// CompareTiming computes per-event timing errors of approx against actual,
// matching events by identity.
func CompareTiming(actual, approx *Trace) (*TimingError, error) {
	return metrics.CompareTiming(actual, approx)
}

// StmtProfile is one statement's execution-time profile entry.
type StmtProfile = metrics.StmtProfile

// StatementProfile aggregates per-statement costs over a trace, sorted by
// descending total time.
func StatementProfile(t *Trace) ([]StmtProfile, error) {
	return metrics.StatementProfile(t)
}

// CriticalPath extracts the chain of dependences that determined the
// execution's duration; see order.CriticalPath.
type CriticalPath = order.Path

// AnalyzeCriticalPath computes a trace's critical path.
func AnalyzeCriticalPath(t *Trace) (*CriticalPath, error) {
	return order.CriticalPath(t)
}

// CheckFeasible verifies that candidate preserves the happened-before
// relation of base (the paper's conservative-approximation guarantee).
func CheckFeasible(base, candidate *Trace) error {
	rel, err := order.Build(base)
	if err != nil {
		return err
	}
	return rel.Check(candidate)
}

// Trace slicing (Smith & Korel): extracting the causally sufficient
// sub-trace for a query, so analysis of "processor 3's waits in phase 2"
// runs on the events that determine it instead of the whole trace.
type (
	// SliceQuery selects the events of interest (processor set, statement
	// set, kind set, time window); the zero value matches everything.
	SliceQuery = slice.Query
	// SliceReport summarizes a slicing pass: selection and closure sizes,
	// plus columnar block-skipping effectiveness for SliceTrace on
	// encoded input.
	SliceReport = slice.Report
)

// Slice extracts the causally sufficient sub-trace for the query: the
// selected events closed backwards over the dependency edges event-based
// analysis resolves over (program order, fork fences, advance/await
// pairs, lock serialization, barrier participation). Analyzing the slice
// yields the same approximated times for its events as analyzing t whole.
func Slice(t *Trace, q SliceQuery) (*Trace, *SliceReport, error) {
	defer spSlice.Start().End()
	return slice.Slice(t, q)
}

// SliceTrace decodes a trace from r (any codec, auto-detected) and slices
// it. Columnar input with a windowed query skips blocks past the window
// without decoding them; see package internal/slice for the exactness
// conditions.
func SliceTrace(r io.Reader, q SliceQuery) (*Trace, *SliceReport, error) {
	defer spSlice.Start().End()
	return slice.Read(r, q)
}

// ParseSliceQuery parses the CLI query syntax, e.g.
// "procs=1,3 kinds=awaitE window=1000:2500"; see SliceQuery.
func ParseSliceQuery(spec string) (SliceQuery, error) { return slice.ParseQuery(spec) }

// RunPaperExperiments regenerates the paper's complete evaluation (Figure
// 1, Tables 1-3, Figures 4-5) and renders it to w.
func RunPaperExperiments(w io.Writer) error {
	return experiments.RunAll(w, experiments.PaperEnv())
}

// Observability.
//
// The toolchain instruments itself with the same discipline the paper
// demands of program instrumentation: near-zero-cost probes, explicitly
// calibrated overhead (see the self-perturbation audit in EXPERIMENTS.md).
// Telemetry is off by default; when disabled every probe is a single
// atomic flag load.
type (
	// ObsStats is a telemetry snapshot: span latency histograms (named
	// after the span plus "_ns") and engine, simulator and codec
	// counters. It round-trips through encoding/json and renders itself
	// with WriteText.
	ObsStats = obs.Stats
	// DebugServer is a running expvar + pprof HTTP endpoint.
	DebugServer = obs.DebugServer
)

// The facade's spans: each entry point's wall time.
var (
	spReadTrace       = obs.NewSpan("perturb.read_trace")
	spSimulate        = obs.NewSpan("perturb.simulate")
	spSimulateProgram = obs.NewSpan("perturb.simulate_program")
	spAnalyze         = obs.NewSpan("perturb.analyze")
	spAnalyzeCached   = obs.NewSpan("perturb.analyze.cached")
	spSlice           = obs.NewSpan("perturb.slice")
	spStreamClose     = obs.NewSpan("perturb.stream.close")
)

// EnableObservability turns the self-instrumentation layer on or off
// (default off). Accumulated metrics survive transitions; see
// ResetObservability.
func EnableObservability(on bool) { obs.SetEnabled(on) }

// ObservabilityEnabled reports whether the telemetry layer is recording.
func ObservabilityEnabled() bool { return obs.Enabled() }

// ObservabilitySnapshot returns the current telemetry snapshot.
func ObservabilitySnapshot() ObsStats { return obs.Snapshot() }

// ResetObservability zeroes all telemetry metrics.
func ResetObservability() { obs.Reset() }

// ServeDebug starts an HTTP server on addr exposing /debug/vars (expvar,
// including the "obs" telemetry snapshot) and /debug/pprof. The caller
// owns shutdown via the returned server's Close.
func ServeDebug(addr string) (*DebugServer, error) { return obs.ServeDebug(addr) }
