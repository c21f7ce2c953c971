package obs

// This file implements the request-scoped span recorder behind perturbd's
// self-tracing: the service records its own execution — request phases,
// queue and singleflight waits, the shutdown drain — as spans in a bounded
// ring buffer, and package internal/selftrace exports the recorded spans
// as an event trace in the repository's own codecs, so `perturb` can
// analyze `perturbd` the way it analyzes any measured program.
//
// Design rules, continuing the package's discipline:
//
//   - Recording is bounded: a fixed-capacity ring of fixed-size records.
//     When producers outrun the ring, the oldest records are overwritten
//     and counted as dropped — the same failure mode as a production
//     tracer's buffer overrun, which the repair pipeline already models.
//   - Recording is lock-cheap: claiming a slot is one atomic add; filling
//     it is a handful of atomic stores guarded by a per-slot sequence
//     number (a seqlock), so writers never block each other or the
//     snapshotter, and the race detector sees only atomic accesses.
//   - Scopes are single-goroutine: a Scope maps one request (one
//     goroutine at a time) onto one "processor" of the exported trace,
//     acquired from a small free list so concurrent requests occupy
//     distinct processors and sequential requests reuse them — the
//     per-goroutine proc mapping that makes the exported parallelism
//     profile the service's real concurrency.
//
// The recorder's name tables (phase spans, wait spans) gain an entry the
// first time a span is recorded, under a mutex keyed by the span handle;
// records carry small integer ids.

import (
	"sync"
	"sync/atomic"
)

// Record kinds stored in the ring. The exporter maps them onto trace
// event kinds: phases and marks become compute records, waits become
// advance/await pairs, the drain becomes a barrier.
const (
	// RecPhase is a completed request phase: [Start, End] on Proc,
	// attributed to statement Stmt.
	RecPhase = iota + 1
	// RecMark is an instantaneous point (Start == End): the beginning of
	// a request's timeline on its processor slot.
	RecMark
	// RecWait is a blocking interval: the scope waited on the resource
	// class Var from Start to End; Pair uniquely identifies the wait.
	RecWait
	// RecDrain is the server-wide shutdown drain interval; Proc is
	// meaningless (every active processor participates).
	RecDrain
)

// SpanRecord is one recorded span, as returned by Recorder.Records. All
// times are nanoseconds since the recorder's epoch.
type SpanRecord struct {
	Kind  int
	Proc  int
	Stmt  int   // phase span id (RecPhase/RecMark); see Recorder.StmtNames
	Var   int   // wait span id (RecWait); see Recorder.VarNames
	Pair  int   // unique wait pairing id (RecWait)
	Start int64 // ns since epoch
	End   int64 // ns since epoch
}

// slot is one ring entry. The seq field is a per-slot seqlock: odd while
// a writer is filling the slot, even when the slot holds a complete
// record. Readers retry on odd or changed sequences, so a snapshot never
// observes a torn record.
type slot struct {
	seq   atomic.Uint64
	kind  atomic.Int64
	proc  atomic.Int64
	stmt  atomic.Int64
	svar  atomic.Int64
	pair  atomic.Int64
	start atomic.Int64
	end   atomic.Int64
}

// Recorder is a bounded span recorder. Create with NewRecorder; a nil
// *Recorder is valid and records nothing, so instrumented code paths can
// be written unconditionally.
type Recorder struct {
	epoch int64 // clock reading at creation: record times count from here
	ring  []slot
	head  atomic.Uint64 // total slots ever claimed
	drops atomic.Int64  // records overwritten before they were exported

	pairSeq atomic.Int64 // next wait pairing id

	mu       sync.Mutex
	stmtIDs  map[*Span]int // phase spans; statement 0 is the idle mark
	stmts    []string
	varIDs   map[*Span]int // wait spans
	vars     []string
	procFree []int // released processor slots, reused LIFO
	procHigh int   // next never-used processor slot
	procPeak int   // high-water mark of simultaneously held slots
	procHeld int
}

// DefaultRecorderCapacity bounds the ring when NewRecorder is given a
// non-positive capacity: at ~64 bytes per slot this is ~4 MiB, roughly a
// million request phases before the ring wraps.
const DefaultRecorderCapacity = 1 << 16

// NewRecorder returns a recorder with the given ring capacity (records,
// not bytes); capacity <= 0 selects DefaultRecorderCapacity. The
// recorder is always on — unlike the metric primitives it is not gated
// by SetEnabled, because it exists only when explicitly constructed.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCapacity
	}
	return &Recorder{
		epoch:   clock(),
		ring:    make([]slot, capacity),
		stmtIDs: make(map[*Span]int),
		stmts:   []string{idleStmt},
		varIDs:  make(map[*Span]int),
	}
}

// Dropped reports how many records have been overwritten by the ring
// wrapping since the recorder was created.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.drops.Load()
}

// ProcPeak reports the largest number of simultaneously active scopes
// observed: the exported trace's effective parallelism bound.
func (r *Recorder) ProcPeak() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.procPeak
}

// intern resolves a span to its id in one of the recorder's name tables,
// adding it on first use.
func (r *Recorder) intern(ids map[*Span]int, names *[]string, sp *Span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := ids[sp]
	if !ok {
		id = len(*names)
		ids[sp] = id
		*names = append(*names, sp.spanName())
	}
	return id
}

// StmtNames returns the phase table: index = SpanRecord.Stmt, value =
// the span's name ("idle" for the begin mark).
func (r *Recorder) StmtNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.stmts))
	copy(out, r.stmts)
	return out
}

// VarNames returns the wait table: index = SpanRecord.Var, value = the
// span's name.
func (r *Recorder) VarNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.vars))
	copy(out, r.vars)
	return out
}

// write records an interval closed at the clock reading end.
func (r *Recorder) write(iv Interval, end int64) {
	rec := SpanRecord{Kind: iv.kind, Proc: iv.sc.proc, Pair: iv.pair,
		Start: iv.start - r.epoch, End: end - r.epoch}
	switch iv.kind {
	case RecPhase:
		rec.Stmt = r.intern(r.stmtIDs, &r.stmts, iv.span)
	case RecWait:
		rec.Var = r.intern(r.varIDs, &r.vars, iv.span)
	}
	r.record(rec)
}

// record claims the next ring slot and fills it under the slot seqlock.
func (r *Recorder) record(rec SpanRecord) {
	i := r.head.Add(1) - 1
	if i >= uint64(len(r.ring)) {
		r.drops.Add(1)
	}
	s := &r.ring[i%uint64(len(r.ring))]
	s.seq.Add(1) // odd: write in progress
	s.kind.Store(int64(rec.Kind))
	s.proc.Store(int64(rec.Proc))
	s.stmt.Store(int64(rec.Stmt))
	s.svar.Store(int64(rec.Var))
	s.pair.Store(int64(rec.Pair))
	s.start.Store(rec.Start)
	s.end.Store(rec.End)
	s.seq.Add(1) // even: record complete
}

// Records snapshots the ring's complete records, oldest first. Records
// being written during the snapshot (and the rare slot overwritten
// mid-read) are skipped rather than returned torn.
func (r *Recorder) Records() []SpanRecord {
	if r == nil {
		return nil
	}
	head := r.head.Load()
	n := head
	if n > uint64(len(r.ring)) {
		n = uint64(len(r.ring))
	}
	out := make([]SpanRecord, 0, n)
	// Oldest surviving record first: head-n .. head-1.
	for k := head - n; k != head; k++ {
		s := &r.ring[k%uint64(len(r.ring))]
		for attempt := 0; attempt < 2; attempt++ {
			seq := s.seq.Load()
			if seq == 0 || seq%2 == 1 {
				break // empty or mid-write
			}
			rec := SpanRecord{
				Kind:  int(s.kind.Load()),
				Proc:  int(s.proc.Load()),
				Stmt:  int(s.stmt.Load()),
				Var:   int(s.svar.Load()),
				Pair:  int(s.pair.Load()),
				Start: s.start.Load(),
				End:   s.end.Load(),
			}
			if s.seq.Load() != seq {
				continue // overwritten mid-read; retry once
			}
			out = append(out, rec)
			break
		}
	}
	return out
}

// acquireProc hands out the lowest released processor slot, or a fresh
// one.
func (r *Recorder) acquireProc() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var p int
	if n := len(r.procFree); n > 0 {
		p = r.procFree[n-1]
		r.procFree = r.procFree[:n-1]
	} else {
		p = r.procHigh
		r.procHigh++
	}
	r.procHeld++
	if r.procHeld > r.procPeak {
		r.procPeak = r.procHeld
	}
	return p
}

func (r *Recorder) releaseProc(p int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.procFree = append(r.procFree, p)
	r.procHeld--
}

// Procs returns the number of processor slots ever used (the exported
// trace's request-processor count).
func (r *Recorder) Procs() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.procHigh
}

// idleStmt is the statement every scope's begin mark is attributed to:
// the time between a processor slot's previous request and this mark is
// the slot sitting idle, and the mark makes that gap visible to the
// analysis under its own statement id instead of inflating the first
// phase.
const idleStmt = "idle"

// Scope is one request's span timeline: a processor slot plus an open
// phase. A Scope must be used from one goroutine at a time and finished
// with End. A nil Scope is a no-op.
type Scope struct {
	r     *Recorder // nil: the scope only feeds span histograms
	proc  int       // processor slot, and the scope's histogram shard
	phase Interval  // the open phase; the zero Interval when none
	last  int64     // latest timestamp issued to this scope
}

// Begin opens a request scope. On a recorder, a processor slot is
// acquired and a begin mark is recorded so the slot's idle gap is
// attributed to the "idle" statement. On a nil recorder the scope only
// feeds span histograms, and is nil while telemetry is disabled.
func (r *Recorder) Begin() *Scope {
	if r == nil && !enabled.Load() {
		return nil
	}
	t := clock()
	if r == nil {
		return &Scope{proc: int(t), last: t} // the begin time spreads shards
	}
	sc := &Scope{r: r, proc: r.acquireProc(), last: t}
	r.record(SpanRecord{Kind: RecMark, Proc: sc.proc, Start: t - r.epoch, End: t - r.epoch})
	return sc
}

// tick returns a timestamp strictly after every previous timestamp this
// scope issued, so the scope's events never tie (ties would let the
// canonical trace sort reorder a wait bracket around a phase record).
func (sc *Scope) tick() int64 {
	t := clock()
	if t <= sc.last {
		t = sc.last + 1
	}
	sc.last = t
	return t
}

// Phase closes the open phase (if any) and opens one of sp at the same
// instant. Safe on a nil Scope.
func (sc *Scope) Phase(sp *Span) {
	if sc == nil {
		return
	}
	t := sc.tick()
	sc.closePhase(t)
	sc.phase = Interval{span: sp, sc: sc, kind: RecPhase, start: t}
}

func (sc *Scope) closePhase(t int64) {
	if sc.phase.span != nil {
		sc.phase.endAt(t)
		sc.phase = Interval{}
	}
}

// Wait opens a blocking interval of sp (for example a queue or a flight
// wait). The open phase stays open across the wait; the recorder writes
// the wait as its own bracket. Safe on a nil Scope.
func (sc *Scope) Wait(sp *Span) Interval {
	if sc == nil {
		return Interval{}
	}
	iv := Interval{span: sp, sc: sc, kind: RecWait, start: sc.tick()}
	if sc.r != nil {
		iv.pair = int(sc.r.pairSeq.Add(1))
	}
	return iv
}

// End closes the scope's open phase and releases its processor slot.
// Safe on a nil Scope; a Scope must not be used after End.
func (sc *Scope) End() {
	if sc == nil {
		return
	}
	sc.closePhase(sc.tick())
	if sc.r != nil {
		sc.r.releaseProc(sc.proc)
		sc.r = nil
	}
}

// Drain opens the server-wide shutdown drain, an interval of sp; on a
// recorder the exporter turns it into a barrier every active processor
// participates in. On a nil recorder it is sp.Start().
func (r *Recorder) Drain(sp *Span) Interval {
	if r == nil {
		return sp.Start()
	}
	t := clock()
	return Interval{span: sp, sc: &Scope{r: r, last: t}, kind: RecDrain, start: t}
}
