package core_test

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/machine"
	"perturb/internal/testgen"
	"perturb/internal/trace"
)

// assertSameApproximation fails unless two analysis outcomes are
// byte-identical: same error text (or none), same canonical events with
// their approximated times, same duration, same waiting statistics.
func assertSameApproximation(t *testing.T, label string, want *core.Approximation, wantErr error, got *core.Approximation, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error mismatch: want %v, got %v", label, wantErr, gotErr)
	}
	if wantErr != nil {
		if errors.Is(wantErr, core.ErrUnresolvable) != errors.Is(gotErr, core.ErrUnresolvable) {
			t.Fatalf("%s: ErrUnresolvable mismatch: want %v, got %v", label, wantErr, gotErr)
		}
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("%s: error text mismatch:\nwant: %v\ngot:  %v", label, wantErr, gotErr)
		}
		return
	}
	if got.Trace.Procs != want.Trace.Procs || got.Trace.Len() != want.Trace.Len() {
		t.Fatalf("%s: output trace shape mismatch", label)
	}
	for i := range want.Trace.Events {
		if got.Trace.Events[i] != want.Trace.Events[i] {
			t.Fatalf("%s: output event %d = %v, want %v", label, i, got.Trace.Events[i], want.Trace.Events[i])
		}
	}
	if got.Duration != want.Duration {
		t.Fatalf("%s: duration %d, want %d", label, got.Duration, want.Duration)
	}
	if got.WaitsKept != want.WaitsKept || got.WaitsRemoved != want.WaitsRemoved ||
		got.WaitsIntroduced != want.WaitsIntroduced {
		t.Fatalf("%s: waits (%d,%d,%d), want (%d,%d,%d)", label,
			got.WaitsKept, got.WaitsRemoved, got.WaitsIntroduced,
			want.WaitsKept, want.WaitsRemoved, want.WaitsIntroduced)
	}
}

// assertSameTimes fails unless the engine approximated each input event
// (got, in input order) at the time the oracle did (want).
func assertSameTimes(t *testing.T, label string, want, got []trace.Time) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: times length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d approximated at %d, want %d", label, i, got[i], want[i])
		}
	}
}

// oracleCase is one comparison of the engine with the oracle. repair
// selects Analyze's repair path: sanitize, then the degraded analysis.
type oracleCase struct {
	label  string
	m      *trace.Trace
	cal    instr.Calibration
	mode   core.Mode
	repair bool
}

// randomCase simulates a random testgen loop on a random machine
// configuration, with an exact or (one time in three) perturbed
// calibration.
func randomCase(r *rand.Rand) (*trace.Trace, instr.Calibration, string) {
	l := testgen.Loop(r)
	cfg := testgen.Config(r)
	ovh := testgen.Overheads(r)
	measured, err := machine.Run(l, instr.FullPlan(ovh, true), cfg)
	if err != nil {
		panic(err)
	}
	cal := instr.Exact(ovh, cfg.SNoWait, cfg.SWait, cfg.AdvanceOp, cfg.Barrier)
	if r.Intn(3) == 0 {
		cal = instr.Perturbed(cal, r.Uint64(), 1+r.Intn(20))
	}
	return measured.Trace, cal, l.Name
}

// oracleFor is the oracle's answer to an oracleCase, with each analyzed
// event's approximated time: on the repair path it analyzes the sanitized
// trace (event-based in degraded mode) and charges the sanitizer's
// defects to the processors' confidence.
func oracleFor(c oracleCase) (*core.Approximation, []trace.Time, error) {
	if !c.repair {
		return oracle(c.m, c.cal, c.mode, false)
	}
	repaired, rep := trace.Repair(c.m)
	a, ta, err := oracle(repaired, c.cal, c.mode, c.mode == core.ModeEventBased)
	if err != nil {
		return nil, nil, err
	}
	if a.Confidence == nil {
		a.Confidence = make([]core.ProcConfidence, repaired.Procs)
		for p := range a.Confidence {
			a.Confidence[p].Proc = p
		}
		for _, e := range repaired.Events {
			a.Confidence[e.Proc].Events++
		}
	}
	for p, n := range rep.PerProc {
		if p < len(a.Confidence) {
			a.Confidence[p].Defects += n
		}
	}
	oracleScore(a.Confidence)
	return a, ta, nil
}

// engineTimes is the batch engine's approximated time of each event c
// analyzes, in input order: the sanitized trace's on the repair path.
func engineTimes(t *testing.T, c oracleCase) []trace.Time {
	t.Helper()
	m := c.m
	if c.repair {
		m, _ = trace.Repair(m)
	}
	ta, err := core.BatchTimes(m, c.cal, c.mode, c.repair && c.mode == core.ModeEventBased)
	if err != nil {
		t.Fatalf("%s: %v", c.label, err)
	}
	return ta
}

// checkOracle fails unless the engine's batch result equals the
// oracle's: identical times, canonical order, statistics, confidence and
// errors.
func checkOracle(t *testing.T, c oracleCase) {
	t.Helper()
	want, wantTA, wantErr := oracleFor(c)
	got, gotErr := core.Analyze(c.m, c.cal, core.Options{Mode: c.mode, Repair: c.repair})
	assertSameApproximation(t, c.label, want, wantErr, got, gotErr)
	if gotErr == nil {
		assertSameTimes(t, c.label, wantTA, engineTimes(t, c))
		if !reflect.DeepEqual(got.Confidence, want.Confidence) {
			t.Fatalf("%s: confidence %+v, oracle %+v", c.label, got.Confidence, want.Confidence)
		}
	}
}

// checkDegraded fails unless the engine's degraded analysis of m, run
// without the sanitizer, equals the oracle's.
func checkDegraded(t *testing.T, label string, m *trace.Trace, cal instr.Calibration) {
	t.Helper()
	want, wantTA, wantErr := oracle(m, cal, core.ModeEventBased, true)
	got, gotErr := core.DegradedEventBased(m, cal)
	assertSameApproximation(t, label, want, wantErr, got, gotErr)
	if gotErr == nil {
		gotTA, err := core.BatchTimes(m, cal, core.ModeEventBased, true)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		assertSameTimes(t, label, wantTA, gotTA)
		if !reflect.DeepEqual(got.Confidence, want.Confidence) {
			t.Fatalf("%s: confidence %+v, oracle %+v", label, got.Confidence, want.Confidence)
		}
	}
}

// TestOracleMatchesEngineProperty: across randomized loop programs and
// machine configurations (processor counts, schedules), the engine's
// event-based and time-based results are byte-identical to the oracle's.
func TestOracleMatchesEngineProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1991))
	for i := 0; i < 240; i++ {
		m, cal, name := randomCase(r)
		for _, mode := range []core.Mode{core.ModeEventBased, core.ModeTimeBased} {
			checkOracle(t, oracleCase{label: name, m: m, cal: cal, mode: mode})
		}
	}
}

// TestOracleMatchesEngineOnCorruptTraces: the engine and the oracle also
// agree on malformed input — same rejections, same ErrUnresolvable cases
// with the same unresolved counts, and identical output on corruptions
// both accept — in exact and degraded mode alike.
func TestOracleMatchesEngineOnCorruptTraces(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	cfg := machine.Alliant()
	for i := 0; i < 150; i++ {
		l := testgen.Loop(r)
		ovh := testgen.Overheads(r)
		measured, err := machine.Run(l, instr.FullPlan(ovh, true), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cal := instr.Exact(ovh, cfg.SNoWait, cfg.SWait, cfg.AdvanceOp, cfg.Barrier)
		bad := measured.Trace
		for k := 0; k < 1+r.Intn(3); k++ {
			bad = mutate(r, bad)
		}
		checkOracle(t, oracleCase{label: "corrupt", m: bad, cal: cal})
		checkOracle(t, oracleCase{label: "corrupt repaired", m: bad, cal: cal, repair: true})
		checkDegraded(t, "corrupt degraded", bad, cal)
	}
}

// TestOracleUnresolvableCycle: a cross-processor await cycle (each
// processor's awaitE paired with an advance the other processor only
// reaches after its own await) can never resolve. Exact analysis reports
// ErrUnresolvable instead of hanging; degraded analysis breaks the stall
// by forcing events in processor order. The engine and the oracle agree
// on both.
func TestOracleUnresolvableCycle(t *testing.T) {
	cal := instr.Calibration{Overheads: instr.Uniform(1), SNoWait: 1, SWait: 2}
	tr := trace.New(2)
	tr.Append(trace.Event{Time: 10, Proc: 0, Stmt: 1, Kind: trace.KindAwaitB, Iter: 1, Var: 0})
	tr.Append(trace.Event{Time: 11, Proc: 1, Stmt: 3, Kind: trace.KindAwaitB, Iter: 0, Var: 0})
	tr.Append(trace.Event{Time: 20, Proc: 0, Stmt: 1, Kind: trace.KindAwaitE, Iter: 1, Var: 0})
	tr.Append(trace.Event{Time: 21, Proc: 1, Stmt: 3, Kind: trace.KindAwaitE, Iter: 0, Var: 0})
	tr.Append(trace.Event{Time: 30, Proc: 0, Stmt: 2, Kind: trace.KindAdvance, Iter: 0, Var: 0})
	tr.Append(trace.Event{Time: 31, Proc: 1, Stmt: 4, Kind: trace.KindAdvance, Iter: 1, Var: 0})

	if _, err := core.EventBased(tr, cal); !errors.Is(err, core.ErrUnresolvable) {
		t.Fatalf("got %v, want ErrUnresolvable", err)
	}
	checkOracle(t, oracleCase{label: "cycle", m: tr, cal: cal})
	checkOracle(t, oracleCase{label: "cycle repaired", m: tr, cal: cal, repair: true})
	checkDegraded(t, "cycle degraded", tr, cal)

	// A cycle through a fork fence: processor 0's first event is based
	// on processor 1's fence, which waits behind an await for processor
	// 0's advance. Stall-breaking forces processor 0 with its basis
	// unresolved, so the forced event anchors at its own measured time.
	fenced := trace.New(2)
	fenced.Append(trace.Event{Time: 10, Proc: 1, Stmt: 1, Kind: trace.KindAwaitB, Iter: 1, Var: 0})
	fenced.Append(trace.Event{Time: 20, Proc: 1, Stmt: 1, Kind: trace.KindAwaitE, Iter: 1, Var: 0})
	fenced.Append(trace.Event{Time: 30, Proc: 1, Stmt: -1, Kind: trace.KindLoopBegin, Iter: -1, Var: -1})
	fenced.Append(trace.Event{Time: 40, Proc: 0, Stmt: 2, Kind: trace.KindCompute, Iter: 1, Var: -1})
	fenced.Append(trace.Event{Time: 50, Proc: 0, Stmt: 3, Kind: trace.KindAdvance, Iter: 1, Var: 0})
	checkOracle(t, oracleCase{label: "fence cycle", m: fenced, cal: cal})
	checkDegraded(t, "fence cycle degraded", fenced, cal)
}

// TestOracleSparsePairingKeys covers pairing keys the engine cannot
// index densely by iteration: far-apart and out-of-int32 iterations, an
// iteration below the first one seen, and a sparse key that a growing
// table later covers.
func TestOracleSparsePairingKeys(t *testing.T) {
	cal := instr.Calibration{Overheads: instr.Uniform(1), SNoWait: 2, SWait: 3}
	tr := trace.New(2)
	now := trace.Time(0)
	add := func(p int, k trace.Kind, iter int) {
		now += 10
		tr.Append(trace.Event{Time: now, Proc: p, Stmt: int(k), Kind: k, Iter: iter, Var: 1})
	}
	pair := func(iter int, awaitFirst bool) {
		if awaitFirst {
			add(1, trace.KindAwaitB, iter)
			add(0, trace.KindAdvance, iter)
			add(1, trace.KindAwaitE, iter)
			return
		}
		add(0, trace.KindAdvance, iter)
		add(1, trace.KindAwaitB, iter)
		add(1, trace.KindAwaitE, iter)
	}
	pair(0, false)
	add(0, trace.KindAdvance, 5000) // sparse for now, covered later
	for _, it := range []int{1 << 40, -(1 << 40), 2_000_000_000, -7} {
		pair(it, it%2 == 0)
	}
	for it := 1; it <= 3000; it++ {
		pair(it, it%3 == 0)
	}
	add(1, trace.KindAwaitB, 5000)
	add(1, trace.KindAwaitE, 5000)
	add(1, trace.KindAwaitB, 9_999_999) // never advanced
	add(1, trace.KindAwaitE, 9_999_999)
	checkOracle(t, oracleCase{label: "sparse", m: tr, cal: cal})
	checkOracle(t, oracleCase{label: "sparse repaired", m: tr, cal: cal, repair: true})
}

// TestOracleMatchesEngineOnGoldenTraces covers the conformance traces
// shipped in testdata/golden under the calibration their pinned outputs
// use, the million-event backward wave the engine benchmarks run, and a
// wave with more processors than the run merge takes.
func TestOracleMatchesEngineOnGoldenTraces(t *testing.T) {
	cal := instr.Calibration{Overheads: instr.Uniform(100), SNoWait: 50, SWait: 80, AdvanceOp: 30, Barrier: 40}
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, path := range paths {
		if strings.HasSuffix(path, ".approx.txt") {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Simulator goldens carry their expectations above the trace.
		start := bytes.Index(data, []byte("# perturb-trace"))
		if start < 0 {
			t.Fatalf("%s: no trace header", path)
		}
		m, err := trace.ReadText(bytes.NewReader(data[start:]))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		seen++
		for _, mode := range []core.Mode{core.ModeEventBased, core.ModeTimeBased} {
			checkOracle(t, oracleCase{label: filepath.Base(path), m: m, cal: cal, mode: mode})
		}
	}
	if seen < 11 {
		t.Fatalf("checked %d golden traces, want the 11 shipped", seen)
	}

	waveCal := instr.Calibration{Overheads: instr.Uniform(2), SNoWait: 5, SWait: 8, AdvanceOp: 3, Barrier: 4}
	checkOracle(t, oracleCase{label: "million-event wave", m: testgen.BackwardWave(8, 250_000), cal: waveCal})
	// A wide merge: finish's heap of run heads holds 100 processors.
	checkOracle(t, oracleCase{label: "100-processor wave", m: testgen.BackwardWave(100, 2_000), cal: waveCal})
}

// permuteInterleaving returns a new trace with the same events in a
// different global interleaving, preserving everything the event-based
// analysis is entitled to depend on: per-processor order, positions of
// fork fences (loop-begin events) relative to all events, the relative
// order of lock acquisitions/releases, and the relative order of advance
// events (first-occurrence pairing).
func permuteInterleaving(r *rand.Rand, tr *trace.Trace) *trace.Trace {
	out := trace.New(tr.Procs)
	ordered := func(e trace.Event) bool {
		switch e.Kind {
		case trace.KindAdvance, trace.KindLockAcq, trace.KindLockRel:
			return true
		}
		return false
	}
	// Split into segments at fork fences; each fence is emitted at its
	// original position, and events never cross a segment boundary.
	var segment []trace.Event
	flush := func() {
		if len(segment) == 0 {
			return
		}
		// Per-processor queues plus the queue of order-critical events.
		perProc := make(map[int][]trace.Event)
		var procs []int
		var critical []trace.Event
		for _, e := range segment {
			if _, seen := perProc[e.Proc]; !seen {
				procs = append(procs, e.Proc)
			}
			perProc[e.Proc] = append(perProc[e.Proc], e)
			if ordered(e) {
				critical = append(critical, e)
			}
		}
		for {
			var eligible []int
			for _, p := range procs {
				q := perProc[p]
				if len(q) == 0 {
					continue
				}
				if ordered(q[0]) && q[0] != critical[0] {
					continue // must wait for earlier order-critical events
				}
				eligible = append(eligible, p)
			}
			if len(eligible) == 0 {
				break
			}
			p := eligible[r.Intn(len(eligible))]
			e := perProc[p][0]
			perProc[p] = perProc[p][1:]
			if ordered(e) {
				critical = critical[1:]
			}
			out.Append(e)
		}
		segment = segment[:0]
	}
	for _, e := range tr.Events {
		if e.Kind == trace.KindLoopBegin {
			flush()
			out.Append(e)
			continue
		}
		segment = append(segment, e)
	}
	flush()
	return out
}

// TestInterleavingPermutationInvariance (metamorphic): permuting the
// global interleaving of events from independent processors — preserving
// per-processor order, fence positions and synchronization pairings —
// must leave every processor's reconstructed timeline unchanged.
func TestInterleavingPermutationInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(555))
	cfg := machine.Alliant()
	for i := 0; i < 60; i++ {
		l := testgen.Loop(r)
		ovh := testgen.Overheads(r)
		measured, err := machine.Run(l, instr.FullPlan(ovh, true), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cal := instr.Exact(ovh, cfg.SNoWait, cfg.SWait, cfg.AdvanceOp, cfg.Barrier)

		base, err := core.EventBased(measured.Trace, cal)
		if err != nil {
			t.Fatal(err)
		}
		baseline := perProcTimeline(base.Trace)

		perm := permuteInterleaving(r, measured.Trace)
		if perm.Len() != measured.Trace.Len() {
			t.Fatalf("permutation changed event count: %d -> %d", measured.Trace.Len(), perm.Len())
		}
		a, err := core.EventBased(perm, cal)
		if err != nil {
			t.Fatalf("permuted trace: %v", err)
		}
		got := perProcTimeline(a.Trace)
		if len(got) != len(baseline) {
			t.Fatal("proc count changed")
		}
		for p := range baseline {
			if len(got[p]) != len(baseline[p]) {
				t.Fatalf("proc %d timeline length %d, want %d", p, len(got[p]), len(baseline[p]))
			}
			for k := range baseline[p] {
				if got[p][k] != baseline[p][k] {
					t.Fatalf("proc %d step %d = %+v, want %+v", p, k, got[p][k], baseline[p][k])
				}
			}
		}
	}
}

// perProcTimeline splits an approximated trace into each processor's
// reconstructed timeline: its events, with their approximated times, in
// canonical order.
func perProcTimeline(tr *trace.Trace) [][]trace.Event {
	out := make([][]trace.Event, tr.Procs)
	for _, e := range tr.Events {
		out[e.Proc] = append(out[e.Proc], e)
	}
	return out
}
