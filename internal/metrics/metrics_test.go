package metrics_test

import (
	"math"
	"math/rand"
	"testing"

	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/loops"
	"perturb/internal/machine"
	"perturb/internal/metrics"
	"perturb/internal/program"
	"perturb/internal/testgen"
	"perturb/internal/trace"
)

func cal() instr.Calibration {
	return instr.Calibration{SNoWait: 10, SWait: 20, Barrier: 5}
}

// handTrace builds a two-processor approximated trace with one genuine
// wait and a barrier:
//
//	proc 0: compute@100, awaitB@110, awaitE@120 (no wait: span 10 = SNoWait),
//	        barrier-arrive@150, barrier-release@205
//	proc 1: compute@90, awaitB@100, awaitE@180 (waited: span 80 => wait 60),
//	        barrier-arrive@200, barrier-release@205
func handTrace() *trace.Trace {
	tr := trace.New(2)
	add := func(tm trace.Time, p, s int, k trace.Kind, iter, v int) {
		tr.Append(trace.Event{Time: tm, Proc: p, Stmt: s, Kind: k, Iter: iter, Var: v})
	}
	add(100, 0, 1, trace.KindCompute, 0, trace.NoVar)
	add(110, 0, 2, trace.KindAwaitB, 0, 0)
	add(120, 0, 2, trace.KindAwaitE, 0, 0)
	add(150, 0, -2, trace.KindBarrierArrive, 0, 0)
	add(205, 0, -2, trace.KindBarrierRelease, 0, 0)
	add(90, 1, 3, trace.KindCompute, 1, trace.NoVar)
	add(100, 1, 4, trace.KindAwaitB, 0, 0)
	add(180, 1, 4, trace.KindAwaitE, 0, 0)
	add(200, 1, -2, trace.KindBarrierArrive, 0, 0)
	add(205, 1, -2, trace.KindBarrierRelease, 0, 0)
	tr.Sort()
	return tr
}

func TestWaitingHandCase(t *testing.T) {
	ws, err := metrics.Waiting(handTrace(), cal())
	if err != nil {
		t.Fatal(err)
	}
	// proc 0: no await wait; barrier arrive 150 -> release 205: span 55,
	// minus Barrier 5 => 50.
	if ws[0].Await != 0 {
		t.Errorf("proc0 await wait = %d, want 0", ws[0].Await)
	}
	if ws[0].Barrier != 50 {
		t.Errorf("proc0 barrier wait = %d, want 50", ws[0].Barrier)
	}
	// proc 1: await span 80, minus SWait 20 => 60; barrier span 5 => 0.
	if ws[1].Await != 60 {
		t.Errorf("proc1 await wait = %d, want 60", ws[1].Await)
	}
	if ws[1].Barrier != 0 {
		t.Errorf("proc1 barrier wait = %d, want 0", ws[1].Barrier)
	}
	if ws[1].Total() != 60 {
		t.Errorf("proc1 total = %d, want 60", ws[1].Total())
	}

	pct := metrics.WaitingPercent(ws, 200)
	if pct[1] != 30 {
		t.Errorf("proc1 waiting pct = %.2f, want 30", pct[1])
	}
	if got := metrics.WaitingPercent(ws, 0); got[0] != 0 {
		t.Error("zero total should yield zero percentages")
	}
}

func TestTimelineHandCase(t *testing.T) {
	tl, err := metrics.Timeline(handTrace(), cal())
	if err != nil {
		t.Fatal(err)
	}
	// proc 1: busy to awaitB@100, waiting [100,160], busy [160,180]
	// (s_wait tail), busy to arrive@200, waiting [200,200]=none then
	// release minus Barrier: waiting [200,200]... release span 5 = Barrier
	// so no waiting interval; busy [200,205].
	var waits []metrics.Interval
	for _, iv := range tl[1] {
		if iv.Waiting {
			waits = append(waits, iv)
		}
	}
	if len(waits) != 1 {
		t.Fatalf("proc1 wait intervals = %v, want exactly 1", waits)
	}
	if waits[0].Start != 100 || waits[0].End != 160 {
		t.Errorf("proc1 wait = [%d,%d], want [100,160]", waits[0].Start, waits[0].End)
	}
	// Intervals tile the lane without overlap.
	for p, ivs := range tl {
		for i := 1; i < len(ivs); i++ {
			if ivs[i].Start != ivs[i-1].End {
				t.Errorf("proc %d: gap between %v and %v", p, ivs[i-1], ivs[i])
			}
		}
	}
}

func TestParallelismHandCase(t *testing.T) {
	prof, err := metrics.Parallelism(handTrace(), cal())
	if err != nil {
		t.Fatal(err)
	}
	// During [100,160] proc 1 waits, proc 0 is busy => level 1.
	if got := prof.At(130); got != 1 {
		t.Errorf("parallelism at 130 = %d, want 1", got)
	}
	// During [60,100] both are busy.
	if got := prof.At(95); got != 2 {
		t.Errorf("parallelism at 95 = %d, want 2", got)
	}
	avg := prof.Average(0, 205)
	if avg <= 0 || avg > 2 {
		t.Errorf("average parallelism = %.2f, want within (0,2]", avg)
	}
	if prof.Average(10, 10) != 0 {
		t.Error("empty range average should be zero")
	}
}

// TestWaitingMatchesSimulatorGroundTruth: metrics computed from the
// simulator's actual trace agree with the simulator's own waiting
// accounting.
func TestWaitingMatchesSimulatorGroundTruth(t *testing.T) {
	l := program.NewBuilder("gt", 0, program.DOACROSS, 64).
		Compute("w", 2000).
		CriticalBegin(0).
		Compute("c", 1500).
		CriticalEnd(0).
		Loop()
	cfg := machine.Alliant()
	res, err := machine.Run(l, instr.NonePlan(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := instr.Exact(instr.Zero, cfg.SNoWait, cfg.SWait, cfg.AdvanceOp, cfg.Barrier)
	ws, err := metrics.Waiting(res.Trace, c)
	if err != nil {
		t.Fatal(err)
	}
	for p := range ws {
		got, want := float64(ws[p].Await), float64(res.AwaitWaiting[p])
		if want == 0 {
			if got != 0 {
				t.Errorf("proc %d: await wait %v, simulator says 0", p, got)
			}
			continue
		}
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("proc %d: await wait %v, simulator ground truth %v", p, got, want)
		}
	}
}

// TestBusyAddsUpAcrossPhases: on the actual LL3+LL17+LL4 run, each
// processor's Busy differs from the simulator's busy time by the sum of
// its differences with the three loops run alone. The idle time before
// each phase's fork counts neither as busy nor as waiting.
func TestBusyAddsUpAcrossPhases(t *testing.T) {
	cfg := machine.Alliant()
	c := instr.Exact(instr.Zero, cfg.SNoWait, cfg.SWait, cfg.AdvanceOp, cfg.Barrier)
	busyError := func(phases ...*program.Loop) []trace.Time {
		res, err := machine.RunProgram(program.NewProgram("phases", phases...), instr.NonePlan(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := metrics.Waiting(res.Trace, c)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]trace.Time, len(ws))
		for p, w := range ws {
			out[p] = w.Busy - res.Busy[p]
		}
		return out
	}
	phases := []*program.Loop{loops.MustGet(3).Loop, loops.MustGet(17).Loop, loops.MustGet(4).Loop}
	want := make([]trace.Time, cfg.Procs)
	for _, l := range phases {
		for p, e := range busyError(l) {
			want[p] += e
		}
	}
	for p, got := range busyError(phases...) {
		if got != want[p] {
			t.Errorf("p%d: Busy error %d ns, the phases alone sum to %d ns", p, got, want[p])
		}
	}
}

// TestBarrierWaitBeforeNextFork: two DOALL phases with no tail and no head
// between them, approximated under the exact calibration. Without probes
// the forking processor's next loop-begin lands at the barrier's release
// time and sorts before the other processors' releases; a processor
// inside the barrier stays there, so its Timeline waiting equals
// Await+Barrier and its Busy error adds up across the phases.
func TestBarrierWaitBeforeNextFork(t *testing.T) {
	cfg := machine.Alliant()
	ovh := loops.PaperOverheads()
	c := instr.Exact(ovh, cfg.SNoWait, cfg.SWait, cfg.AdvanceOp, cfg.Barrier)
	busyError := func(phases ...*program.Loop) []trace.Time {
		actual, err := machine.RunProgram(program.NewProgram("doall", phases...), instr.NonePlan(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		measured, err := machine.RunProgram(program.NewProgram("doall", phases...), instr.FullPlan(ovh, true), cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.Analyze(measured.Trace, c, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ws, err := metrics.Waiting(a.Trace, c)
		if err != nil {
			t.Fatal(err)
		}
		tl, err := metrics.Timeline(a.Trace, c)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]trace.Time, len(ws))
		for p, w := range ws {
			var waiting trace.Time
			for _, iv := range tl[p] {
				if iv.Waiting {
					waiting += iv.Dur()
				}
			}
			if waiting != w.Total() {
				t.Errorf("%d phases, p%d: Timeline waits %d ns, Await+Barrier is %d ns", len(phases), p, waiting, w.Total())
			}
			out[p] = w.Busy - actual.Busy[p]
		}
		return out
	}
	phases := []*program.Loop{
		program.NewBuilder("uneven", 0, program.DOALL, 20).ComputeJitter("s", 3000, 1500).Loop(),
		program.NewBuilder("even", 0, program.DOALL, 16).Compute("s", 2000).Loop(),
	}
	want := make([]trace.Time, cfg.Procs)
	for _, l := range phases {
		for p, e := range busyError(l) {
			want[p] += e
		}
	}
	for p, got := range busyError(phases...) {
		if got != want[p] {
			t.Errorf("p%d: Busy error %d ns, the phases alone sum to %d ns", p, got, want[p])
		}
	}
}

// TestParallelismBounded: profile levels stay within [0, procs] and the
// profile integrates to total busy time, over random simulated traces.
func TestParallelismBounded(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for i := 0; i < 30; i++ {
		lp := testgen.Loop(r)
		cfg := testgen.Config(r)
		res, err := machine.Run(lp, instr.NonePlan(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := instr.Exact(instr.Zero, cfg.SNoWait, cfg.SWait, cfg.AdvanceOp, cfg.Barrier)
		prof, err := metrics.Parallelism(res.Trace, c)
		if err != nil {
			t.Fatal(err)
		}
		for _, lvl := range prof.Level {
			if lvl < 0 || lvl > cfg.Procs {
				t.Fatalf("case %d: level %d outside [0,%d]", i, lvl, cfg.Procs)
			}
		}
		tl, err := metrics.Timeline(res.Trace, c)
		if err != nil {
			t.Fatal(err)
		}
		var busy float64
		for _, ivs := range tl {
			for _, iv := range ivs {
				if !iv.Waiting {
					busy += float64(iv.Dur())
				}
			}
		}
		from, to := prof.Span()
		if to > from {
			area := prof.Average(from, to) * float64(to-from)
			if busy > 0 && math.Abs(area-busy)/busy > 0.01 {
				t.Fatalf("case %d: profile area %.0f != busy time %.0f", i, area, busy)
			}
		}
	}
}

func TestExecutionRatio(t *testing.T) {
	if _, err := metrics.ExecutionRatio(1, 0); err == nil {
		t.Error("zero denominator should error")
	}
	r, err := metrics.ExecutionRatio(300, 100)
	if err != nil || r != 3 {
		t.Errorf("ratio = %v, %v", r, err)
	}
}

func TestMetricsRejectInvalidTrace(t *testing.T) {
	bad := trace.New(1)
	bad.Append(trace.Event{Time: 1, Proc: 7, Kind: trace.KindCompute})
	if _, err := metrics.Waiting(bad, cal()); err == nil {
		t.Error("Waiting should reject invalid traces")
	}
	if _, err := metrics.Timeline(bad, cal()); err == nil {
		t.Error("Timeline should reject invalid traces")
	}
	if _, err := metrics.Parallelism(bad, cal()); err == nil {
		t.Error("Parallelism should reject invalid traces")
	}
}
