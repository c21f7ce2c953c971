package order_test

import (
	"math/rand"
	"testing"

	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/loops"
	"perturb/internal/machine"
	"perturb/internal/order"
	"perturb/internal/program"
	"perturb/internal/testgen"
	"perturb/internal/trace"
)

func simulated(t *testing.T, seed int64) *trace.Trace {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	l := testgen.Loop(r)
	cfg := testgen.Config(r)
	res, err := machine.Run(l, instr.FullPlan(testgen.Overheads(r), true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

// TestCheckSelf: every simulated trace satisfies its own happened-before
// relation.
func TestCheckSelf(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		tr := simulated(t, seed)
		if err := order.CheckSelf(tr); err != nil {
			t.Fatalf("seed %d: self-check failed: %v", seed, err)
		}
	}
}

// TestDetectsSyncViolation: moving an awaitE before its paired advance is
// flagged.
func TestDetectsSyncViolation(t *testing.T) {
	tr := trace.New(2)
	tr.Append(trace.Event{Time: 10, Proc: 0, Stmt: 1, Kind: trace.KindAdvance, Iter: 0, Var: 0})
	tr.Append(trace.Event{Time: 5, Proc: 1, Stmt: 2, Kind: trace.KindAwaitB, Iter: 0, Var: 0})
	tr.Append(trace.Event{Time: 20, Proc: 1, Stmt: 2, Kind: trace.KindAwaitE, Iter: 0, Var: 0})
	tr.Sort()
	rel, err := order.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	bad := tr.Clone()
	for i, e := range bad.Events {
		if e.Kind == trace.KindAwaitE {
			bad.Events[i].Time = 7 // before the advance at 10
		}
	}
	err = rel.Check(bad)
	if err == nil {
		t.Fatal("expected a violation")
	}
	if _, ok := err.(order.Violation); !ok {
		t.Fatalf("error %T (%v), want order.Violation", err, err)
	}
}

// TestDetectsProgramOrderViolation: swapping two same-processor event
// times is flagged.
func TestDetectsProgramOrderViolation(t *testing.T) {
	tr := trace.New(1)
	tr.Append(trace.Event{Time: 1, Proc: 0, Stmt: 1, Kind: trace.KindCompute, Iter: 0, Var: trace.NoVar})
	tr.Append(trace.Event{Time: 2, Proc: 0, Stmt: 2, Kind: trace.KindCompute, Iter: 0, Var: trace.NoVar})
	rel, err := order.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	bad := tr.Clone()
	bad.Events[0].Time, bad.Events[1].Time = 5, 1
	if err := rel.Check(bad); err == nil {
		t.Fatal("expected a program-order violation")
	}
}

// TestBarrierEdges: a barrier release timed before another processor's
// arrival is flagged.
func TestBarrierEdges(t *testing.T) {
	tr := trace.New(2)
	tr.Append(trace.Event{Time: 10, Proc: 0, Stmt: -2, Kind: trace.KindBarrierArrive, Iter: 0, Var: 0})
	tr.Append(trace.Event{Time: 30, Proc: 1, Stmt: -2, Kind: trace.KindBarrierArrive, Iter: 0, Var: 0})
	tr.Append(trace.Event{Time: 35, Proc: 0, Stmt: -2, Kind: trace.KindBarrierRelease, Iter: 0, Var: 0})
	tr.Append(trace.Event{Time: 35, Proc: 1, Stmt: -2, Kind: trace.KindBarrierRelease, Iter: 0, Var: 0})
	tr.Sort()
	rel, err := order.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	bad := tr.Clone()
	for i, e := range bad.Events {
		if e.Kind == trace.KindBarrierRelease && e.Proc == 0 {
			bad.Events[i].Time = 20 // before proc 1's arrival at 30
		}
	}
	bad.Sort()
	if err := rel.Check(bad); err == nil {
		t.Fatal("expected a barrier violation")
	}
}

// TestForkEdges: the first event of a non-fork processor timed before the
// loop-begin is flagged.
func TestForkEdges(t *testing.T) {
	tr := trace.New(2)
	tr.Append(trace.Event{Time: 10, Proc: 0, Stmt: -1, Kind: trace.KindLoopBegin, Iter: trace.NoIter, Var: trace.NoVar})
	tr.Append(trace.Event{Time: 20, Proc: 1, Stmt: 1, Kind: trace.KindCompute, Iter: 0, Var: trace.NoVar})
	rel, err := order.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	bad := tr.Clone()
	bad.Events[1].Time = 5
	if err := rel.Check(bad); err == nil {
		t.Fatal("expected a fork violation")
	}
}

// TestForkEdgesEveryPhase: every phase's loop-begin forks. In the
// approximation of the measured LL3+LL17 program (Alliant, paper probes),
// p3's first phase-2 event moved 10 µs before the phase-2 fork at
// 3,956,930 ns is flagged against that fork.
func TestForkEdgesEveryPhase(t *testing.T) {
	prog := program.NewProgram("LL3+LL17", loops.MustGet(3).Loop, loops.MustGet(17).Loop)
	cfg := machine.Alliant()
	ovh := loops.PaperOverheads()
	res, err := machine.RunProgram(prog, instr.FullPlan(ovh, true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(res.Trace, instr.Exact(ovh, cfg.SNoWait, cfg.SWait, cfg.AdvanceOp, cfg.Barrier), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := order.Build(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.Check(a.Trace); err != nil {
		t.Fatalf("the approximation is infeasible: %v", err)
	}
	var forks []int
	moved := -1
	for i, e := range a.Trace.Events {
		if e.Kind == trace.KindLoopBegin {
			forks = append(forks, i)
		}
		if len(forks) == 2 && e.Proc == 3 {
			moved = i
			break
		}
	}
	fork := a.Trace.Events[forks[len(forks)-1]]
	if moved < 0 || fork.Time != 3956930 {
		t.Fatalf("no phase-2 fork at 3956930 ns followed by a p3 event (fork %v, p3 event %d)", fork, moved)
	}
	bad := a.Trace.Clone()
	bad.Events[moved].Time = fork.Time - 10000
	want := order.Violation{From: fork, To: bad.Events[moved]}
	if err := rel.Check(bad); err != want {
		t.Fatalf("Check = %v, want %v", err, want)
	}
}

func TestAlignmentErrors(t *testing.T) {
	tr := trace.New(1)
	tr.Append(trace.Event{Time: 1, Proc: 0, Stmt: 1, Kind: trace.KindCompute, Iter: 0, Var: trace.NoVar})
	rel, err := order.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Different size.
	bigger := tr.Clone()
	bigger.Append(trace.Event{Time: 2, Proc: 0, Stmt: 2, Kind: trace.KindCompute, Iter: 0, Var: trace.NoVar})
	if err := rel.Check(bigger); err == nil {
		t.Error("size mismatch should fail")
	}
	// Different identity.
	other := tr.Clone()
	other.Events[0].Stmt = 9
	if err := rel.Check(other); err == nil {
		t.Error("identity mismatch should fail")
	}
}

func TestBuildRejectsInvalidTrace(t *testing.T) {
	bad := trace.New(1)
	bad.Append(trace.Event{Time: 1, Proc: 5, Kind: trace.KindCompute})
	if _, err := order.Build(bad); err == nil {
		t.Error("invalid trace should be rejected")
	}
}
