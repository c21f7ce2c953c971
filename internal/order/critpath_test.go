package order_test

import (
	"testing"

	"perturb/internal/instr"
	"perturb/internal/machine"
	"perturb/internal/order"
	"perturb/internal/program"
	"perturb/internal/trace"
)

// TestCriticalPathChainBound: on a chain-bound DOACROSS loop, the critical
// path runs through the advance/await chain, so most of its length is sync
// hops plus the small serialized critical regions.
func TestCriticalPathChainBound(t *testing.T) {
	l := program.NewBuilder("chain", 0, program.DOACROSS, 64).
		Compute("w", 500).
		CriticalBegin(0).
		Compute("c", 4000).
		CriticalEnd(0).
		Loop()
	res, err := machine.Run(l, instr.NonePlan(), machine.Alliant())
	if err != nil {
		t.Fatal(err)
	}
	p, err := order.CriticalPath(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) == 0 {
		t.Fatal("empty path")
	}
	// The path must span the whole trace.
	want := res.Trace.End() - res.Trace.Start()
	if p.Total < want*9/10 {
		t.Errorf("path total %d far below trace span %d", p.Total, want)
	}
	// A chain-bound loop crosses processors on most iterations.
	if syncHops := countSyncHops(res.Trace, p); syncHops < 32 {
		t.Errorf("chain-bound path should hop processors often, got %d sync hops", syncHops)
	}
	if p.String() == "" {
		t.Error("String should describe the path")
	}
}

// TestCriticalPathProcBound: a DOALL loop's critical path stays on one
// processor (plus at most the final barrier hop).
func TestCriticalPathProcBound(t *testing.T) {
	l := program.NewBuilder("flat", 0, program.DOALL, 128).
		Compute("w", 1000).
		Loop()
	res, err := machine.Run(l, instr.NonePlan(), machine.Alliant())
	if err != nil {
		t.Fatal(err)
	}
	p, err := order.CriticalPath(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	// Fork hop + barrier hop at most (plus release fan-in).
	if syncHops := countSyncHops(res.Trace, p); syncHops > 3 {
		t.Errorf("DOALL path should rarely hop processors, got %d sync hops", syncHops)
	}
	if p.SyncGap > p.Total/4 {
		t.Errorf("sync gap %d is a large share of total %d", p.SyncGap, p.Total)
	}
}

// countSyncHops counts the path's steps whose processor differs from the
// step before.
func countSyncHops(tr *trace.Trace, p *order.Path) int {
	n := 0
	for k := 1; k < len(p.Steps); k++ {
		if tr.Events[p.Steps[k]].Proc != tr.Events[p.Steps[k-1]].Proc {
			n++
		}
	}
	return n
}

func TestCriticalPathEmptyAndInvalid(t *testing.T) {
	p, err := order.CriticalPath(trace.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 0 || p.Total != 0 {
		t.Errorf("empty trace path = %+v", p)
	}
	bad := trace.New(1)
	bad.Append(trace.Event{Time: 1, Proc: 9, Kind: trace.KindCompute})
	if _, err := order.CriticalPath(bad); err == nil {
		t.Error("invalid trace should be rejected")
	}
}
