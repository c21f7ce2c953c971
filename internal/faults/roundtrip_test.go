package faults_test

import (
	"math/rand"
	"testing"

	"perturb/internal/core"
	"perturb/internal/faults"
	"perturb/internal/instr"
	"perturb/internal/machine"
	"perturb/internal/order"
	"perturb/internal/testgen"
	"perturb/internal/trace"
)

// TestFaultClassRoundTrip: for every fault class alone (and all combined),
// an injected trace makes the full Validate -> Repair -> Analyze round
// trip: the sanitizer restores a Validate-clean trace, repair is
// idempotent, and the degraded analysis produces a finite approximation
// with a confidence summary.
func TestFaultClassRoundTrip(t *testing.T) {
	cal := instr.Exact(instr.Uniform(2), 3, 5, 2, 4)
	cases := []struct {
		name string
		spec faults.Spec
	}{
		{"drop-probe", faults.Spec{Seed: 21, DropProbe: 0.1}},
		{"drop-sync", faults.Spec{Seed: 22, DropSync: 0.1}},
		{"duplicate", faults.Spec{Seed: 23, Duplicate: 0.1}},
		{"reorder", faults.Spec{Seed: 24, Reorder: 0.1}},
		{"clock-skew", faults.Spec{Seed: 25, SkewProc: 1, SkewMag: 30}},
		{"truncate", faults.Spec{Seed: 26, TruncateProc: 1, TruncateFrac: 0.1}},
		{"all", func() faults.Spec {
			s := faults.Uniform(0.05, 27)
			s.SkewProc, s.SkewMag = 0.5, 30
			s.TruncateProc, s.TruncateFrac = 0.5, 0.05
			return s
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := syntheticTrace(120)
			corrupted, rep := faults.Inject(tr, tc.spec)
			if rep.Total() == 0 {
				t.Fatalf("%s injected nothing", tc.name)
			}

			repaired, rrep := trace.Repair(corrupted)
			if err := repaired.Validate(); err != nil {
				t.Fatalf("repaired trace fails Validate: %v\nrepair: %s", err, rrep.Summary())
			}
			again, rrep2 := trace.Repair(repaired)
			if rrep2.Modified() {
				t.Fatalf("repair not idempotent: %s", rrep2.Summary())
			}
			if again.Len() != repaired.Len() {
				t.Fatalf("second repair changed event count: %d -> %d", repaired.Len(), again.Len())
			}

			a, err := core.Analyze(corrupted, cal, core.Options{Repair: true})
			if err != nil {
				t.Fatalf("degraded analysis failed: %v\nfaults: %v\nrepair: %s", err, rep, rrep.Summary())
			}
			if a.Duration <= 0 {
				t.Fatalf("degraded analysis produced duration %d", a.Duration)
			}
			if a.Repair == nil || a.Confidence == nil {
				t.Fatal("degraded analysis missing repair report or confidence")
			}
			for _, c := range a.Confidence {
				if c.Score < 0 || c.Score > 1 {
					t.Fatalf("proc %d confidence %v out of range", c.Proc, c.Score)
				}
			}
		})
	}
}

// TestRepairOrdersReorderedBarrier: a reorder fault that swaps a
// processor's barrier arrival and release is a reordered bracket. In
// testgen program 119 under 2% uniform faults, p0's release is recorded
// at 140,501 ns and its arrival at 142,242 ns. Repair swaps them back, so
// the degraded analysis resolves the barrier without a forced resolution
// and its approximation is feasible.
func TestRepairOrdersReorderedBarrier(t *testing.T) {
	r := rand.New(rand.NewSource(119))
	l, cfg, ovh := testgen.Loop(r), testgen.Config(r), testgen.Overheads(r)
	res, err := machine.Run(l, instr.FullPlan(ovh, true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	damaged, _ := faults.Inject(res.Trace, faults.Uniform(0.02, 119))
	barrier := func(tr *trace.Trace) (arrive, release trace.Time) {
		for _, e := range tr.Events {
			switch {
			case e.Proc != 0:
			case e.Kind == trace.KindBarrierArrive:
				arrive = e.Time
			case e.Kind == trace.KindBarrierRelease:
				release = e.Time
			}
		}
		return arrive, release
	}
	if arrive, release := barrier(damaged); arrive != 142242 || release != 140501 {
		t.Fatalf("damaged p0 barrier: arrival %d, release %d; want the reordered 142242, 140501", arrive, release)
	}
	repaired, rep := trace.Repair(damaged)
	if arrive, release := barrier(repaired); arrive > release {
		t.Fatalf("repaired p0 barrier: arrival %d after release %d\nrepair: %s", arrive, release, rep.Summary())
	}
	cal := instr.Exact(ovh, cfg.SNoWait, cfg.SWait, cfg.AdvanceOp, cfg.Barrier)
	a, err := core.Analyze(damaged, cal, core.Options{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range a.Confidence {
		if c.Forced != 0 {
			t.Errorf("p%d: %d forced resolutions", c.Proc, c.Forced)
		}
	}
	rel, err := order.Build(repaired)
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.Check(a.Trace); err != nil {
		t.Errorf("degraded approximation is infeasible: %v", err)
	}
}

// TestRepairedRunsKeepProgramOrder: repair leaves each processor one
// arrival, then one release, per barrier, and its loop-end after the
// release. On 500 seeded programs under 2% uniform faults the degraded
// analysis is a feasible execution of itself: with a second arrival
// after the release, seeds 289 and 466 stall-broke the barrier and timed
// a release before an arrival. On seeds 100, 146 and 385 a reorder put
// p0's loop-end before its release, and the approximation must also be
// feasible against the repaired measured trace: the loop-end's gap from
// the arrival carried the whole barrier wait. So must it on seeds 212,
// 595, 753, 1173, 1186, 1425 and 1498, where the engine anchored an event
// on a fork fence and timed it before its processor's previous event.
func TestRepairedRunsKeepProgramOrder(t *testing.T) {
	measuredCheck := map[int]bool{100: true, 146: true, 385: true,
		212: true, 595: true, 753: true, 1173: true, 1186: true, 1425: true, 1498: true}
	for seed := range 1500 {
		if seed >= 500 && !measuredCheck[seed] {
			continue
		}
		r := rand.New(rand.NewSource(int64(seed)))
		l, cfg, ovh := testgen.Loop(r), testgen.Config(r), testgen.Overheads(r)
		res, err := machine.Run(l, instr.FullPlan(ovh, true), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cal := instr.Exact(ovh, cfg.SNoWait, cfg.SWait, cfg.AdvanceOp, cfg.Barrier)
		damaged, _ := faults.Inject(res.Trace, faults.Uniform(0.02, uint64(seed)))
		a, err := core.Analyze(damaged, cal, core.Options{Repair: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := order.CheckSelf(a.Trace); err != nil {
			t.Errorf("seed %d: approximation infeasible against itself: %v", seed, err)
		}
		if !measuredCheck[seed] {
			continue
		}
		repaired, _ := trace.Repair(damaged)
		rel, err := order.Build(repaired)
		if err != nil {
			t.Fatal(err)
		}
		if err := rel.Check(a.Trace); err != nil {
			t.Errorf("seed %d: approximation infeasible against the repaired trace: %v", seed, err)
		}
	}
}

// TestFaultFreeAnalyzeByteIdentical: with injection disabled, the whole
// pipeline — inject (no-op), analyze with and without repair — produces
// results byte-identical to analyzing the pristine trace.
func TestFaultFreeAnalyzeByteIdentical(t *testing.T) {
	cal := instr.Exact(instr.Uniform(2), 3, 5, 2, 4)
	tr := syntheticTrace(120)
	out, rep := faults.Inject(tr, faults.Spec{})
	if rep.Total() != 0 || !sameEvents(tr, out) {
		t.Fatal("disabled injection altered the trace")
	}
	want, err := core.EventBased(tr, cal)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Analyze(out, cal, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Duration != want.Duration || got.Trace.Len() != want.Trace.Len() {
		t.Fatalf("fault-free analysis differs: duration %d vs %d", got.Duration, want.Duration)
	}
	for i := range want.Trace.Events {
		if got.Trace.Events[i] != want.Trace.Events[i] {
			t.Fatalf("fault-free analysis differs at event %d", i)
		}
	}
}
