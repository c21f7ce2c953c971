package faults_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"perturb/internal/faults"
	"perturb/internal/instr"
	"perturb/internal/loops"
	"perturb/internal/machine"
	"perturb/internal/testgen"
	"perturb/internal/trace"
)

// repairDigest is the SHA-256 of every repair in repairCorpus: each
// repaired trace's binary encoding, each defect's String, the three
// modification counts and PerProc in processor order.
const repairDigest = "9deebf6092ea759af905ebc43354a7337de4c04e42458d42e2e20b8b62050a3a"

// digestSpecs are the fault specs every simulated trace of the digest
// corpus is damaged under: uniform faults at 1, 2 and 5%, drops alone at
// 1 and 5%, and 5% uniform faults with skewed and truncated processors.
func digestSpecs(seed uint64) []faults.Spec {
	whole := faults.Uniform(0.05, seed)
	whole.SkewProc, whole.TruncateProc = 0.5, 0.5
	return []faults.Spec{
		faults.Uniform(0.01, seed), faults.Uniform(0.02, seed), faults.Uniform(0.05, seed),
		faults.DropsOnly(0.01, seed), faults.DropsOnly(0.05, seed), whole,
	}
}

// smallTrace returns a seeded trace of at most 24 events on up to four
// processors, with equal times, exact copies, undefined kinds, negative
// processors and sync events without a variable, so that every pass of
// Repair and its tie-breaks see input no simulator emits.
func smallTrace(r *rand.Rand) *trace.Trace {
	tr := trace.New(r.Intn(5))
	for n := r.Intn(25); n > 0; n-- {
		if len(tr.Events) > 0 && r.Intn(8) == 0 {
			tr.Append(tr.Events[r.Intn(len(tr.Events))])
			continue
		}
		proc := r.Intn(4)
		if r.Intn(32) == 0 {
			proc = -1
		}
		tr.Append(trace.Event{
			Time: trace.Time(r.Intn(40)),
			Stmt: r.Intn(8) - 3,
			Proc: proc,
			Kind: trace.Kind(r.Intn(12)),
			Iter: r.Intn(5) - 1,
			Var:  r.Intn(4) - 1,
		})
	}
	return tr
}

// repairCorpus calls add on each damaged or random trace of the digest
// corpus: 500 seeded testgen programs and the 24 Livermore kernels, each
// under every digestSpecs spec, and 20,000 seeded small traces.
func repairCorpus(t testing.TB, add func(*trace.Trace)) {
	damage := func(tr *trace.Trace, seed uint64) {
		for _, spec := range digestSpecs(seed) {
			damaged, _ := faults.Inject(tr, spec)
			add(damaged)
		}
	}
	for seed := 0; seed < 500; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		l, cfg, ovh := testgen.Loop(r), testgen.Config(r), testgen.Overheads(r)
		res, err := machine.Run(l, instr.FullPlan(ovh, true), cfg)
		if err != nil {
			t.Fatal(err)
		}
		damage(res.Trace, uint64(seed))
	}
	ovh := loops.PaperOverheads()
	for _, n := range loops.Numbers() {
		res, err := machine.Run(loops.MustGet(n).Loop, instr.FullPlan(ovh, true), machine.Alliant())
		if err != nil {
			t.Fatal(err)
		}
		damage(res.Trace, uint64(n))
	}
	r := rand.New(rand.NewSource(1))
	for range 20000 {
		add(smallTrace(r))
	}
}

// TestRepairDigest pins Repair byte for byte: every repaired trace and
// report of repairCorpus hashes to repairDigest. A change that moves the
// digest changes what some repair does; re-pin it only for a change
// meant to do that, and say how many corpus traces it changed.
func TestRepairDigest(t *testing.T) {
	h := sha256.New()
	n := 0
	repairCorpus(t, func(tr *trace.Trace) {
		out, rep := trace.Repair(tr)
		if err := out.WriteBinary(h); err != nil {
			t.Fatal(err)
		}
		for _, d := range rep.Defects {
			fmt.Fprintln(h, d)
		}
		fmt.Fprintln(h, rep.Removed, rep.Synthesized, rep.Retimed)
		for _, p := range slices.Sorted(maps.Keys(rep.PerProc)) {
			fmt.Fprintln(h, p, rep.PerProc[p])
		}
		n++
	})
	if got := hex.EncodeToString(h.Sum(nil)); got != repairDigest {
		t.Errorf("repair digest over %d traces = %s, want %s", n, got, repairDigest)
	}
}
