package testgen

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"perturb/internal/core"
	"perturb/internal/faults"
	"perturb/internal/instr"
	"perturb/internal/loops"
	"perturb/internal/machine"
	"perturb/internal/program"
	"perturb/internal/trace"
)

// Case is one trace of a Corpus, with the calibration that analyzed it
// (or would analyze it, for a measured trace).
type Case struct {
	Name  string
	Trace *trace.Trace
	Cal   instr.Calibration
}

// Corpus returns the traces that derived statistics are checked on
// against their reference implementations:
//
//   - the backward wave of BackwardWave(8, 25000), measured and
//     approximated;
//   - the 24 Livermore kernels, measured and approximated;
//   - the golden traces in goldenDir (every *.txt file), under the
//     calibration their pinned analyses use;
//   - 500 seeded random programs, each measured, approximated and, after
//     injected faults, repaired and approximated;
//   - three-phase LL3+LL17+LL4 programs, measured and approximated,
//     under static and dynamic schedules;
//   - 24 seeded programs of two or three random loops under one random
//     configuration, measured and approximated, whose later phases fork
//     again.
//
// Every trace is valid and time-sorted.
func Corpus(goldenDir string) ([]Case, error) {
	var out []Case
	add := func(name string, tr *trace.Trace, cal instr.Calibration) {
		out = append(out, Case{Name: name, Trace: tr, Cal: cal})
	}
	analyzed := func(name string, m *trace.Trace, cal instr.Calibration, repair bool) error {
		add(name+"/measured", m, cal)
		a, err := core.Analyze(m, cal, core.Options{Repair: repair})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		add(name+"/approx", a.Trace, cal)
		return nil
	}

	waveCal := instr.Calibration{Overheads: instr.Uniform(2), SNoWait: 5, SWait: 8, AdvanceOp: 3, Barrier: 4}
	if err := analyzed("wave", BackwardWave(8, 25000), waveCal, false); err != nil {
		return nil, err
	}

	cfg := machine.Alliant()
	ovh := loops.PaperOverheads()
	paperCal := instr.Exact(ovh, cfg.SNoWait, cfg.SWait, cfg.AdvanceOp, cfg.Barrier)
	for _, n := range loops.Numbers() {
		res, err := machine.Run(loops.MustGet(n).Loop, instr.FullPlan(ovh, true), cfg)
		if err != nil {
			return nil, err
		}
		if err := analyzed(fmt.Sprintf("LL%d", n), res.Trace, paperCal, false); err != nil {
			return nil, err
		}
	}

	golden, err := filepath.Glob(filepath.Join(goldenDir, "*.txt"))
	if err != nil {
		return nil, err
	}
	sort.Strings(golden)
	goldenCal := instr.Calibration{Overheads: instr.Uniform(100), SNoWait: 50, SWait: 80, AdvanceOp: 30, Barrier: 40}
	for _, path := range golden {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		// Simulator and analysis goldens carry their expectations above
		// the trace.
		tr, err := trace.ReadText(bytes.NewReader(data[max(0, bytes.Index(data, []byte("# perturb-trace"))):]))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		add(filepath.Base(path), tr, goldenCal)
	}
	if len(golden) == 0 {
		return nil, fmt.Errorf("no golden traces in %s", goldenDir)
	}

	for seed := 0; seed < 500; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		l, cfg, ovh := Loop(r), Config(r), Overheads(r)
		res, err := machine.Run(l, instr.FullPlan(ovh, true), cfg)
		if err != nil {
			return nil, err
		}
		cal := instr.Exact(ovh, cfg.SNoWait, cfg.SWait, cfg.AdvanceOp, cfg.Barrier)
		name := fmt.Sprintf("seed%d", seed)
		if err := analyzed(name, res.Trace, cal, false); err != nil {
			return nil, err
		}
		damaged, _ := faults.Inject(res.Trace, faults.Uniform(0.02, uint64(seed)))
		if a, err := core.Analyze(damaged, cal, core.Options{Repair: true}); err == nil {
			add(name+"/repaired", a.Trace, cal)
		}
	}

	phases := []*program.Loop{loops.MustGet(3).Loop, loops.MustGet(17).Loop, loops.MustGet(4).Loop}
	for _, sched := range []program.Schedule{program.Interleaved, program.Dynamic} {
		cfg := machine.Alliant()
		cfg.Schedule = sched
		res, err := machine.RunProgram(program.NewProgram("LL3+LL17+LL4", phases...), instr.FullPlan(ovh, true), cfg)
		if err != nil {
			return nil, err
		}
		if err := analyzed(fmt.Sprintf("LL3+LL17+LL4/%v", sched), res.Trace, paperCal, false); err != nil {
			return nil, err
		}
	}

	for seed := 0; seed < 24; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		phases := make([]*program.Loop, 2+r.Intn(2))
		for i := range phases {
			phases[i] = Loop(r)
		}
		cfg, ovh := Config(r), Overheads(r)
		res, err := machine.RunProgram(program.NewProgram("phases", phases...), instr.FullPlan(ovh, true), cfg)
		if err != nil {
			return nil, err
		}
		cal := instr.Exact(ovh, cfg.SNoWait, cfg.SWait, cfg.AdvanceOp, cfg.Barrier)
		if err := analyzed(fmt.Sprintf("program%d", seed), res.Trace, cal, false); err != nil {
			return nil, err
		}
	}
	return out, nil
}
