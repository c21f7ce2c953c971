package core_test

import (
	"testing"

	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/machine"
	"perturb/internal/program"
)

func benchTraceSetup(b *testing.B) (*machine.Result, instr.Calibration) {
	b.Helper()
	cfg := machine.Alliant()
	l := testLoop(2048)
	ovh := instr.Uniform(5 * us)
	measured, err := machine.Run(l, instr.FullPlan(ovh, true), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return measured, exactCalFor(cfg, ovh)
}

func BenchmarkTimeBasedThroughput(b *testing.B) {
	measured, cal := benchTraceSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TimeBased(measured.Trace, cal); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(measured.Events)/1000, "kevents")
}

func BenchmarkEventBasedThroughput(b *testing.B) {
	measured, cal := benchTraceSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EventBased(measured.Trace, cal); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(measured.Events)/1000, "kevents")
}

// BenchmarkLiberalThroughput re-times the measured loop on 8 processors
// under each target schedule.
func BenchmarkLiberalThroughput(b *testing.B) {
	measured, cal := benchTraceSetup(b)
	for s := range program.NumSchedules {
		sched := program.Schedule(s)
		b.Run(sched.String(), func(b *testing.B) {
			opts := core.LiberalOptions{Procs: 8, Distance: 1, Schedule: sched}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.LiberalEventBased(measured.Trace, cal, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(measured.Events)/1000, "kevents")
		})
	}
}
