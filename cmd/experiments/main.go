// Command experiments regenerates the paper's evaluation: Figure 1,
// Tables 1-3 and Figures 4-5, printing each with the paper's values
// alongside for comparison.
//
// Usage:
//
//	experiments [-run all|fig1|table1|table2|table3|fig4|fig5|ablation|faults|selfperturb|selftrace] [-noise N] [-exact] [-workers N]
//
// -noise sets the calibration error in per mille (default 8, the
// paper-scale environment); -exact forces perfect calibration; -workers
// runs independent simulations concurrently on up to N goroutines
// (default 1, serial). The output is byte-identical for any worker
// count — only the wall-clock time changes.
//
// -run selfperturb and -run selftrace are the exceptions: selfperturb
// audits the toolchain's own telemetry overhead, selftrace drives a live
// in-process perturbd with the span recorder attached and analyzes the
// service's own exported trace. Both print wall-clock times, so neither
// is part of -run all or the Markdown report.
//
// -stats prints the obs telemetry snapshot (human summary followed by one
// JSON line) to stderr after the run; -debug-addr serves expvar and pprof
// while the experiments execute.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"perturb/internal/buildinfo"
	"perturb/internal/experiments"
	"perturb/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	which := flag.String("run", "all", "experiment to run: all, fig1, table1, table2, table3, fig4, fig5, timing, vector, locks, scaling, ablation, faults, selfperturb, selftrace")
	noise := flag.Int("noise", 8, "calibration error in per mille")
	exact := flag.Bool("exact", false, "use exact calibration (overrides -noise)")
	markdown := flag.Bool("markdown", false, "emit the full evaluation as a Markdown report")
	workers := flag.Int("workers", 1, "run independent simulations on up to N goroutines")
	stats := flag.Bool("stats", false, "print telemetry statistics (human summary + one JSON line) to stderr")
	debugAddr := flag.String("debug-addr", "", "serve expvar and pprof on this address (e.g. localhost:6060)")
	version := flag.Bool("version", false, "print build and version information and exit")
	flag.Parse()

	if *version {
		buildinfo.Resolve().Print(os.Stdout, "experiments")
		return
	}

	if err := validateFlags(*workers, *noise, flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n\n", err)
		flag.Usage()
		os.Exit(2)
	}

	if *stats {
		obs.Reset()
		obs.SetEnabled(true)
	}
	if *debugAddr != "" {
		obs.SetEnabled(true)
		d, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer d.Close()
		log.Printf("debug server on http://%s/debug/vars (pprof under /debug/pprof/)", d.Addr())
	}

	env := experiments.PaperEnv()
	env.CalNoisePerMille = *noise
	if *exact {
		env.CalNoisePerMille = 0
	}
	env = env.WithWorkers(*workers)

	if *markdown {
		if err := experiments.WriteMarkdownReport(os.Stdout, env); err != nil {
			log.Fatal(err)
		}
	} else if err := run(os.Stdout, *which, env); err != nil {
		log.Fatal(err)
	}

	if *stats {
		snap := obs.Snapshot()
		if err := snap.WriteText(os.Stderr); err != nil {
			log.Fatal(err)
		}
		if err := json.NewEncoder(os.Stderr).Encode(snap); err != nil {
			log.Fatal(err)
		}
	}
}

// validateFlags rejects unusable flag values before any experiment runs;
// main reports the error with usage and exits non-zero.
func validateFlags(workers, noise int, args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments: %s", strings.Join(args, " "))
	}
	if workers < 1 {
		return fmt.Errorf("-workers must be at least 1, got %d", workers)
	}
	if noise < 0 {
		return fmt.Errorf("-noise must not be negative, got %d", noise)
	}
	return nil
}

type renderer interface{ Render(io.Writer) error }

func run(w io.Writer, which string, env experiments.Env) error {
	one := func(f func(experiments.Env) (renderer, error)) error {
		r, err := f(env)
		if err != nil {
			return err
		}
		return r.Render(w)
	}
	switch which {
	case "all":
		return experiments.RunAll(w, env)
	case "fig1":
		return one(func(e experiments.Env) (renderer, error) { return experiments.Figure1(e) })
	case "table1":
		return one(func(e experiments.Env) (renderer, error) { return experiments.Table1(e) })
	case "table2":
		return one(func(e experiments.Env) (renderer, error) { return experiments.Table2(e) })
	case "table3":
		return one(func(e experiments.Env) (renderer, error) { return experiments.Table3(e) })
	case "fig4":
		return one(func(e experiments.Env) (renderer, error) { return experiments.Figure4(e) })
	case "fig5":
		return one(func(e experiments.Env) (renderer, error) { return experiments.Figure5(e) })
	case "timing":
		return one(func(e experiments.Env) (renderer, error) { return experiments.EventTiming(e) })
	case "vector":
		return one(func(e experiments.Env) (renderer, error) { return experiments.ScalarVector(e) })
	case "locks":
		return one(func(e experiments.Env) (renderer, error) { return experiments.Locks(e) })
	case "scaling":
		for _, n := range []int{3, 4, 17} {
			res, err := experiments.Scaling(env, n, nil)
			if err != nil {
				return err
			}
			if err := res.Render(w); err != nil {
				return err
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		return nil
	case "ablation":
		for _, f := range []func(experiments.Env, int) (*experiments.AblationResult, error){
			experiments.AblationProbeCost,
			experiments.AblationCoverage,
			experiments.AblationCalibration,
		} {
			res, err := f(env, 17)
			if err != nil {
				return err
			}
			if err := res.Render(w); err != nil {
				return err
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		return nil
	case "faults":
		return one(func(e experiments.Env) (renderer, error) { return experiments.Faults(e) })
	case "selfperturb":
		// The audit toggles the telemetry layer itself, so it runs on the
		// benchmark workload rather than through env; see SelfPerturb.
		res, err := experiments.SelfPerturb(8, 250_000)
		if err != nil {
			return err
		}
		return res.Render(w)
	case "selftrace":
		// The dogfooded study drives a live in-process perturbd and reports
		// timings, so like selfperturb it is not part of -run all.
		res, err := experiments.SelfTrace(experiments.SelfTraceConfig{})
		if err != nil {
			return err
		}
		return res.Render(w)
	default:
		return fmt.Errorf("unknown experiment %q", which)
	}
}
