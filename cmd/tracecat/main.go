// Command tracecat inspects trace files: it prints summaries, converts
// between the text, binary and columnar codecs, filters by processor or
// kind, validates structural invariants, and audits or repairs damaged
// traces.
//
// Usage:
//
//	tracecat [-summary] [-validate] [-audit] [-repair] [-proc N] [-kind K] [-o FILE [-format text|binary|columnar]] FILE
//
// The input format (text, binary or columnar) is auto-detected; -format
// picks the -o output codec. Columnar input with -proc/-kind filters
// decodes only the blocks whose index can match, skipping the rest.
// -audit classifies the trace's defects without modifying it; -repair
// sanitizes the trace before any other processing, so `-repair -o FILE`
// round-trips a damaged trace into a clean one.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"perturb"
	"perturb/internal/buildinfo"
)

type options struct {
	summary  bool
	validate bool
	audit    bool
	repair   bool
	proc     int
	kind     string
	out      string
	format   string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracecat: ")

	var o options
	flag.BoolVar(&o.summary, "summary", false, "print a summary instead of events")
	flag.BoolVar(&o.validate, "validate", false, "validate the trace and exit")
	flag.BoolVar(&o.audit, "audit", false, "classify the trace's defects and exit")
	flag.BoolVar(&o.repair, "repair", false, "sanitize the trace before other processing")
	flag.IntVar(&o.proc, "proc", -1, "only events of this processor")
	flag.StringVar(&o.kind, "kind", "", "only events of this kind (e.g. advance, awaitB)")
	flag.StringVar(&o.out, "o", "", "write the (filtered) trace to FILE")
	flag.StringVar(&o.format, "format", "", "codec for -o output: text, binary or columnar (default text)")
	version := flag.Bool("version", false, "print build and version information and exit")
	flag.Parse()
	if *version {
		buildinfo.Resolve().Print(os.Stdout, "tracecat")
		return
	}
	if err := validateOptions(o, flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "tracecat: %v\n\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, o, flag.Arg(0)); err != nil {
		log.Fatal(err)
	}
}

// validateOptions rejects unusable flag combinations before the trace is
// read; main reports the error with usage and exits non-zero.
func validateOptions(o options, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("expected exactly one trace FILE argument, got %d", len(args))
	}
	if o.format != "" && o.out == "" {
		return fmt.Errorf("-format selects the codec for -o output and requires -o FILE")
	}
	switch o.format {
	case "", "text", "binary", "columnar":
	default:
		return fmt.Errorf("unknown -format %q (want text, binary or columnar)", o.format)
	}
	if o.audit && o.repair {
		return fmt.Errorf("-audit classifies without modifying; it cannot be combined with -repair")
	}
	if o.proc < -1 {
		return fmt.Errorf("-proc must be a processor number or -1 (no filter), got %d", o.proc)
	}
	if _, ok := kindNamed(o.kind); o.kind != "" && !ok {
		return fmt.Errorf("unknown event kind %q (e.g. compute, advance, awaitB)", o.kind)
	}
	return nil
}

func run(w io.Writer, o options, path string) error {
	tr, err := readAuto(path, pushdown(o))
	if err != nil {
		return err
	}

	if o.audit {
		defects := perturb.AuditTrace(tr)
		if len(defects) == 0 {
			_, err := fmt.Fprintln(w, "clean")
			return err
		}
		for _, d := range defects {
			if _, err := fmt.Fprintln(w, d); err != nil {
				return err
			}
		}
		return nil
	}

	if o.repair {
		repaired, rep := perturb.RepairTrace(tr)
		tr = repaired
		if _, err := fmt.Fprintf(os.Stderr, "tracecat: repair: %s\n", rep.Summary()); err != nil {
			return err
		}
	}

	if o.proc >= 0 || o.kind != "" {
		tr = tr.Filter(func(e perturb.Event) bool {
			if o.proc >= 0 && e.Proc != o.proc {
				return false
			}
			if o.kind != "" && e.Kind.String() != o.kind {
				return false
			}
			return true
		})
	}

	if o.validate {
		if err := tr.Validate(); err != nil {
			return err
		}
		_, err := fmt.Fprintln(w, "ok")
		return err
	}

	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		switch {
		case o.format == "binary":
			err = tr.WriteBinary(f)
		case o.format == "columnar":
			err = tr.WriteColumnar(f)
		default:
			err = tr.WriteText(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}

	if o.summary {
		return printSummary(w, tr)
	}
	return tr.WriteText(w)
}

// pushdown derives the block filter the -proc/-kind row filters imply.
// It only applies when the row filter is the next processing step:
// -repair and -audit must see the whole trace, so they disable it. The
// filter is block-granular; run's row filter still drops the non-matching
// events of surviving blocks.
func pushdown(o options) perturb.TraceBlockFilter {
	var f perturb.TraceBlockFilter
	if o.repair || o.audit {
		return f
	}
	if o.proc >= 0 {
		f.Procs = []int{o.proc}
	}
	if o.kind != "" {
		if k, ok := kindNamed(o.kind); ok {
			f.Kinds = []perturb.Kind{k}
		}
	}
	return f
}

// kindNamed resolves the name of a defined event kind.
func kindNamed(name string) (perturb.Kind, bool) {
	for k := perturb.Kind(0); k.Valid(); k++ {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// readAuto decodes the file as a stream (codec auto-detected from the
// first bytes), never holding the raw encoding in memory alongside the
// decoded events. On columnar input the block filter skips blocks whose
// index proves they hold nothing the row filters keep.
func readAuto(path string, f perturb.TraceBlockFilter) (*perturb.Trace, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	r, err := perturb.NewFilteredTraceReader(in, f)
	if err != nil {
		return nil, err
	}
	return perturb.ReadTrace(r)
}

func printSummary(w io.Writer, tr *perturb.Trace) error {
	fmt.Fprintf(w, "events:   %d\n", tr.Len())
	fmt.Fprintf(w, "procs:    %d\n", tr.Procs)
	fmt.Fprintf(w, "span:     %v .. %v (duration %v)\n",
		time.Duration(tr.Start()), time.Duration(tr.End()), time.Duration(tr.Duration()))
	kinds := map[perturb.Kind]int{}
	perProc := make([]int, tr.Procs)
	for _, e := range tr.Events {
		kinds[e.Kind]++
		if e.Proc >= 0 && e.Proc < tr.Procs {
			perProc[e.Proc]++
		}
	}
	fmt.Fprintln(w, "by kind:")
	for k := perturb.Kind(0); int(k) < 16; k++ {
		if n, ok := kinds[k]; ok {
			fmt.Fprintf(w, "  %-16s %d\n", k, n)
		}
	}
	fmt.Fprintln(w, "by proc:")
	for p, n := range perProc {
		fmt.Fprintf(w, "  proc %-3d %d\n", p, n)
	}
	if err := tr.Validate(); err != nil {
		fmt.Fprintf(w, "validate: FAILED: %v\n", err)
	} else {
		fmt.Fprintln(w, "validate: ok")
	}
	return nil
}
