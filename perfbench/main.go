// Command perfbench is the repository benchmark. It runs one named
// workload at one seed, checks the program's outputs, and prints every
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . -workload service-mix -seed 7 -seconds 20 -trace 0
//
// With -trace 0 the metrics are the end-to-end metrics, from an
// untraced run. With -trace 1 the same workload runs with the
// benchmark's span recorder on, and the metrics are the per-layer
// numbers plus the tracing overhead; the spans are written to -out.
// Every workload reports the same metrics, those of BENCHMARK.json;
// numbers only some workloads have are printed as notes before the
// result. README.md describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// setupRepeats is how many times a run performs its whole set-up; setup_s
// is the median. The last set-up's state is the one the timed phase uses.
const setupRepeats = 3

// metricSpec names a metric of the result object and its unit.
type metricSpec struct{ name, unit string }

// endToEnd and perLayer are the metrics every workload reports, untraced
// and traced, in the order of BENCHMARK.json (a test keeps the two in
// step).
var (
	endToEnd = []metricSpec{
		{"setup_s", "s"},
		{"latency_p50_ms", "ms"},
		{"events_per_s", "events/s"},
		{"peak_rss_mb", "MB"},
		{"alloc_mb_per_op", "MB"},
	}
	perLayer = []metricSpec{
		{"trace.decode_us_per_kevent", "us/kevent"},
		{"core.analyze_us_per_kevent", "us/kevent"},
		{"core.analyze_alloc_b_per_event", "B/event"},
		{"server.build_response_us_per_kevent", "us/kevent"},
		{"cache.hits", "count"},
		{"cache.misses", "count"},
		{"server.shed", "count"},
		{"server.retries", "count"},
		{"trace_overhead_pct", "%"},
	}
)

// runConfig is what every workload receives: the seed its inputs come
// from, the length of the timed phase, and the span recorder (nil in an
// untraced run).
type runConfig struct {
	seed    uint64
	seconds time.Duration
	rec     *recorder
}

func (c runConfig) traced() bool { return c.rec != nil }

// metric is one reported number. samples is the sample count behind a
// timing or percentile (0 for counts and ratios).
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// result is a workload's outcome: ops attempted in the timed phase, how
// many of them failed (an error or an output that did not check), the
// metrics, and notes: numbers printed for the reader but not part of the
// result object.
type result struct {
	attempted int
	failed    int
	metrics   []metric
	notes     []metric
}

func (r *result) add(name string, value float64, unit string, samples int) {
	r.metrics = append(r.metrics, metric{name, value, unit, samples})
}

func (r *result) note(name string, value float64, unit string, samples int) {
	r.notes = append(r.notes, metric{name, value, unit, samples})
}

var workloads = map[string]func(runConfig) (*result, error){
	"batch-wave":  runBatchWave,
	"service-mix": runServiceMix,
	"stream-live": runStreamLive,
}

func main() {
	workload := flag.String("workload", "", "workload to run: batch-wave, service-mix or stream-live")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "length of the timed phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs with the span recorder on and prints the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory the traced run writes its spans to")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *traceFlag)
		flag.Usage()
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	if *traceFlag == 1 {
		cfg.rec = newRecorder()
	}

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if cfg.traced() {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed))
		if err := cfg.rec.writeFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("spans: %d written to %s\n", cfg.rec.len(), path)
	}
	want := endToEnd
	if cfg.traced() {
		want = perLayer
	}
	if err := report(os.Stdout, *workload, res, want); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// report prints one human-readable line per metric and note, with its
// sample count, and then the result object as the last line. It fails,
// printing nothing, unless the metrics are exactly want.
func report(w io.Writer, workload string, res *result, want []metricSpec) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   res.attempted > 0 && res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]value, len(res.metrics)),
	}
	for _, m := range res.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		if _, dup := out.Metrics[m.name]; dup {
			return fmt.Errorf("metric %s reported twice", m.name)
		}
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	if len(out.Metrics) != len(want) {
		return fmt.Errorf("%d metrics reported, want %d", len(out.Metrics), len(want))
	}
	for _, s := range want {
		if v, ok := out.Metrics[s.name]; !ok || v.Unit != s.unit {
			return fmt.Errorf("metric %s (%s) not reported", s.name, s.unit)
		}
	}
	for _, m := range append(res.metrics, res.notes...) {
		n := ""
		if m.samples > 0 {
			n = fmt.Sprintf("  (n=%d)", m.samples)
		}
		fmt.Fprintf(w, "%s %-36s %14.4f %s%s\n", workload, m.name, m.value, m.unit, n)
	}
	fmt.Fprintf(w, "%s ops: %d attempted, %d failed\n", workload, res.attempted, res.failed)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
