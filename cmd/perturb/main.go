// Command perturb simulates a Livermore loop on the modeled machine,
// instruments it, runs perturbation analysis, and reports execution-time
// ratios and waiting statistics. Traces can be saved and re-analyzed.
//
// Usage:
//
//	perturb -loop 17 [flags]
//
// Flags:
//
//	-loop N        Livermore kernel number (default 17)
//	-analysis S    time | event | liberal (default event)
//	-workers N     accepted for compatibility and ignored
//	-inject P      drop each probe record with probability P (fault model)
//	-seed N        fault-injection seed (default 1)
//	-repair        sanitize the trace and analyze in degraded mode
//	-sync          instrument advance/await operations (default true)
//	-probe D       per-event probe cost, e.g. 5us (default paper costs)
//	-procs N       processors (default 8)
//	-schedule S    interleaved | blocked | dynamic (default interleaved)
//	-save FILE     write the measured trace (text format) to FILE
//	-load FILE     skip simulation, analyze the trace in FILE
//	               (text, binary or columnar, auto-detected, decoded as
//	               a stream)
//	-follow FILE   stream-analyze FILE as it grows (tail -f for traces):
//	               windows print as the producer writes events, and the
//	               session closes with the batch-identical summary once
//	               the file has been idle for -follow-idle
//	-window D      streaming window length on the measured-time axis,
//	               e.g. 100us (0 = one cumulative window at the end)
//	-slide D       streaming window spacing (0 = tumbling windows)
//	-follow-idle D end the followed stream after this long without new
//	               data (default 2s)
//	-slice SPEC    analyze only the causally sufficient slice for SPEC,
//	               e.g. 'procs=3 kinds=awaitE window=1000:2500'
//	               (constraints: procs=, stmts=, kinds=, window=from:to);
//	               columnar -load input skips blocks past the window
//	               without decoding them
//	-waiting       print per-processor waiting statistics
//	-timeline      print the busy/waiting timeline
//	-critpath      print the critical path summary
//	-profile       print the per-statement time profile
//	-svg FILE      write the approximated timeline as SVG to FILE
//	-remote URLs   send the trace to a perturbd service instead of
//	               analyzing locally; shed requests are retried with
//	               backoff. A comma-separated list (http://a,http://b)
//	               forms a fleet: traces route to endpoints by consistent
//	               hashing on their content address, with failover to the
//	               next replica on transport errors and 503s. Detail
//	               views (-waiting, -timeline, ...) need the approximated
//	               trace and stay local-only.
//	-hedge         with a multi-endpoint -remote, mirror a slow request
//	               to the next-choice replica after the endpoint's recent
//	               p90 latency; first answer wins, the loser is canceled
//	-hedge-after D fix the hedge delay (e.g. 50ms) instead of deriving it
//	               from the endpoint's recent p90 latency
//	-quiet         print only the summary line
//	-stats         print pipeline span timings and engine telemetry to
//	               stderr: a human-readable summary followed by one JSON
//	               line (machine-readable, starts with '{')
//	-debug-addr A  serve expvar (/debug/vars) and pprof (/debug/pprof/)
//	               on this address, e.g. localhost:6060
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"perturb"
	"perturb/internal/buildinfo"
	"perturb/internal/obs"
	"perturb/internal/server"
	"perturb/internal/textplot"
)

// options collects everything main parses from flags, so the study itself
// is testable.
type options struct {
	loop      int
	analysis  string
	workers   int
	inject    float64
	seed      uint64
	repair    bool
	withSync  bool
	probe     time.Duration
	procs     int
	schedule  string
	saveFile  string
	loadFile  string
	sliceSpec string

	followFile string
	window     time.Duration
	slide      time.Duration
	followIdle time.Duration

	waiting    bool
	timeline   bool
	critpath   bool
	profile    bool
	svgFile    string
	remote     string
	hedge      bool
	hedgeAfter time.Duration
	quiet      bool
	stats      bool
	debugAddr  string
	statsW     io.Writer // -stats destination; nil means os.Stderr
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perturb: ")

	var o options
	flag.IntVar(&o.loop, "loop", 17, "Livermore kernel number (1-24)")
	flag.StringVar(&o.analysis, "analysis", "event", "analysis: time, event or liberal")
	flag.IntVar(&o.workers, "workers", 0, "accepted for compatibility and ignored (-1, 0 or positive)")
	flag.Float64Var(&o.inject, "inject", 0, "drop each probe record with this probability before analyzing")
	flag.Uint64Var(&o.seed, "seed", 1, "fault-injection seed")
	flag.BoolVar(&o.repair, "repair", false, "sanitize the trace and analyze in degraded mode")
	flag.BoolVar(&o.withSync, "sync", true, "instrument advance/await operations")
	flag.DurationVar(&o.probe, "probe", 0, "uniform per-event probe cost (0 = paper costs)")
	flag.IntVar(&o.procs, "procs", 8, "number of processors")
	flag.StringVar(&o.schedule, "schedule", "interleaved", "iteration schedule: interleaved, blocked or dynamic")
	flag.StringVar(&o.saveFile, "save", "", "write the measured trace (text) to this file")
	flag.StringVar(&o.loadFile, "load", "", "analyze a previously saved trace instead of simulating")
	flag.StringVar(&o.sliceSpec, "slice", "", "analyze only the causally sufficient slice for this query (e.g. 'procs=3 window=1000:2500')")
	flag.StringVar(&o.followFile, "follow", "", "stream-analyze this trace file as it grows (tail -f for traces)")
	flag.DurationVar(&o.window, "window", 0, "streaming window length in measured time, e.g. 100us (0 = one cumulative window)")
	flag.DurationVar(&o.slide, "slide", 0, "streaming window spacing (0 = tumbling windows)")
	flag.DurationVar(&o.followIdle, "follow-idle", 2*time.Second, "end a followed stream after this long without new data")
	flag.BoolVar(&o.waiting, "waiting", false, "print per-processor waiting statistics")
	flag.BoolVar(&o.timeline, "timeline", false, "print the busy/waiting timeline")
	flag.BoolVar(&o.critpath, "critpath", false, "print the critical path summary")
	flag.BoolVar(&o.profile, "profile", false, "print the per-statement time profile")
	flag.StringVar(&o.svgFile, "svg", "", "write the approximated timeline as SVG to this file")
	flag.StringVar(&o.remote, "remote", "", "analyze on a perturbd service instead of locally: one base URL, or a comma-separated fleet")
	flag.BoolVar(&o.hedge, "hedge", false, "hedge slow fleet requests to the next-choice replica (needs a multi-endpoint -remote)")
	flag.DurationVar(&o.hedgeAfter, "hedge-after", 0, "fixed hedge delay, e.g. 50ms (0 = derive from the endpoint's recent p90 latency; needs -hedge)")
	flag.BoolVar(&o.quiet, "quiet", false, "print only the summary line")
	flag.BoolVar(&o.stats, "stats", false, "print pipeline/telemetry statistics (human summary + one JSON line) to stderr")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "serve expvar and pprof on this address (e.g. localhost:6060)")
	version := flag.Bool("version", false, "print build and version information and exit")
	flag.Parse()

	if *version {
		buildinfo.Resolve().Print(os.Stdout, "perturb")
		return
	}

	if err := validateOptions(o, flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "perturb: %v\n\n", err)
		flag.Usage()
		os.Exit(2)
	}

	if o.debugAddr != "" {
		perturb.EnableObservability(true)
		d, err := perturb.ServeDebug(o.debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer d.Close()
		log.Printf("debug server on http://%s/debug/vars (pprof under /debug/pprof/)", d.Addr())
	}

	if err := study(os.Stdout, o); err != nil {
		log.Fatal(err)
	}
}

// validateOptions rejects flag combinations that cannot run before any
// work starts; main reports the error with usage and exits non-zero.
func validateOptions(o options, args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments: %s", strings.Join(args, " "))
	}
	if o.workers < -1 {
		return fmt.Errorf("-workers must be -1, 0 or positive, got %d", o.workers)
	}
	if o.procs < 1 {
		return fmt.Errorf("-procs must be at least 1, got %d", o.procs)
	}
	if o.probe < 0 {
		return fmt.Errorf("-probe must not be negative, got %v", o.probe)
	}
	if o.loadFile != "" && o.saveFile != "" {
		return fmt.Errorf("-load and -save are mutually exclusive (use tracecat to convert traces)")
	}
	if o.inject < 0 || o.inject >= 1 {
		return fmt.Errorf("-inject must be a probability in [0, 1), got %v", o.inject)
	}
	if o.sliceSpec != "" {
		if _, err := perturb.ParseSliceQuery(o.sliceSpec); err != nil {
			return fmt.Errorf("-slice: %w", err)
		}
		if o.inject > 0 {
			return fmt.Errorf("-slice needs a structurally valid trace and cannot follow -inject")
		}
	}
	if o.window < 0 || o.slide < 0 {
		return fmt.Errorf("-window and -slide must not be negative")
	}
	if o.followFile == "" && (o.window != 0 || o.slide != 0) {
		return fmt.Errorf("-window and -slide only apply to a -follow stream")
	}
	if o.followFile != "" {
		if o.followIdle <= 0 {
			return fmt.Errorf("-follow-idle must be positive, got %v", o.followIdle)
		}
		switch a := strings.ToLower(o.analysis); a {
		case "event", "time":
		default:
			return fmt.Errorf("-follow cannot run the %s analysis incrementally (use event or time)", a)
		}
		for _, bad := range []struct {
			set  bool
			flag string
		}{
			{o.loadFile != "", "-load"}, {o.saveFile != "", "-save"},
			{o.sliceSpec != "", "-slice"}, {o.inject > 0, "-inject"},
			{o.remote != "", "-remote"}, {o.waiting, "-waiting"},
			{o.timeline, "-timeline"}, {o.critpath, "-critpath"},
			{o.profile, "-profile"}, {o.svgFile != "", "-svg"},
		} {
			if bad.set {
				return fmt.Errorf("%s cannot be combined with -follow (the stream reports windows and a summary)", bad.flag)
			}
		}
	}
	if o.hedge && len(remoteEndpoints(o.remote)) < 2 {
		return fmt.Errorf("-hedge needs a multi-endpoint -remote (comma-separated base URLs)")
	}
	if o.hedgeAfter < 0 {
		return fmt.Errorf("-hedge-after must be non-negative, got %v", o.hedgeAfter)
	}
	if o.hedgeAfter > 0 && !o.hedge {
		return fmt.Errorf("-hedge-after needs -hedge")
	}
	if o.remote != "" {
		for _, ep := range remoteEndpoints(o.remote) {
			if !strings.HasPrefix(ep, "http://") && !strings.HasPrefix(ep, "https://") {
				return fmt.Errorf("-remote endpoints must be http(s) base URLs, got %q", ep)
			}
		}
		if strings.ToLower(o.analysis) == "liberal" {
			return fmt.Errorf("-remote cannot run the liberal analysis (it needs loop structure the service does not have)")
		}
		for _, bad := range []struct {
			set  bool
			flag string
		}{
			{o.waiting, "-waiting"}, {o.timeline, "-timeline"},
			{o.critpath, "-critpath"}, {o.profile, "-profile"},
			{o.svgFile != "", "-svg"},
		} {
			if bad.set {
				return fmt.Errorf("%s needs the approximated trace and cannot be combined with -remote", bad.flag)
			}
		}
	}
	return nil
}

// derived holds every requested report view, computed in the metrics
// phase so rendering (the report phase) is pure output.
type derived struct {
	ws    []perturb.ProcWaiting
	pct   []float64
	path  *perturb.CriticalPath
	prof  []perturb.StmtProfile
	lanes []textplot.Lane
}

// study runs the load / analyze / metrics / report pipeline. Each phase
// is traced as an obs span; -stats resets the telemetry layer, enables
// it for the run, and emits the snapshot afterwards.
func study(w io.Writer, o options) error {
	if o.stats {
		perturb.ResetObservability()
		perturb.EnableObservability(true)
		defer perturb.EnableObservability(false)
	}

	if o.followFile != "" {
		if err := followStudy(w, o); err != nil {
			return err
		}
		return studyStats(o)
	}

	cfg := perturb.Alliant()
	cfg.Procs = o.procs
	switch strings.ToLower(o.schedule) {
	case "interleaved":
		cfg.Schedule = perturb.Interleaved
	case "blocked":
		cfg.Schedule = perturb.Blocked
	case "dynamic":
		cfg.Schedule = perturb.Dynamic
	default:
		return fmt.Errorf("unknown schedule %q", o.schedule)
	}

	ovh := perturb.PaperOverheads()
	if o.probe > 0 {
		ovh = perturb.UniformOverheads(perturb.Time(o.probe.Nanoseconds()))
	}
	cal := perturb.ExactCalibration(ovh, cfg)

	loop, err := perturb.LivermoreLoop(o.loop)
	if err != nil {
		return err
	}

	measured, actualDur, haveActual, srep, err := loadPhase(o, loop, cfg, ovh)
	if err != nil {
		return err
	}
	if srep != nil && !o.quiet {
		fmt.Fprintf(w, "slice: %d of %d events kept (%d selected)", srep.Kept, srep.Total, srep.Selected)
		if srep.BlocksRead+srep.BlocksSkipped > 0 {
			fmt.Fprintf(w, ", %d blocks decoded, %d skipped", srep.BlocksRead, srep.BlocksSkipped)
		}
		fmt.Fprintln(w)
	}

	if o.inject > 0 {
		var frep *perturb.FaultReport
		measured, frep = perturb.InjectFaults(measured, perturb.DropFaults(o.inject, o.seed))
		if !o.quiet {
			fmt.Fprintf(w, "fault injection: %d probe records dropped (rate %g, seed %d)\n",
				frep.Total(), o.inject, o.seed)
		}
	}

	if o.remote != "" {
		return remotePhase(w, o, loop, measured, cal, actualDur, haveActual)
	}

	approx, err := analyzePhase(o, measured, cal, loop, cfg)
	if err != nil {
		return err
	}

	d, err := metricsPhase(o, cal, approx)
	if err != nil {
		return err
	}

	if err := reportPhase(w, o, loop, measured, approx, d, actualDur, haveActual); err != nil {
		return err
	}

	return studyStats(o)
}

// studyStats emits the -stats telemetry snapshot after a pipeline run.
func studyStats(o options) error {
	if !o.stats {
		return nil
	}
	statsW := o.statsW
	if statsW == nil {
		statsW = os.Stderr
	}
	snap := perturb.ObservabilitySnapshot()
	if err := snap.WriteText(statsW); err != nil {
		return err
	}
	return json.NewEncoder(statsW).Encode(snap)
}

// loadPhase produces the measured trace, either by simulating the kernel
// (plus an uninstrumented run for the actual duration) or by streaming a
// saved trace from disk; -save persists the result (always the full
// trace, never a slice). With -slice the returned trace is the causally
// sufficient sub-trace for the query — on columnar -load input the
// decoder skips blocks the query's window rules out.
func loadPhase(o options, loop *perturb.Loop, cfg perturb.MachineConfig, ovh perturb.Overheads) (measured *perturb.Trace, actualDur perturb.Time, haveActual bool, srep *perturb.SliceReport, err error) {
	defer obs.StartSpan("pipeline.load").End()

	var query perturb.SliceQuery
	if o.sliceSpec != "" {
		query, err = perturb.ParseSliceQuery(o.sliceSpec)
		if err != nil {
			return nil, 0, false, nil, err
		}
	}

	if o.loadFile != "" {
		f, err := os.Open(o.loadFile)
		if err != nil {
			return nil, 0, false, nil, err
		}
		var rerr error
		if o.sliceSpec != "" {
			measured, srep, rerr = perturb.SliceTrace(f, query)
		} else {
			var r perturb.TraceReader
			if r, rerr = perturb.NewTraceReader(f); rerr == nil {
				measured, rerr = perturb.ReadTrace(r)
			}
		}
		f.Close()
		if rerr != nil {
			return nil, 0, false, nil, rerr
		}
		return measured, 0, false, srep, nil
	}

	actual, err := perturb.Simulate(loop, perturb.NoInstrumentation(), cfg)
	if err != nil {
		return nil, 0, false, nil, err
	}
	actualDur = actual.Duration
	haveActual = true
	res, err := perturb.Simulate(loop, perturb.FullInstrumentation(ovh, o.withSync), cfg)
	if err != nil {
		return nil, 0, false, nil, err
	}
	measured = res.Trace

	if o.saveFile != "" {
		f, err := os.Create(o.saveFile)
		if err != nil {
			return nil, 0, false, nil, err
		}
		err = measured.WriteText(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, 0, false, nil, err
		}
	}
	if o.sliceSpec != "" {
		measured, srep, err = perturb.Slice(measured, query)
		if err != nil {
			return nil, 0, false, nil, err
		}
	}
	return measured, actualDur, haveActual, srep, nil
}

// analyzePhase runs the selected perturbation analysis through the
// unified Analyze entry point.
func analyzePhase(o options, measured *perturb.Trace, cal perturb.Calibration, loop *perturb.Loop, cfg perturb.MachineConfig) (*perturb.Approximation, error) {
	defer obs.StartSpan("pipeline.analyze").End()

	opts := perturb.AnalyzeOptions{Repair: o.repair}
	switch strings.ToLower(o.analysis) {
	case "time":
		opts.Mode = perturb.TimeBased
	case "event":
		opts.Mode = perturb.EventBased
	case "liberal":
		opts.Mode = perturb.Liberal
		opts.Liberal = perturb.LiberalOptions{
			Procs: cfg.Procs, Distance: loop.Distance, Schedule: cfg.Schedule,
		}
	default:
		return nil, fmt.Errorf("unknown analysis %q", o.analysis)
	}
	return perturb.Analyze(measured, cal, opts)
}

// remoteEndpoints splits a -remote value into its base URLs, dropping
// empty elements so a trailing comma is harmless.
func remoteEndpoints(remote string) []string {
	var eps []string
	for _, ep := range strings.Split(remote, ",") {
		if ep = strings.TrimSpace(ep); ep != "" {
			eps = append(eps, ep)
		}
	}
	return eps
}

// remotePhase ships the measured trace to a perturbd service and renders
// the summary from the service's response. A single endpoint uses the
// retrying client (shed requests retried with capped backoff, honoring
// Retry-After hints); multiple endpoints form a consistent-hashing fleet
// with failover and, under -hedge, hedged requests.
func remotePhase(w io.Writer, o options, loop *perturb.Loop, measured *perturb.Trace, cal perturb.Calibration, actualDur perturb.Time, haveActual bool) error {
	defer obs.StartSpan("pipeline.remote").End()

	req := server.Request{Repair: o.repair, Cal: &cal}
	if strings.ToLower(o.analysis) == "time" {
		req.Mode = perturb.TimeBased
	}
	var (
		resp *server.Response
		err  error
	)
	if eps := remoteEndpoints(o.remote); len(eps) > 1 {
		var f *server.Fleet
		f, err = server.NewFleet(server.FleetConfig{Endpoints: eps, Hedge: o.hedge, HedgeAfter: o.hedgeAfter})
		if err != nil {
			return err
		}
		resp, err = f.Analyze(context.Background(), measured, req)
	} else {
		c := &server.Client{BaseURL: o.remote}
		resp, err = c.Analyze(context.Background(), measured, req)
	}
	if err != nil {
		return err
	}

	mdur := time.Duration(measured.End()) * time.Nanosecond
	adur := time.Duration(resp.Duration) * time.Nanosecond
	if haveActual {
		act := time.Duration(actualDur) * time.Nanosecond
		fmt.Fprintf(w, "LL%d (%s) via %s: actual %v  measured %v (%.2fx)  approximated %v (%.3fx of actual)\n",
			o.loop, loop.Name, o.remote, act, mdur,
			float64(measured.End())/float64(actualDur),
			adur, float64(resp.Duration)/float64(actualDur))
	} else {
		fmt.Fprintf(w, "LL%d (%s) via %s: measured %v  approximated %v (%.3fx of measured)\n",
			o.loop, loop.Name, o.remote, mdur, adur, float64(resp.Duration)/float64(measured.End()))
	}
	if o.quiet {
		return nil
	}
	fmt.Fprintf(w, "events: %d   waits kept %d, removed %d, introduced %d\n",
		measured.Len(), resp.WaitsKept, resp.WaitsRemoved, resp.WaitsIntroduced)
	if resp.Repair != nil {
		fmt.Fprintf(w, "repair: %s\n", resp.Repair.Summary)
		if len(resp.Confidence) > 0 {
			worst := resp.Confidence[0]
			for _, c := range resp.Confidence[1:] {
				if c.Score < worst.Score {
					worst = c
				}
			}
			fmt.Fprintf(w, "confidence: worst proc %d at %.3f\n", worst.Proc, worst.Score)
		}
	}
	fmt.Fprintf(w, "approximation sha256: %s\n", resp.TraceSHA256)
	if resp.InputSHA256 != "" {
		cached := resp.Cached != nil && *resp.Cached
		fmt.Fprintf(w, "input sha256: %s   served from cache: %v\n", resp.InputSHA256, cached)
	}
	return nil
}

// metricsPhase derives every view the report will render: waiting
// statistics, critical path, statement profile and timeline lanes.
func metricsPhase(o options, cal perturb.Calibration, approx *perturb.Approximation) (derived, error) {
	defer obs.StartSpan("pipeline.metrics").End()

	var d derived
	if o.quiet && o.svgFile == "" {
		return d, nil
	}
	var err error
	if o.waiting && !o.quiet {
		if d.ws, err = perturb.Waiting(approx.Trace, cal); err != nil {
			return d, err
		}
		d.pct = perturb.WaitingPercent(d.ws, approx.Duration)
	}
	if o.critpath && !o.quiet {
		if d.path, err = perturb.AnalyzeCriticalPath(approx.Trace); err != nil {
			return d, err
		}
	}
	if o.profile && !o.quiet {
		if d.prof, err = perturb.StatementProfile(approx.Trace); err != nil {
			return d, err
		}
	}
	if (o.timeline && !o.quiet) || o.svgFile != "" {
		if d.lanes, err = timelineLanes(cal, approx); err != nil {
			return d, err
		}
	}
	return d, nil
}

// reportPhase renders the summary line, the optional detail sections and
// the SVG export from the precomputed metric views.
func reportPhase(w io.Writer, o options, loop *perturb.Loop, measured *perturb.Trace, approx *perturb.Approximation, d derived, actualDur perturb.Time, haveActual bool) error {
	defer obs.StartSpan("pipeline.report").End()

	mdur := time.Duration(measured.End()) * time.Nanosecond
	adur := time.Duration(approx.Duration) * time.Nanosecond
	if haveActual {
		act := time.Duration(actualDur) * time.Nanosecond
		fmt.Fprintf(w, "LL%d (%s): actual %v  measured %v (%.2fx)  approximated %v (%.3fx of actual)\n",
			o.loop, loop.Name, act, mdur,
			float64(measured.End())/float64(actualDur),
			adur, float64(approx.Duration)/float64(actualDur))
	} else {
		fmt.Fprintf(w, "LL%d (%s): measured %v  approximated %v (%.3fx of measured)\n",
			o.loop, loop.Name, mdur, adur, float64(approx.Duration)/float64(measured.End()))
	}
	if o.svgFile != "" {
		if err := writeSVG(o, d.lanes, approx); err != nil {
			return err
		}
	}
	if o.quiet {
		return nil
	}
	fmt.Fprintf(w, "events: %d   waits kept %d, removed %d, introduced %d\n",
		measured.Len(), approx.WaitsKept, approx.WaitsRemoved, approx.WaitsIntroduced)

	if approx.Repair != nil {
		fmt.Fprintf(w, "repair: %s\n", approx.Repair.Summary())
		if len(approx.Confidence) > 0 {
			worst := approx.Confidence[0]
			for _, c := range approx.Confidence[1:] {
				if c.Score < worst.Score {
					worst = c
				}
			}
			fmt.Fprintf(w, "confidence: worst proc %d at %.3f\n", worst.Proc, worst.Score)
		}
	}

	if o.waiting {
		fmt.Fprintln(w, "\nper-processor waiting (approximated execution):")
		for p, pw := range d.ws {
			fmt.Fprintf(w, "  proc %d: await %8v  barrier %8v  (%.2f%% of total)\n",
				p, time.Duration(pw.Await), time.Duration(pw.Barrier), d.pct[p])
		}
	}

	if o.critpath {
		fmt.Fprintf(w, "\n%s\n", d.path)
		fmt.Fprintf(w, "  per-processor shares:")
		for pr, dur := range d.path.ProcTime {
			if dur > 0 {
				fmt.Fprintf(w, "  p%d=%v", pr, time.Duration(dur))
			}
		}
		fmt.Fprintln(w)
	}

	if o.profile {
		fmt.Fprintln(w, "\nper-statement profile (approximated execution):")
		shown := 0
		for _, p := range d.prof {
			if p.Stmt < 0 {
				continue // runtime markers
			}
			label := ""
			if s, ok := loop.StmtByID(p.Stmt); ok {
				label = s.Label
			}
			fmt.Fprintf(w, "  s%-4d %-40s count %6d  total %10v  mean %8v\n",
				p.Stmt, label, p.Count, time.Duration(p.Total), time.Duration(p.Mean()))
			shown++
			if shown >= 12 {
				break
			}
		}
	}

	if o.timeline {
		fmt.Fprintln(w)
		if err := textplot.Gantt(w, "approximated timeline", d.lanes, 0, approx.Duration, 96); err != nil {
			return err
		}
	}
	return nil
}

// timelineLanes converts the approximation's busy/waiting intervals into
// plot lanes.
func timelineLanes(cal perturb.Calibration, approx *perturb.Approximation) ([]textplot.Lane, error) {
	tl, err := perturb.Timeline(approx.Trace, cal)
	if err != nil {
		return nil, err
	}
	lanes := make([]textplot.Lane, len(tl))
	for p, ivs := range tl {
		lanes[p].Label = fmt.Sprintf("proc %d", p)
		for _, iv := range ivs {
			lanes[p].Spans = append(lanes[p].Spans,
				textplot.Span{Start: iv.Start, End: iv.End, Waiting: iv.Waiting})
		}
	}
	return lanes, nil
}

// writeSVG renders the approximated timeline to the -svg file.
func writeSVG(o options, lanes []textplot.Lane, approx *perturb.Approximation) error {
	f, err := os.Create(o.svgFile)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("LL%d approximated timeline", o.loop)
	err = textplot.GanttSVG(f, title, lanes, 0, approx.Duration, 960)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
