package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"perturb"
	"perturb/internal/core"
	"perturb/internal/server"
	"perturb/internal/trace"
)

// stream-live: a seeded simulated program streamed to perturbd's
// /v1/analyze/stream at a fixed rate, one stream at a time. The engine
// runs incrementally here (one Feed per 4096-event read, one NDJSON line
// per sealed window) on real waits, barriers and locks, so a change that
// speeds batch analysis but delays window sealing shows up as lag.

const (
	// streamRate is the generator's fixed offered load in events/s,
	// about 30% of what the endpoint sustains unpaced on the reference
	// box, so the lag measures the program rather than a backlog.
	streamRate = 300000
	// streamChunk events go out per write; each chunk is due at
	// t0 + (first event index)/streamRate.
	streamChunk = 512
	// windowsPerStream sizes the tumbling window.
	windowsPerStream = 400
	// feedBatch matches the events perturbd's stream handler reads per
	// Feed, so the local check feeds the engine the same way.
	feedBatch = 4096
)

// streamProgram builds the seeded program: an LL3-shaped and an
// LL17-shaped DOACROSS phase and a DOALL phase with a lock section,
// about 0.9 to 1 million events under full instrumentation.
func streamProgram(seed uint64) *perturb.Program {
	rng := rand.New(rand.NewPCG(seed, 5))
	cost := func(ns int) perturb.Time { return perturb.Time(ns * (90 + rng.IntN(21)) / 100) }
	iters := func(n int) int { return n * (98 + rng.IntN(5)) / 100 }

	ll3 := perturb.NewLoop("LL3-shaped inner product", perturb.DOACROSS, iters(20000))
	ll3.Head("strip setup", cost(3000))
	for i := 0; i < 12; i++ {
		ll3.Compute("strip partial product", cost(658))
	}
	ll3.CriticalBegin(0).Compute("q += partial", cost(3230)).CriticalEnd(0).Tail("store q", cost(2000))

	ll17 := perturb.NewLoop("LL17-shaped conditional recurrence", perturb.DOACROSS, iters(36000))
	ll17.Head("branch tables", cost(4000)).
		ComputeJitter("conditional eval", cost(5305), 3000).
		ComputeJitter("xnz chain", cost(5305), 3000).
		CriticalBegin(0)
	for i := 0; i < 4; i++ {
		ll17.ComputeJitter("recurrence step", cost(132), 300)
	}
	ll17.CriticalEnd(0).Tail("tail reduction", cost(4000))

	doall := perturb.NewLoop("DOALL with lock section", perturb.DOALL, iters(64000))
	doall.ComputeJitter("partial result", cost(6000), 4000).
		LockStmt(0).Compute("fold into accumulator", cost(2000)).UnlockStmt(0)

	return perturb.NewProgram("stream-live", ll3.Loop(), ll17.Loop(), doall.Loop())
}

// streamInput is the generated stream: the events, the encoded body and
// where each event's record starts in it.
type streamInput struct {
	tr        *perturb.Trace
	times     []perturb.Time // event times, ascending
	body      []byte         // binary stream encoding (unknown-length header)
	headerLen int
	recLen    int
	window    perturb.Time
}

func newStreamInput(seed uint64) (*streamInput, error) {
	run, err := perturb.SimulateProgram(streamProgram(seed),
		perturb.FullInstrumentation(perturb.PaperOverheads(), true), perturb.Alliant())
	if err != nil {
		return nil, err
	}
	in := &streamInput{tr: run.Trace}
	var buf bytes.Buffer
	w, err := trace.NewBinaryWriter(&buf, in.tr.Procs)
	if err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	in.headerLen = buf.Len()
	if err := w.Write(in.tr.Events); err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	in.body = buf.Bytes()
	in.recLen = (len(in.body) - in.headerLen) / in.tr.Len()
	in.times = make([]perturb.Time, in.tr.Len())
	for i, e := range in.tr.Events {
		if i > 0 && e.Time < in.times[i-1] {
			return nil, fmt.Errorf("stream trace not time-sorted at event %d", i)
		}
		in.times[i] = e.Time
	}
	in.window = (in.tr.End() + windowsPerStream - 1) / windowsPerStream
	return in, nil
}

// chunks is the number of generator writes per stream.
func (in *streamInput) chunks() int { return (len(in.times) + streamChunk - 1) / streamChunk }

// chunkBytes is the slice of the body chunk c carries; the first chunk
// also carries the header.
func (in *streamInput) chunkBytes(c int) []byte {
	lo := in.headerLen + c*streamChunk*in.recLen
	if c == 0 {
		lo = 0
	}
	hi := min(in.headerLen+(c+1)*streamChunk*in.recLen, len(in.body))
	return in.body[lo:hi]
}

// dueOffset is when chunk c is due, relative to the stream's start.
func dueOffset(c int) time.Duration {
	return time.Duration(int64(c) * streamChunk * int64(time.Second) / streamRate)
}

// lastEventIn returns the index of the last event (in upload order) whose
// time lies in [start, end), or -1 when the window holds none.
func lastEventIn(times []perturb.Time, start, end perturb.Time) int {
	i := sort.Search(len(times), func(i int) bool { return times[i] >= end }) - 1
	if i < 0 || times[i] < start {
		return -1
	}
	return i
}

// streamLine mirrors the NDJSON line shape of /v1/analyze/stream, so the
// expected lines can be encoded and compared byte for byte.
type streamLine struct {
	Window  *core.WindowResult `json:"window,omitempty"`
	Final   bool               `json:"final,omitempty"`
	Windows int                `json:"windows,omitempty"`
	Result  *server.Response   `json:"result,omitempty"`
	Error   string             `json:"error,omitempty"`
}

// received is one response line and when it arrived.
type received struct {
	line []byte
	at   time.Time
}

// streamRun is what one stream observed.
type streamRun struct {
	start time.Time
	lines []received
	late  []float64 // per chunk: write start minus due time, ms
	err   error
}

// runStream uploads the input once. paced writes chunk c at its due time;
// unpaced writes as fast as the connection takes it.
func runStream(httpc *http.Client, url string, in *streamInput, paced bool, rec *recorder, op int64) *streamRun {
	sr := &streamRun{}
	root := rec.begin("stream.op", -1, op)
	defer rec.end(root)
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, url, pr)
	if err != nil {
		sr.err = err
		return sr
	}
	req.Header.Set("Content-Type", trace.SniffContentType(in.body))

	sr.start = time.Now()
	var wg sync.WaitGroup
	var genErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for c := 0; c < in.chunks(); c++ {
			due := sr.start.Add(dueOffset(c))
			if paced {
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sr.late = append(sr.late, ms(time.Since(due)))
			}
			sp := rec.begin("gen.write", root, op)
			_, err := pw.Write(in.chunkBytes(c))
			rec.end(sp)
			if err != nil {
				genErr = err
				return
			}
		}
		pw.Close()
	}()

	resp, err := httpc.Do(req)
	if err == nil {
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		br := bufio.NewReaderSize(resp.Body, 64<<10)
		for err == nil {
			line, rerr := br.ReadBytes('\n')
			if len(line) > 0 {
				at := time.Now()
				sr.lines = append(sr.lines, received{line, at})
				sp := rec.begin("client.line", root, op)
				rec.end(sp)
			}
			if rerr == io.EOF {
				break
			}
			err = rerr
		}
		resp.Body.Close()
	}
	if err != nil {
		pr.CloseWithError(err)
	}
	wg.Wait()
	if err == nil {
		err = genErr
	}
	sr.err = err
	return sr
}

// streamExpect holds the reference output: the window lines an
// in-process core.Stream emits over the same events, and the final line
// built from the batch analysis.
type streamExpect struct {
	windows [][]byte
	final   []byte
}

// expectStream computes the reference output. It replays the layer
// calls perturbd makes for a stream (decode, NewStream, one Feed per
// feedBatch events, Close, BuildResponse), each a span when rec is
// non-nil, and times them.
func expectStream(ctx context.Context, in *streamInput, rec *recorder) (*streamExpect, replayTimes, error) {
	rt := newReplayTimes()
	op := replayOp
	root := rec.begin("replay.stream", -1, op)
	defer rec.end(root)
	timed := func(name string, events int, fn func() error) error {
		sp := rec.begin(name, root, op)
		_, err := rt.timed(name, events, fn)
		rec.end(sp)
		return err
	}
	var tr *trace.Trace
	err := timed("trace.decode.binary", len(in.times), func() error {
		r, err := trace.NewReader(bytes.NewReader(in.body))
		if err == nil {
			tr, err = trace.ReadAllContext(ctx, r)
		}
		return err
	})
	if err == nil && tr.Len() != in.tr.Len() {
		err = fmt.Errorf("decoded %d events, sent %d", tr.Len(), in.tr.Len())
	}
	if err != nil {
		return nil, rt, err
	}
	cal := server.DefaultCalibration()
	var sess *core.Stream
	err = timed("core.new_stream", 0, func() (err error) {
		sess, err = core.NewStream(cal, core.StreamOptions{Procs: tr.Procs, Window: in.window})
		return err
	})
	if err != nil {
		return nil, rt, err
	}
	exp := &streamExpect{}
	encode := func(l streamLine) error {
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(l); err != nil {
			return err
		}
		if l.Window != nil {
			exp.windows = append(exp.windows, b.Bytes())
		} else {
			exp.final = b.Bytes()
		}
		return nil
	}
	events := tr.Events
	for lo := 0; lo < len(events); lo += feedBatch {
		batch := events[lo:min(lo+feedBatch, len(events))]
		if err := timed("core.stream_feed", len(batch), func() error { return sess.Feed(ctx, batch) }); err != nil {
			return nil, rt, err
		}
		for _, w := range sess.Windows() {
			if err := encode(streamLine{Window: &w}); err != nil {
				return nil, rt, err
			}
		}
	}
	var approx *core.Approximation
	if err := timed("core.stream_close", 0, func() (err error) { approx, err = sess.Close(ctx); return err }); err != nil {
		return nil, rt, err
	}
	for _, w := range sess.Windows() {
		if err := encode(streamLine{Window: &w}); err != nil {
			return nil, rt, err
		}
	}
	var resp *server.Response
	if err := timed("server.build_response", len(events), func() (err error) {
		resp, err = server.BuildResponse(approx)
		return err
	}); err != nil {
		return nil, rt, err
	}
	if err := encode(streamLine{Final: true, Windows: len(exp.windows), Result: resp}); err != nil {
		return nil, rt, err
	}

	// The final record must also match a batch /v1/analyze of the same
	// events (without its cache fields).
	batchApprox, err := core.AnalyzeContext(ctx, tr, cal, core.Options{})
	if err != nil {
		return nil, rt, err
	}
	batchResp, err := server.BuildResponse(batchApprox)
	if err != nil {
		return nil, rt, err
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(streamLine{Final: true, Windows: len(exp.windows), Result: batchResp}); err != nil {
		return nil, rt, err
	}
	if !bytes.Equal(want.Bytes(), exp.final) {
		return nil, rt, fmt.Errorf("in-process stream's final record differs from the batch response:\n got %s\nwant %s", exp.final, want.Bytes())
	}
	return exp, rt, nil
}

// check compares one stream's lines with the reference.
func (e *streamExpect) check(sr *streamRun) error {
	if sr.err != nil {
		return sr.err
	}
	if len(sr.lines) != len(e.windows)+1 {
		return fmt.Errorf("%d lines, want %d windows and a final record", len(sr.lines), len(e.windows))
	}
	for i, w := range e.windows {
		if !bytes.Equal(sr.lines[i].line, w) {
			return fmt.Errorf("window line %d differs from the in-process stream:\n got %s\nwant %s", i, sr.lines[i].line, w)
		}
	}
	if got := sr.lines[len(e.windows)].line; !bytes.Equal(got, e.final) {
		return fmt.Errorf("final record differs from the in-process stream's and the batch response:\n got %s\nwant %s", got, e.final)
	}
	return nil
}

// lags returns each window line's lag: its arrival minus the due time of
// the chunk that carried the last event of its window.
func (in *streamInput) lags(sr *streamRun) ([]float64, error) {
	var out []float64
	for _, r := range sr.lines {
		var l struct {
			Window *struct {
				Start perturb.Time `json:"start"`
				End   perturb.Time `json:"end"`
			} `json:"window"`
		}
		if err := json.Unmarshal(r.line, &l); err != nil {
			return nil, err
		}
		if l.Window == nil {
			continue
		}
		i := lastEventIn(in.times, l.Window.Start, l.Window.End)
		if i < 0 {
			return nil, fmt.Errorf("window [%d, %d) holds no event", l.Window.Start, l.Window.End)
		}
		due := sr.start.Add(dueOffset(i / streamChunk))
		out = append(out, ms(r.at.Sub(due)))
	}
	return out, nil
}

// streamSetup is the state one set-up builds.
type streamSetup struct {
	in    *streamInput
	d     *perturbd
	httpc *http.Client
	url   string
}

func (s *streamSetup) close() error {
	s.httpc.CloseIdleConnections()
	return s.d.close()
}

func startStream(cfg runConfig) (*streamSetup, error) {
	in, err := newStreamInput(cfg.seed)
	if err != nil {
		return nil, err
	}
	s := &streamSetup{in: in}
	if s.d, err = startPerturbd(cfg.rec); err != nil {
		return nil, err
	}
	s.httpc = &http.Client{Transport: &http.Transport{DisableCompression: true}}
	s.url = "http://" + s.d.addr + "/v1/analyze/stream?window=" + strconv.FormatInt(int64(in.window), 10)
	// Warm-up: one unpaced stream brings the heap to its steady size.
	if sr := runStream(s.httpc, s.url, in, false, nil, -1); sr.err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up stream: %w", sr.err)
	}
	return s, nil
}

func runStreamLive(cfg runConfig) (*result, error) {
	// Like perturbd: observability on, default configuration.
	perturb.EnableObservability(true)
	var s *streamSetup
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
			s = nil
		}
		start := time.Now()
		var err error
		if s, err = startStream(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	in := s.in

	// Timed phase: open loop at streamRate, one stream at a time. A
	// stream starts only if it can finish inside the phase. A traced run
	// alternates traced and untraced streams.
	s.d.resetCounts()
	stats0, _ := s.d.srv.CacheStats()
	streamDur := dueOffset(in.chunks())
	var runs []*streamRun
	var peaks, allocs []float64
	start := time.Now()
	for op := int64(0); op == 0 || time.Since(start)+streamDur <= cfg.seconds; op++ {
		rec := cfg.rec
		if op%2 == 1 {
			rec = nil
		}
		// Between streams perturbd is idle: return the previous stream's
		// heap to the OS, so the peak is this stream's own.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		a0 := totalAlloc()
		sr := runStream(s.httpc, s.url, in, true, rec, op)
		a1 := totalAlloc()
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		runs = append(runs, sr)
		peaks = append(peaks, peak)
		allocs = append(allocs, mb(a1-a0))
	}
	stats1, _ := s.d.srv.CacheStats()
	if err := s.close(); err != nil {
		return nil, err
	}

	// Output checks, which in the traced run also replay and time the
	// layer calls perturbd made.
	exp, rt, err := expectStream(context.Background(), in, cfg.rec)
	if err != nil {
		return nil, fmt.Errorf("reference analysis: %w", err)
	}
	res := &result{}
	var lagUntraced, lagTraced, late, durs []float64
	for op, sr := range runs {
		res.attempted++
		late = append(late, sr.late...)
		if err := exp.check(sr); err != nil {
			res.failed++
			fmt.Printf("stream-live stream %d: %v\n", op, err)
			continue
		}
		lags, err := in.lags(sr)
		if err != nil {
			return nil, err
		}
		if cfg.traced() && op%2 == 0 {
			lagTraced = append(lagTraced, lags...)
		} else {
			lagUntraced = append(lagUntraced, lags...)
			durs = append(durs, sr.lines[len(sr.lines)-1].at.Sub(sr.start).Seconds())
		}
	}

	lateP90, nLate, err := percentile(late, 0.9)
	if err != nil {
		return nil, fmt.Errorf("generator lateness: %w", err)
	}
	// Printed in both runs, so a stalled generator cannot pass as a fast
	// program.
	res.note("gen.late_ms_p90", lateP90, "ms", nLate)
	if !cfg.traced() {
		setup, n := median(setups)
		res.add("setup_s", setup, "s", n)
		p50, n := median(lagUntraced)
		res.add("latency_p50_ms", p50, "ms", n)
		dur, n := median(durs)
		res.add("events_per_s", float64(len(in.times))/dur, "events/s", n)
		peak, n := median(peaks)
		res.add("peak_rss_mb", peak, "MB", n)
		alloc, n := median(allocs)
		res.add("alloc_mb_per_op", alloc, "MB", n)
		p90, n, err := percentile(lagUntraced, 0.9)
		if err != nil {
			return nil, fmt.Errorf("window lag: %w", err)
		}
		res.note("latency_p90_ms", p90, "ms", n)
		return res, nil
	}

	engine := []string{"core.new_stream", "core.stream_feed", "core.stream_close"}
	res.add("trace.decode_us_per_kevent", rt.perKevent("trace.decode.binary"), "us/kevent", rt.calls("trace.decode.binary"))
	res.add("core.analyze_us_per_kevent", rt.perKevent(engine...), "us/kevent", rt.calls(engine...))
	res.add("core.analyze_alloc_b_per_event", rt.allocPerEvent(engine...), "B/event", rt.calls(engine...))
	res.add("server.build_response_us_per_kevent", rt.perKevent("server.build_response"), "us/kevent", rt.calls("server.build_response"))
	// Streams bypass the result cache.
	res.add("cache.hits", float64(stats1.Hits-stats0.Hits), "count", 0)
	res.add("cache.misses", float64(stats1.Misses-stats0.Misses), "count", 0)
	res.add("server.shed", float64(s.d.handler.shed.Load()), "count", 0)
	res.add("server.retries", float64(s.d.handler.retries.Load()), "count", 0)
	res.add("trace_overhead_pct", overheadPct(lagTraced, lagUntraced), "%", len(lagTraced))
	res.note("core.stream_feed_us_per_kevent", rt.perKevent("core.stream_feed"), "us/kevent", rt.calls("core.stream_feed"))
	res.note("core.stream_close_ms", ms(rt.total["core.stream_close"]), "ms", rt.calls("core.stream_close"))
	return res, nil
}
