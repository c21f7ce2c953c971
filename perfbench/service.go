package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"perturb"
	"perturb/internal/cache"
	"perturb/internal/core"
	"perturb/internal/server"
	"perturb/internal/trace"
)

// service-mix: two closed-loop clients post seeded uploads to an
// in-process perturbd in its default configuration. Per-request overhead
// (HTTP, SHA-256 both ways, admission, cache lookup, JSON) is most of a
// request here, and planned repeats never reach the analysis engine.

const (
	// poolVariants is how many simulated variants of each Livermore
	// kernel the clean pool holds; damagedVariants the same for the
	// drop-damaged traces that repair=1 requests upload.
	poolVariants    = 4
	damagedVariants = 2
	dropRate        = 0.02

	repeatShare = 0.30 // requests repeating an earlier request byte for byte
	timeShare   = 0.10 // cold requests with mode=time
	repairShare = 0.10 // cold requests with repair=1 on a damaged trace
	// newBodyShare is the chance a cold request uploads a body not sent
	// before, while unsent bodies remain; otherwise it resends a sent body
	// under a calibration that body was never analyzed with.
	newBodyShare = 0.5
	// A repeat copies one of the repeatWindow requests before it, at
	// least repeatMinLag back, so its original has almost always
	// completed and the repeat is a cache hit.
	repeatWindow = 256
	repeatMinLag = 4

	serviceClients = 2    // client goroutines and connections (nproc on the reference box)
	warmupRequests = 1000 // set-up requests, from a pool of their own
	plannedPerSec  = 4000
	// checkEvery: one cold request in checkEvery, chosen by a seeded
	// hash, is checked against a local analysis of its decoded upload.
	// Checking all of them would take about as long as the timed phase.
	checkEvery = 8
	// replayOp offsets the op ids of post-phase replay spans from the
	// request ids of the timed phase.
	replayOp = int64(1) << 40
)

var codecs = []string{"text", "binary", "columnar"}

// upload is one encoded trace the clients can post.
type upload struct {
	data    []byte
	codec   string
	events  int
	cal     perturb.Calibration // the calibration it was simulated under
	damaged bool
	nextCal int // planning state: calibration variants used so far
}

// planned is one request of the plan. A cold request carries a
// (body, calibration, mode, repair) combination no earlier request did;
// a repeat copies an earlier request exactly.
type planned struct {
	up      *upload
	variant int // calibration variant: 0 is the exact calibration
	mode    core.Mode
	repair  bool
	repeat  int  // index of the request this one repeats, or -1
	first   bool // the first request carrying up's bytes
}

// calibration derives the request's calibration: variant v lowers the
// compute-probe cost estimate by v ns, which changes the cache key and
// the analysis output without making the calibration implausible.
func (p planned) calibration() perturb.Calibration {
	c := p.up.cal
	c.Overheads.Event -= perturb.Time(p.variant)
	return c
}

func (p planned) request(i int) server.Request {
	cal := p.calibration()
	return server.Request{Mode: p.mode, Repair: p.repair, Cal: &cal, TraceID: "op-" + strconv.Itoa(i)}
}

func (p planned) layerMode() string {
	switch {
	case p.repair:
		return "repair"
	case p.mode == core.ModeTimeBased:
		return "time"
	}
	return "event"
}

// servicePool simulates every Livermore kernel under seeded machine
// configurations and probe costs and encodes each trace in one codec.
// stream distinguishes the timed pool from the warm-up pool.
func servicePool(seed, stream uint64) ([]*upload, error) {
	rng := rand.New(rand.NewPCG(seed, stream))
	var pool []*upload
	add := func(k, procs int, damaged bool) error {
		loop, err := perturb.LivermoreLoop(k)
		if err != nil {
			return err
		}
		cfg := perturb.Alliant()
		cfg.Procs = procs
		cfg.Schedule = []perturb.Schedule{perturb.Interleaved, perturb.Blocked, perturb.Dynamic}[rng.IntN(3)]
		ovh := perturb.UniformOverheads(perturb.Time(1000 + rng.IntN(7001)))
		run, err := perturb.Simulate(loop, perturb.FullInstrumentation(ovh, true), cfg)
		if err != nil {
			return err
		}
		tr := run.Trace
		if damaged {
			tr, _ = perturb.InjectFaults(tr, perturb.DropFaults(dropRate, rng.Uint64()))
		}
		up := &upload{codec: codecs[len(pool)%len(codecs)], events: tr.Len(),
			cal: perturb.ExactCalibration(ovh, cfg), damaged: damaged}
		var buf bytes.Buffer
		switch up.codec {
		case "text":
			err = tr.WriteText(&buf)
		case "binary":
			err = tr.WriteBinary(&buf)
		default:
			err = tr.WriteColumnar(&buf)
		}
		up.data = buf.Bytes()
		pool = append(pool, up)
		return err
	}
	procs := []int{4, 8, 8, 12}
	for v := 0; v < poolVariants; v++ {
		for k := 1; k <= 24; k++ {
			if err := add(k, procs[v], false); err != nil {
				return nil, err
			}
		}
	}
	for v := 0; v < damagedVariants; v++ {
		for k := 1; k <= 24; k++ {
			if err := add(k, 8, true); err != nil {
				return nil, err
			}
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool, nil
}

// planRequests lays out n requests over the pool.
func planRequests(seed, stream uint64, pool []*upload, n int) []planned {
	rng := rand.New(rand.NewPCG(seed, stream))
	var unsent, sent [2][]*upload // [clean, damaged]
	for _, up := range pool {
		d := 0
		if up.damaged {
			d = 1
		}
		unsent[d] = append(unsent[d], up)
	}
	plan := make([]planned, 0, n)
	for i := 0; i < n; i++ {
		if i >= repeatMinLag && rng.Float64() < repeatShare {
			lo := max(0, i-repeatWindow)
			j := lo + rng.IntN(i-repeatMinLag-lo+1)
			p := plan[j]
			if p.repeat >= 0 {
				j = p.repeat
			}
			p.repeat, p.first = j, false
			plan = append(plan, p)
			continue
		}
		p := planned{mode: core.ModeEventBased, repeat: -1}
		switch u := rng.Float64(); {
		case u < repairShare:
			p.repair = true
		case u < repairShare+timeShare:
			p.mode = core.ModeTimeBased
		}
		d := 0
		if p.repair {
			d = 1
		}
		if len(unsent[d]) > 0 && (len(sent[d]) == 0 || rng.Float64() < newBodyShare) {
			p.up, unsent[d] = unsent[d][0], unsent[d][1:]
			sent[d] = append(sent[d], p.up)
			p.first = true
		} else {
			p.up = sent[d][rng.IntN(len(sent[d]))]
		}
		p.variant = p.up.nextCal
		p.up.nextCal++
		plan = append(plan, p)
	}
	return plan
}

// outcome is what a client observed for one planned request.
type outcome struct {
	resp *server.Response
	err  error
	rtt  time.Duration
	done bool
}

// serviceSetup is the state one set-up builds.
type serviceSetup struct {
	plan   []planned
	d      *perturbd
	client *server.Client
	httpc  *http.Client
}

func (s *serviceSetup) close() error {
	s.httpc.CloseIdleConnections()
	return s.d.close()
}

// startService builds the pools and plan from the seed, starts perturbd
// on loopback and runs the warm-up.
func startService(cfg runConfig) (*serviceSetup, error) {
	pool, err := servicePool(cfg.seed, 1)
	if err != nil {
		return nil, err
	}
	warmPool, err := servicePool(cfg.seed, 2)
	if err != nil {
		return nil, err
	}
	s := &serviceSetup{plan: planRequests(cfg.seed, 3, pool, plannedPerSec*int(cfg.seconds/time.Second))}
	if s.d, err = startPerturbd(cfg.rec); err != nil {
		return nil, err
	}
	s.httpc = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: serviceClients,
		MaxConnsPerHost:     serviceClients,
		DisableCompression:  true,
	}}
	s.client = &server.Client{BaseURL: "http://" + s.d.addr, HTTPClient: s.httpc}

	warm := planRequests(cfg.seed, 4, warmPool, warmupRequests)
	outs := drive(s.client, warm, nil, time.Time{})
	for i, o := range outs {
		if o.err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up request %d: %w", i, o.err)
		}
	}
	return s, nil
}

// drive runs the closed loop: serviceClients goroutines take the next
// planned request as soon as their previous one completes, until the
// plan or the deadline (if set) runs out. rec, when non-nil, traces the
// even-numbered requests.
func drive(client *server.Client, plan []planned, rec *recorder, deadline time.Time) []outcome {
	outs := make([]outcome, len(plan))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(plan) || (!deadline.IsZero() && !time.Now().Before(deadline)) {
					return
				}
				p := plan[i]
				r := rec
				if i%2 == 1 {
					r = nil
				}
				sp := r.begin("client.roundtrip", -1, int64(i))
				t0 := time.Now()
				resp, err := client.AnalyzeReader(context.Background(), bytes.NewReader(p.up.data), p.request(i))
				outs[i] = outcome{resp: resp, err: err, rtt: time.Since(t0), done: true}
				r.end(sp)
			}
		}()
	}
	wg.Wait()
	return outs
}

func runServiceMix(cfg runConfig) (*result, error) {
	// Like perturbd: observability on, the default 256 MiB result cache,
	// no memory budget.
	perturb.EnableObservability(true)
	var s *serviceSetup
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
		if s, err = startService(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// Timed phase. One op of peak RSS is one second.
	s.d.resetCounts() // the warm-up's retries and sheds do not count
	stats0, _ := s.d.srv.CacheStats()
	stop := make(chan struct{})
	peaksCh := make(chan []float64, 1)
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	go func() {
		var peaks []float64
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				peaksCh <- peaks
				return
			case <-tick.C:
				if p, err := peakRSSMB(); err == nil && resetPeakRSS() == nil {
					peaks = append(peaks, p)
				}
			}
		}
	}()
	a0 := totalAlloc()
	start := time.Now()
	outs := drive(s.client, s.plan, cfg.rec, start.Add(cfg.seconds))
	elapsed := time.Since(start)
	a1 := totalAlloc()
	close(stop)
	peaks := <-peaksCh
	stats1, _ := s.d.srv.CacheStats()
	if err := s.close(); err != nil {
		return nil, err
	}

	// Outcomes, by request class.
	res := &result{}
	var cold, repeat, coldTraced []float64
	completed, events := 0, 0
	for i, o := range outs {
		if !o.done {
			continue
		}
		res.attempted++
		if o.err != nil {
			res.failed++
			fmt.Printf("service-mix request %d: %v\n", i, o.err)
			continue
		}
		completed++
		events += s.plan[i].up.events
		switch {
		case s.plan[i].repeat >= 0:
			if i%2 == 1 || !cfg.traced() {
				repeat = append(repeat, ms(o.rtt))
			}
		case cfg.traced() && i%2 == 0:
			coldTraced = append(coldTraced, ms(o.rtt))
		default:
			cold = append(cold, ms(o.rtt))
		}
	}

	// Output checks: every repeat against its original, a seeded sample
	// of cold requests against a local analysis of the decoded upload.
	// In the traced run this replay also times the layers perturbd ran.
	replay := checkService(cfg, s.plan, outs, res)

	if !cfg.traced() {
		setup, n := median(setups)
		res.add("setup_s", setup, "s", n)
		p50, n := median(cold)
		res.add("latency_p50_ms", p50, "ms", n)
		res.add("events_per_s", float64(events)/elapsed.Seconds(), "events/s", completed)
		peak, n := median(peaks)
		res.add("peak_rss_mb", peak, "MB", n)
		if completed > 0 {
			res.add("alloc_mb_per_op", mb(a1-a0)/float64(completed), "MB", completed)
		}
		p90, n, err := percentile(cold, 0.9)
		if err != nil {
			return nil, fmt.Errorf("cold latency: %w", err)
		}
		res.note("latency_p90_ms", p90, "ms", n)
		c50, n := median(repeat)
		res.note("cached_p50_ms", c50, "ms", n)
		res.note("requests_per_s", float64(completed)/elapsed.Seconds(), "req/s", completed)
		return res, nil
	}

	// Per-layer metrics of the traced run: the replayed layers per
	// thousand events, over all codecs and modes, and perturbd's counts.
	decodes := []string{"trace.decode.text", "trace.decode.binary", "trace.decode.columnar"}
	analyses := []string{"core.analyze.event", "core.analyze.time", "core.analyze.repair"}
	res.add("trace.decode_us_per_kevent", replay.perKevent(decodes...), "us/kevent", replay.calls(decodes...))
	res.add("core.analyze_us_per_kevent", replay.perKevent(analyses...), "us/kevent", replay.calls(analyses...))
	res.add("core.analyze_alloc_b_per_event", replay.allocPerEvent(analyses...), "B/event", replay.calls(analyses...))
	res.add("server.build_response_us_per_kevent", replay.perKevent("server.build_response"), "us/kevent", replay.calls("server.build_response"))
	d := cache.Stats{
		Hits:      stats1.Hits - stats0.Hits,
		Misses:    stats1.Misses - stats0.Misses,
		Coalesced: stats1.Coalesced - stats0.Coalesced,
	}
	res.add("cache.hits", float64(d.Hits), "count", 0)
	res.add("cache.misses", float64(d.Misses), "count", 0)
	res.add("server.shed", float64(s.d.handler.shed.Load()), "count", 0)
	res.add("server.retries", float64(s.d.handler.retries.Load()), "count", 0)
	res.add("trace_overhead_pct", overheadPct(coldTraced, cold), "%", len(coldTraced))

	// The same layers by codec and mode, the cache key, and the handler
	// and client split of each round trip, as notes.
	for _, name := range append(decodes, analyses...) {
		k := strings.LastIndex(name, ".") // trace.decode.text: trace.decode_text_us_per_kevent
		res.note(name[:k]+"_"+name[k+1:]+"_us_per_kevent", replay.perKevent(name), "us/kevent", replay.calls(name))
	}
	res.note("cache.key_us_per_kevent", replay.perKevent("cache.key"), "us/kevent", replay.calls("cache.key"))
	res.note("cache.hit_ratio", d.HitRatio(), "ratio", 0)
	res.note("cache.coalesced", float64(d.Coalesced), "count", 0)

	handler := map[int64]time.Duration{}
	for _, sp := range cfg.rec.snapshot() {
		if sp.Name == "server.handler" {
			handler[sp.Op] += sp.dur()
		}
	}
	var hCold, hCached, cCold, cCached, unaccounted []float64
	for i, o := range outs {
		h, ok := handler[int64(i)]
		if !o.done || o.err != nil || !ok {
			continue
		}
		if s.plan[i].repeat >= 0 {
			hCached = append(hCached, ms(h))
			cCached = append(cCached, ms(o.rtt-h))
			continue
		}
		hCold = append(hCold, ms(h))
		cCold = append(cCold, ms(o.rtt-h))
		if layers, ok := replay.perOp[int64(i)]; ok {
			unaccounted = append(unaccounted, ms(h-layers))
		}
	}
	note := func(name string, xs []float64) {
		v, n := median(xs)
		res.note(name, v, "ms", n)
	}
	note("server.handler_cold_ms", hCold)
	note("server.handler_cached_ms", hCached)
	note("server.client_cold_ms", cCold)
	note("server.client_cached_ms", cCached)
	note("unaccounted_ms", unaccounted)
	return res, nil
}

// replayTimes aggregates the post-phase replay: per layer span, the total
// time, heap allocation, events covered and call count; per request, the
// time all its replayed layers took.
type replayTimes struct {
	total  map[string]time.Duration
	alloc  map[string]uint64
	events map[string]int
	count  map[string]int
	perOp  map[int64]time.Duration
}

func newReplayTimes() replayTimes {
	return replayTimes{total: map[string]time.Duration{}, alloc: map[string]uint64{},
		events: map[string]int{}, count: map[string]int{}, perOp: map[int64]time.Duration{}}
}

// timed runs one replayed layer call over events and records it under
// name; the returned duration excludes reading the allocation counter.
func (r replayTimes) timed(name string, events int, fn func() error) (time.Duration, error) {
	a0 := totalAlloc()
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	r.alloc[name] += totalAlloc() - a0
	r.total[name] += d
	r.events[name] += events
	r.count[name]++
	return d, err
}

// perKevent is the named layers' time per thousand events, over all
// their calls.
func (r replayTimes) perKevent(names ...string) float64 {
	var total time.Duration
	events := 0
	for _, n := range names {
		total += r.total[n]
		events += r.events[n]
	}
	return usPerKevent(total, events)
}

// allocPerEvent is the named layers' heap allocation per event, in bytes.
func (r replayTimes) allocPerEvent(names ...string) float64 {
	var alloc uint64
	events := 0
	for _, n := range names {
		alloc += r.alloc[n]
		events += r.events[n]
	}
	if events == 0 {
		return 0
	}
	return float64(alloc) / float64(events)
}

// calls is how many times the named layers ran.
func (r replayTimes) calls(names ...string) int {
	n := 0
	for _, name := range names {
		n += r.count[name]
	}
	return n
}

// checkService checks every completed request and, in the traced run,
// times the replay. Failures are counted into res.
func checkService(cfg runConfig, plan []planned, outs []outcome, res *result) replayTimes {
	ctx := context.Background()
	rt := newReplayTimes()
	fail := func(i int, format string, args ...any) {
		res.failed++
		fmt.Printf("service-mix request %d: %s\n", i, fmt.Sprintf(format, args...))
	}
	for i, o := range outs {
		p := plan[i]
		if !o.done || o.err != nil {
			continue
		}
		if p.repeat >= 0 {
			if orig := outs[p.repeat]; orig.resp == nil || !sameResponse(o.resp, orig.resp) {
				fail(i, "repeat of request %d answered differently", p.repeat)
			}
			continue
		}
		if splitmix(cfg.seed^uint64(i))%checkEvery != 0 {
			continue
		}
		op := replayOp + int64(i)
		root := cfg.rec.begin("replay.request", -1, op)
		// timed runs one layer call; inHandler says whether perturbd's
		// handler made that call for this request.
		timed := func(name string, inHandler bool, fn func() error) error {
			sp := cfg.rec.begin(name, root, op)
			d, err := rt.timed(name, p.up.events, fn)
			cfg.rec.end(sp)
			if inHandler {
				rt.perOp[int64(i)] += d
			}
			return err
		}
		var tr *trace.Trace
		err := timed("trace.decode."+p.up.codec, true, func() error {
			r, err := trace.NewReader(bytes.NewReader(p.up.data))
			if err == nil {
				tr, err = trace.ReadAllContext(ctx, r)
			}
			return err
		})
		cal := p.calibration()
		opts := core.Options{Mode: p.mode, Repair: p.repair}
		var sha string
		if err == nil {
			// perturbd hashes the decoded events only for a body it has
			// not seen; otherwise its wire-byte alias supplies the address.
			err = timed("cache.key", p.first, func() (err error) {
				_, sha, err = cache.Key(tr, cal, opts)
				return err
			})
		}
		var approx *core.Approximation
		if err == nil {
			err = timed("core.analyze."+p.layerMode(), true, func() (err error) {
				approx, err = core.AnalyzeContext(ctx, tr, cal, opts)
				return err
			})
		}
		var want *server.Response
		if err == nil {
			err = timed("server.build_response", true, func() (err error) {
				want, err = server.BuildResponse(approx)
				return err
			})
		}
		cfg.rec.end(root)
		if err != nil {
			fail(i, "local analysis: %v", err)
			continue
		}
		want.InputSHA256 = sha
		if !sameResponse(o.resp, want) {
			fail(i, "response differs from local analysis")
		}
	}
	return rt
}

// sameResponse compares two responses, ignoring the per-request cached
// flag.
func sameResponse(a, b *server.Response) bool {
	ca, cb := *a, *b
	ca.Cached, cb.Cached = nil, nil
	ja, err1 := json.Marshal(ca)
	jb, err2 := json.Marshal(cb)
	return err1 == nil && err2 == nil && bytes.Equal(ja, jb)
}

// splitmix is the splitmix64 finalizer: a seeded hash for sampling.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e019
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
