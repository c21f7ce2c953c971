package server

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"perturb/internal/cache"
	"perturb/internal/obs"
	"perturb/internal/trace"
)

// Fleet telemetry, alongside the service's own counters on the obs
// debug surface.
var (
	cFleetFailovers    = obs.NewCounter("fleet.failovers")
	cFleetHedges       = obs.NewCounter("fleet.hedges")
	cFleetHedgeWins    = obs.NewCounter("fleet.hedge_wins")
	cFleetBreakerSkips = obs.NewCounter("fleet.breaker_skips")
)

// Fleet fans analysis requests out over several perturbd endpoints.
// Routing is consistent hashing on the trace's content address: the same
// trace always lands on the same endpoint (so each endpoint's result
// cache concentrates its own shard of the key space), and adding or
// removing an endpoint only remaps the keys adjacent to it on the ring.
//
// Each endpoint has one failure memory, its circuit breaker. A transport
// error, a 503 or a 504 puts the endpoint in a cooldown during which
// routing prefers the next endpoint on the ring, so a killed or draining
// box sheds its keys to its ring successor without losing requests; a
// success ends the cooldown early. Consecutive failures open the
// breaker, and the fleet stops dialing the endpoint until a half-open
// probe succeeds. When every breaker refuses the fleet tries all
// endpoints anyway — total blackout beats refusing work.
//
// A request makes up to 3 rounds over its preference list, failing over
// within a round. Between rounds it backs off exponentially from
// BaseDelay with jitter, capped at 5s, and never for less than the
// longest Retry-After the round's answers asked for.
//
// With Hedge enabled, a request that has not answered within the
// endpoint's recent p90 latency is mirrored to the next-choice replica;
// the first answer wins and the loser's request context is cancelled.
// The hedge always targets a different endpoint, so one box never
// analyzes the same request twice (and the target box's own singleflight
// coalesces any residual overlap).
type FleetConfig struct {
	// Endpoints are the perturbd base URLs, e.g. "http://a:7077".
	Endpoints []string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Hedge enables hedged requests.
	Hedge bool
	// HedgeAfter fixes the hedge delay; 0 derives it per endpoint from
	// the p90 of its recent latencies (50ms before enough samples).
	HedgeAfter time.Duration
	// Cooldown is how long a failed endpoint is deprioritized, unless a
	// success ends it sooner. Default 3s.
	Cooldown time.Duration
	// BaseDelay seeds the inter-round backoff. Default 200ms.
	BaseDelay time.Duration
	// BreakerThreshold is the consecutive-failure count that opens an
	// endpoint's circuit breaker. Default 5.
	BreakerThreshold int
	// BreakerOpenFor is how long an opened breaker refuses traffic before
	// half-opening a probe. Default: Cooldown.
	BreakerOpenFor time.Duration
}

// fleetRounds caps a fleet request's passes over its preference list.
const fleetRounds = 3

// Fleet is created by NewFleet and is safe for concurrent use. A Client
// is a Fleet of one endpoint, built per call.
type Fleet struct {
	cfg       FleetConfig
	maxDelay  time.Duration // backoff cap; 0 means 5s
	endpoints []*endpoint
	ring      []ringSlot // sorted by hash
}

// endpoint is one perturbd instance plus its health and latency state.
type endpoint struct {
	base  string
	httpc *http.Client
	// breaker is the endpoint's failure memory: it stops dialing after
	// consecutive failures, and its latest failure starts the cooldown.
	breaker  *Breaker
	cooldown time.Duration

	// Recent request latencies, a fixed ring buffer for the hedge
	// percentile.
	latMu sync.Mutex
	lats  [64]time.Duration
	latN  int // total recorded (ring index = latN % len)
}

type ringSlot struct {
	hash uint64
	ep   *endpoint
}

// vnodes is the number of ring positions per endpoint; enough that three
// endpoints split the key space within a few percent of evenly.
const vnodes = 64

// NewFleet builds a fleet over the given endpoints. A single endpoint is
// valid: the fleet degrades to a plain retrying client with health
// bookkeeping.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if len(cfg.Endpoints) == 0 {
		return nil, fmt.Errorf("fleet: no endpoints")
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 3 * time.Second
	}
	if cfg.BreakerOpenFor <= 0 {
		cfg.BreakerOpenFor = cfg.Cooldown
	}
	f := &Fleet{cfg: cfg}
	seen := map[string]bool{}
	for _, base := range cfg.Endpoints {
		if base == "" || seen[base] {
			return nil, fmt.Errorf("fleet: empty or duplicate endpoint %q", base)
		}
		seen[base] = true
		ep := newEndpoint(base, cfg.HTTPClient, NewBreaker(cfg.BreakerThreshold, cfg.BreakerOpenFor), cfg.Cooldown)
		f.endpoints = append(f.endpoints, ep)
		for v := 0; v < vnodes; v++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s#%d", base, v)
			f.ring = append(f.ring, ringSlot{hash: h.Sum64(), ep: ep})
		}
	}
	sort.Slice(f.ring, func(i, j int) bool { return f.ring[i].hash < f.ring[j].hash })
	return f, nil
}

func newEndpoint(base string, httpc *http.Client, b *Breaker, cooldown time.Duration) *endpoint {
	if httpc == nil {
		httpc = http.DefaultClient
	}
	return &endpoint{
		base:     base,
		httpc:    httpc,
		breaker:  b,
		cooldown: cooldown,
	}
}

// route returns every endpoint ordered by ring preference for the given
// trace content address: the owner first, then successors clockwise.
func (f *Fleet) route(traceSHA string) []*endpoint {
	// The content address is hex; fold its bytes to the ring's hash space.
	h := fnv.New64a()
	h.Write([]byte(traceSHA))
	key := h.Sum64()
	i := sort.Search(len(f.ring), func(i int) bool { return f.ring[i].hash >= key })
	prefs := make([]*endpoint, 0, len(f.endpoints))
	seen := make(map[*endpoint]bool, len(f.endpoints))
	for n := 0; n < len(f.ring) && len(prefs) < len(f.endpoints); n++ {
		ep := f.ring[(i+n)%len(f.ring)].ep
		if !seen[ep] {
			seen[ep] = true
			prefs = append(prefs, ep)
		}
	}
	return prefs
}

// Analyze routes t to its ring owner, failing over to successor replicas
// on transport errors and shed responses, optionally hedging slow
// requests to the next-choice replica. The response is exactly what a
// single Client.Analyze against the chosen endpoint would return.
func (f *Fleet) Analyze(ctx context.Context, t *trace.Trace, req Request) (*Response, error) {
	traceSHA, err := cache.TraceSHA256(t)
	if err != nil {
		return nil, err
	}
	var body bytes.Buffer
	if err := t.WriteBinary(&body); err != nil {
		return nil, fmt.Errorf("encoding trace: %w", err)
	}
	return f.analyze(ctx, f.route(traceSHA), fleetRounds, req, body.Bytes())
}

// analyze is the one retry loop, under Fleet.Analyze and every Client
// call. It makes up to rounds passes over prefs: within a round it tries
// healthy endpoints before cooling ones, skips those whose breakers
// refuse, fails over on anything retryable and hedges when enabled;
// between rounds it backs off. A lone endpoint whose breaker refuses
// burns the round with ErrBreakerOpen.
func (f *Fleet) analyze(ctx context.Context, prefs []*endpoint, rounds int, req Request, body []byte) (*Response, error) {
	query, err := analyzeQuery(req)
	if err != nil {
		return nil, err
	}
	up := upload{body: body, query: query, sha: bodySHA(body), contentType: traceContentType(body)}
	// One trace id covers every attempt of the call, each with a distinct
	// attempt tag, so the endpoints' request logs reconstruct the fan-out.
	if req.TraceID == "" {
		req.TraceID = NewTraceID()
	}

	var (
		lastErr error
		wait    time.Duration // the round's longest Retry-After
		tries   int           // wire attempts so far
	)
	for round := 0; round < rounds; round++ {
		if round > 0 {
			select {
			case <-time.After(f.backoff(round-1, wait)):
			case <-ctx.Done():
				return nil, fmt.Errorf("perturbd: %w (last error: %v)", ctx.Err(), lastErr)
			}
			wait = 0
		}
		now := time.Now()
		var ordered, willing []*endpoint
		for _, cooling := range [2]bool{false, true} {
			for _, ep := range prefs {
				if ep.coolingDown(now) == cooling {
					ordered = append(ordered, ep)
					if ep.breaker.Willing(now) {
						willing = append(willing, ep)
					}
				}
			}
		}
		blackout := len(willing) == 0 && len(ordered) > 1
		if len(willing) == 0 {
			// Successes are the only thing that closes breakers, so a
			// blackout tries everyone rather than refusing all work. A
			// lone endpoint is left to Allow, which refuses it.
			willing = ordered
		} else {
			cFleetBreakerSkips.Add(int64(len(ordered) - len(willing)))
		}
		for i, ep := range willing {
			if !blackout && !ep.breaker.Allow(now) {
				// Open, or a concurrent request took the half-open probe.
				lastErr = fmt.Errorf("perturbd: %w", ErrBreakerOpen)
				continue
			}
			var next *endpoint
			if f.cfg.Hedge && i+1 < len(willing) {
				next = willing[i+1]
			}
			req.Attempt = "try" + strconv.Itoa(tries)
			tries++
			resp, retryAfter, err := f.attempt(ctx, ep, next, req, up)
			if err == nil {
				return resp, nil
			}
			lastErr, wait = err, max(wait, retryAfter)
			if ctx.Err() != nil {
				return nil, fmt.Errorf("perturbd: %w (last error: %v)", ctx.Err(), lastErr)
			}
			if !clientRetryable(err) {
				return nil, err
			}
			if i+1 < len(willing) {
				cFleetFailovers.Add(1)
			}
		}
	}
	return nil, fmt.Errorf("perturbd: giving up after %d attempts: %w", tries, lastErr)
}

// backoff is the pause after round k (from 0): BaseDelay doubled k
// times, capped at maxDelay, jittered down by up to half, and never
// shorter than wait. The cap is checked before shifting, so a long run of
// rounds cannot overflow.
func (f *Fleet) backoff(k int, wait time.Duration) time.Duration {
	base, ceiling := f.cfg.BaseDelay, f.maxDelay
	if base <= 0 {
		base = 200 * time.Millisecond
	}
	if ceiling <= 0 {
		ceiling = 5 * time.Second
	}
	d := ceiling
	if base <= ceiling>>k {
		d = base << k
	}
	// Jitter spreads synchronized retries across the window.
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	return max(d, wait)
}

// attempt runs one request against ep, hedging to next (when non-nil)
// after the hedge delay. The first answer wins; the loser's context is
// cancelled. The duration is the longest Retry-After either answer
// asked for.
func (f *Fleet) attempt(ctx context.Context, ep, next *endpoint, req Request, up upload) (*Response, time.Duration, error) {
	if next == nil {
		return ep.post(ctx, req, up)
	}

	hctx, cancelHedge := context.WithCancel(ctx)
	defer cancelHedge()
	type result struct {
		resp *Response
		wait time.Duration
		err  error
		ep   *endpoint
	}
	results := make(chan result, 2)
	launch := func(target *endpoint, tag string) {
		r := req
		r.Attempt = tag
		go func() {
			resp, wait, err := target.post(hctx, r, up)
			results <- result{resp, wait, err, target}
		}()
	}
	launch(ep, req.Attempt)
	timer := time.NewTimer(f.hedgeDelay(ep))
	defer timer.Stop()

	pending, hedged := 1, false
	var firstErr error
	var wait time.Duration
	for pending > 0 {
		select {
		case r := <-results:
			pending--
			if r.err == nil {
				// First answer wins; cancelHedge (deferred) aborts the
				// loser's in-flight request.
				if hedged && r.ep == next {
					cFleetHedgeWins.Add(1)
				}
				return r.resp, 0, nil
			}
			wait = max(wait, r.wait)
			if firstErr == nil {
				firstErr = r.err
			}
			if !hedged {
				// The primary failed outright before the hedge fired;
				// surface the error so the fleet fails over instead of
				// hedging blind.
				return nil, wait, r.err
			}
		case <-timer.C:
			if !hedged {
				hedged = true
				pending++
				cFleetHedges.Add(1)
				// The hedge shares the trace id with a distinct tag, so
				// the two endpoints' logs show one request, two attempts.
				launch(next, req.Attempt+"-hedge")
			}
		}
	}
	return nil, wait, firstErr
}

// EndpointHealth is one endpoint's health snapshot as reported by Health.
type EndpointHealth struct {
	Base        string
	CoolingDown bool
	Breaker     BreakerState
}

// Health reports every endpoint's cooldown and breaker state — the
// fleet-side view an operator (or a soak assertion) reads after the
// weather changes.
func (f *Fleet) Health() []EndpointHealth {
	now := time.Now()
	out := make([]EndpointHealth, 0, len(f.endpoints))
	for _, ep := range f.endpoints {
		out = append(out, EndpointHealth{
			Base:        ep.base,
			CoolingDown: ep.coolingDown(now),
			Breaker:     ep.breaker.State(now),
		})
	}
	return out
}

// hedgeDelay is how long to wait for ep before mirroring the request.
func (f *Fleet) hedgeDelay(ep *endpoint) time.Duration {
	if f.cfg.HedgeAfter > 0 {
		return f.cfg.HedgeAfter
	}
	return ep.latencyP90()
}

// coolingDown reports whether routing should try e after its healthy
// peers: its breaker saw a failure, not yet followed by a success, less
// than the cooldown ago.
func (e *endpoint) coolingDown(now time.Time) bool {
	return e.breaker.failedWithin(now, e.cooldown)
}

func (e *endpoint) recordLatency(d time.Duration) {
	e.latMu.Lock()
	e.lats[e.latN%len(e.lats)] = d
	e.latN++
	e.latMu.Unlock()
}

// latencyP90 is the 90th percentile of the recent latency window, with a
// 50ms floor-and-fallback: before eight samples exist the estimate is too
// noisy to hedge on, and hedging below 50ms would mirror nearly every
// request.
func (e *endpoint) latencyP90() time.Duration {
	const fallback = 50 * time.Millisecond
	e.latMu.Lock()
	n := min(e.latN, len(e.lats))
	window := make([]time.Duration, n)
	copy(window, e.lats[:n])
	e.latMu.Unlock()
	if len(window) < 8 {
		return fallback
	}
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	p90 := window[len(window)*9/10]
	if p90 < fallback {
		return fallback
	}
	return p90
}
