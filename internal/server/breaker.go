package server

import (
	"errors"
	"net/http"
	"sync"
	"time"

	"perturb/internal/obs"
)

// Breaker telemetry: transitions and the number of currently-open
// breakers, on the same obs surface as everything else.
var (
	cBreakerOpens  = obs.NewCounter("breaker.opens")
	cBreakerCloses = obs.NewCounter("breaker.closes")
	cBreakerProbes = obs.NewCounter("breaker.probes")
	gBreakersOpen  = obs.NewGauge("breaker.open")
)

// ErrBreakerOpen is returned (wrapped) when a request is refused locally
// because the target's circuit breaker is open. It is retryable: the
// breaker will half-open and probe on its own schedule.
var ErrBreakerOpen = errors.New("circuit breaker open")

// BreakerState is the classic three-state circuit-breaker automaton.
type BreakerState int

const (
	// BreakerClosed passes all traffic; consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen refuses all traffic until the open window elapses.
	BreakerOpen
	// BreakerHalfOpen admits a single probe request; its outcome closes
	// or re-opens the breaker.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker is a circuit breaker over one upstream target. It sits *under*
// the retry loop: retries decide when to try again, the breaker decides
// whether trying is allowed at all, converting a persistently dead
// endpoint from a timeout per attempt into an immediate local refusal.
// Its latest failure also starts a fleet endpoint's cooldown.
//
// Closed → Open after Threshold consecutive failures; Open → HalfOpen
// once OpenFor has elapsed; HalfOpen admits one probe, whose success
// closes the breaker and whose failure re-opens it. A probe whose
// outcome never gets recorded (e.g. its context was cancelled) expires
// after another OpenFor, so a lost probe cannot wedge the breaker open
// forever.
//
// All methods are safe for concurrent use and take the current time
// explicitly, keeping tests deterministic. A nil *Breaker admits
// everything and records nothing.
type Breaker struct {
	threshold int
	openFor   time.Duration

	mu       sync.Mutex
	failures int       // consecutive failures while closed
	openedAt time.Time // zero = closed
	probeAt  time.Time // last probe admission while half-open
	failedAt time.Time // latest failure; zero once a success follows it
}

// NewBreaker returns a closed breaker that opens after threshold
// consecutive failures (default 5) and stays open for openFor
// (default 3s) before probing.
func NewBreaker(threshold int, openFor time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if openFor <= 0 {
		openFor = 3 * time.Second
	}
	return &Breaker{threshold: threshold, openFor: openFor}
}

// State reports the automaton state at the given time.
func (b *Breaker) State(now time.Time) BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state(now)
}

func (b *Breaker) state(now time.Time) BreakerState {
	if b.openedAt.IsZero() {
		return BreakerClosed
	}
	if now.Sub(b.openedAt) < b.openFor {
		return BreakerOpen
	}
	return BreakerHalfOpen
}

// Willing reports whether a request would currently be admitted, without
// consuming the half-open probe slot — the peek used for ordering
// endpoint preference lists.
func (b *Breaker) Willing(now time.Time) bool { return b.admit(now, false) }

// Allow reports whether a request may proceed now. In the half-open
// state the first Allow consumes the probe slot; callers must follow a
// true Allow with a Record of the outcome.
func (b *Breaker) Allow(now time.Time) bool { return b.admit(now, true) }

// admit decides for Willing and Allow; take consumes the probe slot.
func (b *Breaker) admit(now time.Time, take bool) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state(now) {
	case BreakerClosed:
		return true
	case BreakerOpen:
		return false
	}
	// Half-open: one probe at a time, expired probes re-admit.
	if !b.probeAt.IsZero() && now.Sub(b.probeAt) < b.openFor {
		return false
	}
	if take {
		b.probeAt = now
		cBreakerProbes.Add(1)
	}
	return true
}

// Record feeds one request outcome into the automaton. Callers decide
// what counts as failure (transport errors and 5xx overload, typically —
// a 429 proves the endpoint alive and should be recorded as success).
func (b *Breaker) Record(now time.Time, success bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	wasOpen := !b.openedAt.IsZero()
	if success {
		b.failures = 0
		b.openedAt = time.Time{}
		b.probeAt = time.Time{}
		b.failedAt = time.Time{}
		if wasOpen {
			cBreakerCloses.Add(1)
			gBreakersOpen.Add(-1)
		}
		return
	}
	b.failedAt = now
	if wasOpen {
		// Half-open probe failed (or a straggler failure arrived while
		// open): restart the open window.
		b.openedAt = now
		b.probeAt = time.Time{}
		return
	}
	b.failures++
	if b.failures >= b.threshold {
		b.openedAt = now
		b.probeAt = time.Time{}
		cBreakerOpens.Add(1)
		gBreakersOpen.Add(1)
	}
}

// failedWithin reports whether the latest failure, not yet followed by a
// success, happened less than d before now.
func (b *Breaker) failedWithin(now time.Time, d time.Duration) bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.failedAt.IsZero() && now.Sub(b.failedAt) < d
}

// breakerFailure classifies an exchange outcome for the breaker and the
// cooldown alike: transport-level errors and overloaded/dead statuses
// (503, 504) count as failures; any other HTTP answer — including 429
// and 4xx rejections — proves the endpoint alive.
func breakerFailure(err error) bool {
	if err == nil {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.StatusCode == http.StatusServiceUnavailable ||
			se.StatusCode == http.StatusGatewayTimeout
	}
	return true
}
