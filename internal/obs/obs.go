// Package obs is the toolchain's self-instrumentation layer: lightweight,
// allocation-conscious runtime telemetry for the analysis engines, the
// simulator and the trace codecs — the same discipline the paper demands
// of program instrumentation, applied to our own pipeline.
//
// Design rules, in the spirit of low-overhead profiling instrumentation:
//
//   - Telemetry is globally disabled by default. Every mutating entry point
//     begins with a single atomic flag load and returns immediately when
//     disabled, so the cost of carrying the instrumentation is one
//     predictable branch per (infrequent) call site.
//   - Hot paths never take a global lock. Counters and max gauges are
//     single atomic words; histograms are sharded so concurrent writers
//     (per-processor shards, worker goroutines) land on different cache
//     lines.
//   - Instrumented code is expected to accumulate into plain locals inside
//     its inner loops and flush once per run/batch; the obs primitives are
//     the flush targets, not per-event probes.
//   - Metric identities are package-level handles resolved once
//     (NewCounter etc. at var-init time), so recording never hashes a
//     name.
//
// The layer is observed three ways: programmatically via Snapshot, as a
// human-readable or JSON summary (Stats.WriteText, encoding/json), and
// over HTTP via ServeDebug (expvar + net/http/pprof).
package obs

import (
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// enabled gates every recording entry point. Disabled (the default) makes
// all recording near-free: one atomic load and a predictable branch.
var enabled atomic.Bool

// SetEnabled turns the telemetry layer on or off. Metrics keep their
// accumulated values across transitions; use Reset to clear them.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether the telemetry layer is recording.
func Enabled() bool { return enabled.Load() }

// registry holds every metric created by the New* constructors, keyed by
// name so repeated construction (e.g. in tests) returns the same handle.
// The registry lock guards only creation and snapshotting, never a
// recording path.
var registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	maxes    map[string]*MaxGauge
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// Counter is a monotonically increasing atomic event count.
type Counter struct {
	name string
	v    atomic.Int64
}

// NewCounter returns the counter registered under name, creating it on
// first use. Intended for package-level var initialization.
func NewCounter(name string) *Counter {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.counters == nil {
		registry.counters = make(map[string]*Counter)
	}
	c, ok := registry.counters[name]
	if !ok {
		c = &Counter{name: name}
		registry.counters[name] = c
	}
	return c
}

// Add increments the counter by n when telemetry is enabled.
func (c *Counter) Add(n int64) {
	if !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// MaxGauge tracks the maximum value observed (peak queue depth, peak heap
// size). The zero state reports 0.
type MaxGauge struct {
	name string
	v    atomic.Int64
}

// NewMaxGauge returns the max gauge registered under name, creating it on
// first use.
func NewMaxGauge(name string) *MaxGauge {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.maxes == nil {
		registry.maxes = make(map[string]*MaxGauge)
	}
	g, ok := registry.maxes[name]
	if !ok {
		g = &MaxGauge{name: name}
		registry.maxes[name] = g
	}
	return g
}

// Observe raises the gauge to n if n exceeds the current maximum.
func (g *MaxGauge) Observe(n int64) {
	if !enabled.Load() {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur {
			return
		}
		if g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the maximum observed so far.
func (g *MaxGauge) Value() int64 { return g.v.Load() }

// Gauge tracks a current level (cache bytes in use, entries resident):
// unlike a Counter it moves both ways, unlike a MaxGauge it reports the
// present value, not the peak.
type Gauge struct {
	name string
	v    atomic.Int64
}

// NewGauge returns the gauge registered under name, creating it on first
// use.
func NewGauge(name string) *Gauge {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.gauges == nil {
		registry.gauges = make(map[string]*Gauge)
	}
	g, ok := registry.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		registry.gauges[name] = g
	}
	return g
}

// Set stores n as the current level when telemetry is enabled.
func (g *Gauge) Set(n int64) {
	if !enabled.Load() {
		return
	}
	g.v.Store(n)
}

// Add moves the level by n (negative to decrease) when telemetry is
// enabled.
func (g *Gauge) Add(n int64) {
	if !enabled.Load() {
		return
	}
	g.v.Add(n)
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram buckets and sharding. Values are bucketed by bit length
// (bucket 0 holds value 0, bucket k holds [2^(k-1), 2^k-1]), which covers
// the full int64 range in 64 buckets with a single bits.Len64. Shards keep
// concurrent writers (indexed by worker/processor id) off each other's
// cache lines; Snapshot merges them.
const (
	histBuckets = 64
	histShards  = 8
)

type histShard struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
	_       [64]byte // keep neighbouring shards off this shard's tail line
}

// Histogram is a sharded log2-bucketed distribution of non-negative
// values.
type Histogram struct {
	name   string
	shards [histShards]histShard
}

// NewHistogram returns the histogram registered under name, creating it on
// first use.
func NewHistogram(name string) *Histogram {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.hists == nil {
		registry.hists = make(map[string]*Histogram)
	}
	h, ok := registry.hists[name]
	if !ok {
		h = &Histogram{name: name}
		registry.hists[name] = h
	}
	return h
}

// Observe records v (negative values clamp to 0) on the shard selected by
// shard (any int; reduced modulo the shard count). Callers with a natural
// worker or processor index should pass it so concurrent observation does
// not contend.
func (h *Histogram) Observe(shard int, v int64) {
	if !enabled.Load() {
		return
	}
	if v < 0 {
		v = 0
	}
	s := &h.shards[uint(shard)%histShards]
	s.count.Add(1)
	s.sum.Add(v)
	s.buckets[bits.Len64(uint64(v))&(histBuckets-1)].Add(1)
}

// Spans. A span is a named kind of timed interval (a pipeline phase, a
// request phase, a wait), resolved once like every other metric. A span
// is its histogram of interval lengths, registered as name+"_ns": ending
// an interval observes that histogram when telemetry is enabled, and an
// interval opened on a recording Scope also writes the self-trace ring
// (see selftrace.go).

// Span is a histogram of interval lengths in nanoseconds; see NewSpan.
type Span Histogram

// spanUnit suffixes a span's name to name its histogram.
const spanUnit = "_ns"

// NewSpan returns the span registered under name, creating it (and its
// histogram name+"_ns") on first use. Intended for package-level var
// initialization.
func NewSpan(name string) *Span { return (*Span)(NewHistogram(name + spanUnit)) }

// spanName returns the name the span was registered under.
func (sp *Span) spanName() string { return strings.TrimSuffix(sp.name, spanUnit) }

// epoch anchors clock, the one time base of spans and recorders.
var epoch = time.Now()

// clock returns monotonic nanoseconds since the package was initialized.
func clock() int64 { return int64(time.Since(epoch)) }

// Interval is an open interval of a span: Span.Start, Scope.Wait and
// Recorder.Drain open one, and End closes it. The zero Interval ends as a
// no-op.
type Interval struct {
	span  *Span
	sc    *Scope // the scope whose clock, slot and ring End uses; nil for Start
	kind  int    // ring record kind: RecPhase, RecWait or RecDrain
	pair  int    // wait pairing id
	start int64  // clock reading
}

// Start opens an interval of the span on no scope: End only feeds the
// histogram. With telemetry disabled it returns the zero Interval.
func (sp *Span) Start() Interval {
	if !enabled.Load() {
		return Interval{}
	}
	return Interval{span: sp, start: clock()}
}

// End closes the interval. Safe on the zero Interval.
func (iv Interval) End() {
	switch {
	case iv.span == nil:
	case iv.sc == nil:
		// No slot to shard by: the start time's low bits differ between
		// concurrent callers.
		(*Histogram)(iv.span).Observe(int(iv.start), clock()-iv.start)
	default:
		iv.endAt(iv.sc.tick())
	}
}

// endAt closes an interval opened on a scope at the scope time t: the
// histogram observes it on the scope's shard, and a recording scope's
// ring gets its record.
func (iv Interval) endAt(t int64) {
	(*Histogram)(iv.span).Observe(iv.sc.proc, t-iv.start)
	if r := iv.sc.r; r != nil {
		r.write(iv, t)
	}
}

// Reset zeroes every registered metric in place, spans included: their
// handles keep recording. Intended for tests and for per-invocation stats
// in the CLIs.
func Reset() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, c := range registry.counters {
		c.v.Store(0)
	}
	for _, g := range registry.maxes {
		g.v.Store(0)
	}
	for _, g := range registry.gauges {
		g.v.Store(0)
	}
	for _, h := range registry.hists {
		for i := range h.shards {
			s := &h.shards[i]
			s.count.Store(0)
			s.sum.Store(0)
			for b := range s.buckets {
				s.buckets[b].Store(0)
			}
		}
	}
}

// Snapshot returns a consistent-enough copy of every registered metric,
// sorted by name. "Consistent enough": individual values are loaded
// atomically, but the snapshot is not a cross-metric atomic cut — fine for
// reporting, which is its purpose.
func Snapshot() Stats {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	st := Stats{Enabled: enabled.Load()}
	for _, c := range registry.counters {
		st.Counters = append(st.Counters, CounterStat{Name: c.name, Value: c.v.Load()})
	}
	for _, g := range registry.maxes {
		st.Maxes = append(st.Maxes, CounterStat{Name: g.name, Value: g.v.Load()})
	}
	for _, g := range registry.gauges {
		st.Gauges = append(st.Gauges, CounterStat{Name: g.name, Value: g.v.Load()})
	}
	for _, h := range registry.hists {
		hs := HistStat{Name: h.name}
		var bucketTotals [histBuckets]int64
		for i := range h.shards {
			s := &h.shards[i]
			hs.Count += s.count.Load()
			hs.Sum += s.sum.Load()
			for b := range s.buckets {
				bucketTotals[b] += s.buckets[b].Load()
			}
		}
		for b, n := range bucketTotals {
			if n == 0 {
				continue
			}
			lo, hi := int64(0), int64(0)
			if b > 0 {
				lo = int64(1) << (b - 1)
				if b < 63 {
					hi = int64(1)<<b - 1
				} else {
					hi = math.MaxInt64
				}
			}
			hs.Buckets = append(hs.Buckets, HistBucket{Lo: lo, Hi: hi, Count: n})
		}
		st.Hists = append(st.Hists, hs)
	}
	sort.Slice(st.Counters, func(i, j int) bool { return st.Counters[i].Name < st.Counters[j].Name })
	sort.Slice(st.Maxes, func(i, j int) bool { return st.Maxes[i].Name < st.Maxes[j].Name })
	sort.Slice(st.Gauges, func(i, j int) bool { return st.Gauges[i].Name < st.Gauges[j].Name })
	sort.Slice(st.Hists, func(i, j int) bool { return st.Hists[i].Name < st.Hists[j].Name })
	return st
}
