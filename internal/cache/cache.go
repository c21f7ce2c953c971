// Package cache is a content-addressed result cache for the perturbation
// analyses. The analysis pipeline is deterministic: the same decoded trace,
// calibration and analysis options always produce the same approximation,
// so a finished result can be reused for every future request with the
// same content key (see Key) instead of re-running the fixpoint.
//
// The cache combines two mechanisms:
//
//   - an LRU bounded by a byte budget, so resident results amortize
//     repeated identical requests down to a hash plus a map lookup;
//   - singleflight deduplication, so a thundering herd of concurrent
//     identical requests costs exactly one analysis — the first caller
//     computes, the rest coalesce onto the in-flight computation.
//
// Cancellation is per caller, not per flight: the in-flight computation
// runs under a context that is only cancelled once every coalesced caller
// has given up. A caller whose own context expires leaves with its
// context error while the flight keeps computing for the remaining
// waiters — the "leader" has no special status, so cancelling it promotes
// the survivors instead of wasting their work.
//
// Values are stored by reference and must be treated as immutable by every
// caller; the cache never copies them.
package cache

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"perturb/internal/cancel"
	"perturb/internal/obs"
)

// Telemetry mirrors of the cache's own stats, visible on the obs debug
// surface (and /debug/vars) when telemetry is enabled. The authoritative
// numbers are Cache.Stats, which is always on.
var (
	cHits      = obs.NewCounter("cache.hits")
	cMisses    = obs.NewCounter("cache.misses")
	cEvictions = obs.NewCounter("cache.evictions")
	cCoalesced = obs.NewCounter("cache.coalesced")
	cInserts   = obs.NewCounter("cache.inserts")
	gBytes     = obs.NewGauge("cache.bytes")
	gEntries   = obs.NewGauge("cache.entries")
)

// Stats is a point-in-time summary of a cache's effectiveness.
type Stats struct {
	// Hits are Get/Do calls served from a resident entry.
	Hits int64 `json:"hits"`
	// Misses are Do calls that started a new computation.
	Misses int64 `json:"misses"`
	// Coalesced are Do calls that joined an already in-flight computation
	// instead of starting their own.
	Coalesced int64 `json:"coalesced"`
	// Evictions counts entries dropped to stay inside the byte budget.
	Evictions int64 `json:"evictions"`
	// Inserts counts successful computations stored.
	Inserts int64 `json:"inserts"`
	// Bytes and Entries describe current residency.
	Bytes   int64 `json:"bytes"`
	Entries int64 `json:"entries"`
	// MaxBytes is the configured budget.
	MaxBytes int64 `json:"max_bytes"`
}

// HitRatio returns hits+coalesced over all lookups; coalesced callers
// count as hits because they were served without a new analysis.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Coalesced + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced) / float64(total)
}

// Cache is a byte-bounded LRU of computation results with singleflight
// deduplication. Create with New; a nil *Cache is a valid always-miss,
// never-dedup cache (Get misses, Do just runs fn).
type Cache struct {
	maxBytes int64

	mu      sync.Mutex
	bytes   int64
	ll      *list.List // front = most recently used; values are *entry
	entries map[string]*list.Element
	flights map[string]*flight
	aliasLL *list.List // wire-byte alias LRU; values are *aliasEntry
	aliases map[string]*list.Element

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	evictions atomic.Int64
	inserts   atomic.Int64
}

type entry struct {
	key  string
	val  any
	size int64
}

// aliasEntry memoizes one observed wire encoding of an input: the hash of
// the raw uploaded bytes mapped to the content address of the decoded
// events. Aliases let byte-identical repeat uploads skip decoding
// entirely — a hit costs one hash of the body plus two map lookups.
type aliasEntry struct {
	wire     string
	resolved string
}

// aliasCap bounds the alias table by entry count; entries are two hashes,
// so even the full table is a few hundred kilobytes.
const aliasCap = 4096

// flight is one in-progress computation plus everyone waiting on it.
type flight struct {
	done    chan struct{} // closed when val/err are set
	val     any
	err     error
	waiters int                // guarded by Cache.mu
	cancel  context.CancelFunc // cancels the computation's context
}

// New returns a cache bounded to maxBytes of stored values (sizes are
// caller-reported). maxBytes <= 0 returns a nil cache: every lookup
// misses and nothing is stored, but the nil receiver stays safe to use.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		return nil
	}
	return &Cache{
		maxBytes: maxBytes,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
		flights:  make(map[string]*flight),
		aliasLL:  list.New(),
		aliases:  make(map[string]*list.Element),
	}
}

// Alias resolves a previously recorded wire-byte hash to its decoded
// content address (see PutAlias), marking it most recently used.
func (c *Cache) Alias(wire string) (resolved string, ok bool) {
	if c == nil {
		return "", false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.aliases[wire]
	if !ok {
		return "", false
	}
	c.aliasLL.MoveToFront(el)
	return el.Value.(*aliasEntry).resolved, true
}

// PutAlias records that the raw upload hashing to wire decodes to the
// trace whose content address is resolved, so future byte-identical
// uploads can skip the decode. The table is LRU-bounded by aliasCap.
func (c *Cache) PutAlias(wire, resolved string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.aliases[wire]; ok {
		el.Value.(*aliasEntry).resolved = resolved
		c.aliasLL.MoveToFront(el)
		return
	}
	c.aliases[wire] = c.aliasLL.PushFront(&aliasEntry{wire: wire, resolved: resolved})
	for len(c.aliases) > aliasCap {
		back := c.aliasLL.Back()
		c.aliasLL.Remove(back)
		delete(c.aliases, back.Value.(*aliasEntry).wire)
	}
}

// Get returns the resident value for key, marking it most recently used.
func (c *Cache) Get(key string) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	cHits.Add(1)
	return el.Value.(*entry).val, true
}

// store holds a finished flight's value under its key, evicting least
// recently used entries until the budget holds; a value larger than the
// whole budget is not stored. Called with c.mu held. Only a flight
// stores, and a flight starts only for a key that is not resident, so
// the key is new.
func (c *Cache) store(key string, val any, size int64) {
	size = max(size, 0)
	if size > c.maxBytes {
		return
	}
	c.entries[key] = c.ll.PushFront(&entry{key: key, val: val, size: size})
	c.bytes += size
	c.inserts.Add(1)
	cInserts.Add(1)
	for c.bytes > c.maxBytes {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry)
		c.ll.Remove(back)
		delete(c.entries, e.key)
		c.bytes -= e.size
		c.evictions.Add(1)
		cEvictions.Add(1)
	}
	gBytes.Set(c.bytes)
	gEntries.Set(int64(len(c.entries)))
}

// Do returns the value for key, computing it with fn on a miss. Concurrent
// calls for the same key coalesce onto one fn invocation; its result is
// delivered to every waiter and, on success, stored in the cache with the
// size reported by size(val).
//
// fn runs on its own goroutine under a context that stays live while at
// least one caller is still waiting: a caller whose ctx expires returns
// ErrCanceled/ErrDeadlineExceeded alone, and only when the last waiter
// has left is the computation cancelled. fn must honor its context for
// that cancellation to take effect.
//
// cached reports whether this caller avoided running fn itself — a
// resident hit or a coalesced join, not the computing caller.
func (c *Cache) Do(ctx context.Context, key string, size func(val any) int64, fn func(ctx context.Context) (any, error)) (val any, cached bool, err error) {
	if c == nil {
		v, err := fn(ctx)
		return v, false, err
	}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.hits.Add(1)
		cHits.Add(1)
		v := el.Value.(*entry).val
		c.mu.Unlock()
		return v, true, nil
	}
	f, joined := c.flights[key]
	if joined {
		f.waiters++
		c.coalesced.Add(1)
		cCoalesced.Add(1)
	} else {
		fctx, fcancel := context.WithCancel(context.Background())
		f = &flight{done: make(chan struct{}), waiters: 1, cancel: fcancel}
		c.flights[key] = f
		c.misses.Add(1)
		cMisses.Add(1)
		go c.run(fctx, key, f, size, fn)
	}
	c.mu.Unlock()

	select {
	case <-f.done:
		return f.val, joined, f.err
	case <-ctx.Done():
		c.leave(key, f)
		return nil, false, cancel.Err(ctx)
	}
}

// run executes one flight to completion and publishes the result.
func (c *Cache) run(fctx context.Context, key string, f *flight, size func(any) int64, fn func(context.Context) (any, error)) {
	defer f.cancel()
	v, err := fn(fctx)
	c.mu.Lock()
	if err == nil {
		c.store(key, v, size(v))
	}
	delete(c.flights, key)
	f.val, f.err = v, err
	close(f.done)
	c.mu.Unlock()
}

// leave unregisters one waiter from a flight; the last waiter out cancels
// the computation.
func (c *Cache) leave(key string, f *flight) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-f.done:
		return // already published; nothing to abandon
	default:
	}
	f.waiters--
	if f.waiters <= 0 {
		f.cancel()
	}
}

// Stats returns the cache's lifetime counters and current residency. A
// nil cache reports zeroes.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	bytes, entries := c.bytes, int64(len(c.entries))
	c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
		Inserts:   c.inserts.Load(),
		Bytes:     bytes,
		Entries:   entries,
		MaxBytes:  c.maxBytes,
	}
}
