package cache

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perturb/internal/cancel"
)

func sizeOne(any) int64 { return 1 }

// put stores val under key with the given size through Do, the cache's
// one way in, and returns the value Do served.
func put(t *testing.T, c *Cache, key string, val any, size int64) any {
	t.Helper()
	v, _, err := c.Do(context.Background(), key, func(any) int64 { return size }, func(context.Context) (any, error) {
		return val, nil
	})
	if err != nil {
		t.Fatalf("Do(%s): %v", key, err)
	}
	return v
}

func TestNilCache(t *testing.T) {
	var c *Cache
	if c2 := New(0); c2 != nil {
		t.Errorf("New(0) = %v, want nil", c2)
	}
	if _, ok := c.Get("k"); ok {
		t.Error("nil cache reported a hit")
	}
	v, cached, err := c.Do(context.Background(), "k", sizeOne, func(context.Context) (any, error) { return 42, nil })
	if err != nil || cached || v.(int) != 42 {
		t.Errorf("nil Do = (%v, %v, %v), want (42, false, nil)", v, cached, err)
	}
	if _, ok := c.Get("k"); ok {
		t.Error("nil cache stored a value")
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Errorf("nil Stats = %+v, want zero", s)
	}
}

func TestGetPutLRU(t *testing.T) {
	c := New(3)
	put(t, c, "a", "A", 1)
	put(t, c, "b", "B", 1)
	put(t, c, "c", "C", 1)
	// Touch "a" so "b" is the least recently used.
	if v, ok := c.Get("a"); !ok || v.(string) != "A" {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	put(t, c, "d", "D", 1) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction; LRU order wrong")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s missing after eviction of b", k)
		}
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 3 || s.Bytes != 3 {
		t.Errorf("stats = %+v, want 1 eviction, 3 entries, 3 bytes", s)
	}
}

// TestPutReplaceAndOversize: a resident value is served, not replaced,
// by a later Do of its key; a value over the whole budget is returned but
// not stored; a negative size is charged as zero.
func TestPutReplaceAndOversize(t *testing.T) {
	c := New(10)
	put(t, c, "k", "small", 2)
	if v := put(t, c, "k", "bigger", 5); v.(string) != "small" {
		t.Errorf("repeat Do served %v, want the resident value", v)
	}
	if s := c.Stats(); s.Bytes != 2 || s.Entries != 1 || s.Hits != 1 {
		t.Errorf("after repeat: %+v, want bytes=2 entries=1 hits=1", s)
	}
	if v := put(t, c, "huge", "x", 11); v.(string) != "x" {
		t.Errorf("over-budget Do served %v, want x", v)
	}
	if _, ok := c.Get("huge"); ok {
		t.Error("over-budget value was stored")
	}
	put(t, c, "neg", "y", -4) // negative sizes clamp to 0
	if s := c.Stats(); s.Bytes != 2 || s.Entries != 2 {
		t.Errorf("negative size: %+v, want bytes=2 entries=2", s)
	}
}

func TestByteBudgetEvictsUntilFit(t *testing.T) {
	c := New(100)
	for i := 0; i < 10; i++ {
		put(t, c, fmt.Sprintf("k%d", i), i, 30)
	}
	s := c.Stats()
	if s.Bytes > 100 {
		t.Errorf("bytes = %d exceeds budget 100", s.Bytes)
	}
	if s.Entries != 3 {
		t.Errorf("entries = %d, want 3 (3x30 <= 100)", s.Entries)
	}
	if s.Evictions != 7 {
		t.Errorf("evictions = %d, want 7", s.Evictions)
	}
}

// TestSingleflightCoalesces fires N concurrent identical Do calls; the
// computation must run exactly once, everyone must get its result, and
// exactly one caller must report cached=false.
func TestSingleflightCoalesces(t *testing.T) {
	c := New(1 << 20)
	const n = 16
	var runs atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	uncached := make(chan bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, cached, err := c.Do(context.Background(), "key", sizeOne, func(ctx context.Context) (any, error) {
				runs.Add(1)
				close(started)
				<-release
				return "result", nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
				return
			}
			if v.(string) != "result" {
				t.Errorf("Do = %v", v)
			}
			uncached <- !cached
		}()
	}
	<-started
	// Give the stragglers a moment to coalesce before releasing.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	close(uncached)

	if got := runs.Load(); got != 1 {
		t.Errorf("computation ran %d times, want 1", got)
	}
	leaders := 0
	for u := range uncached {
		if u {
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("%d callers reported cached=false, want exactly 1", leaders)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Coalesced != n-1 {
		t.Errorf("stats = %+v, want misses=1 coalesced=%d", s, n-1)
	}
	// The published result is now resident.
	if v, cached, err := c.Do(context.Background(), "key", sizeOne, func(context.Context) (any, error) {
		t.Error("resident key recomputed")
		return nil, nil
	}); err != nil || !cached || v.(string) != "result" {
		t.Errorf("resident Do = (%v, %v, %v)", v, cached, err)
	}
}

// TestCancelPromotesFollower cancels the caller that started the
// computation while followers are coalesced on it: the computation must
// keep running (its context stays live) and the followers must receive
// the result; only the cancelled caller gets ErrCanceled.
func TestCancelPromotesFollower(t *testing.T) {
	c := New(1 << 20)
	entered := make(chan struct{})
	release := make(chan struct{})
	var sawCancel atomic.Bool

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(leaderCtx, "key", sizeOne, func(fctx context.Context) (any, error) {
			close(entered)
			select {
			case <-release:
				return "survived", nil
			case <-fctx.Done():
				sawCancel.Store(true)
				return nil, cancel.Err(fctx)
			}
		})
		leaderDone <- err
	}()
	<-entered

	followerDone := make(chan error, 1)
	var followerVal atomic.Value
	go func() {
		v, cached, err := c.Do(context.Background(), "key", sizeOne, func(context.Context) (any, error) {
			t.Error("follower started its own computation")
			return nil, nil
		})
		if err == nil {
			followerVal.Store(v)
			if !cached {
				t.Error("follower reported cached=false")
			}
		}
		followerDone <- err
	}()
	// Wait until the follower has coalesced, then cancel the leader.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Coalesced == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	cancelLeader()
	if err := <-leaderDone; !errors.Is(err, cancel.ErrCanceled) {
		t.Errorf("cancelled leader err = %v, want ErrCanceled", err)
	}
	// The flight must still be live: release it and the follower wins.
	close(release)
	if err := <-followerDone; err != nil {
		t.Errorf("follower err = %v, want promoted result", err)
	}
	if v := followerVal.Load(); v == nil || v.(string) != "survived" {
		t.Errorf("follower value = %v, want %q", v, "survived")
	}
	if sawCancel.Load() {
		t.Error("flight context was cancelled while a follower was waiting")
	}
}

// TestAllWaitersCancelled cancels every coalesced caller: the flight's
// context must be cancelled, every caller must fail with ErrCanceled,
// and no goroutine may linger.
func TestAllWaitersCancelled(t *testing.T) {
	before := runtime.NumGoroutine()

	c := New(1 << 20)
	const n = 8
	entered := make(chan struct{})
	flightCancelled := make(chan struct{})

	ctx, cancelAll := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	errs := make(chan error, n)
	var enterOnce sync.Once
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := c.Do(ctx, "key", sizeOne, func(fctx context.Context) (any, error) {
				enterOnce.Do(func() { close(entered) })
				<-fctx.Done()
				close(flightCancelled)
				return nil, cancel.Err(fctx)
			})
			errs <- err
		}()
	}
	<-entered
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Coalesced < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("coalesced = %d, want %d", c.Stats().Coalesced, n-1)
		}
		time.Sleep(time.Millisecond)
	}
	cancelAll()
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, cancel.ErrCanceled) {
			t.Errorf("err = %v, want ErrCanceled", err)
		}
	}
	select {
	case <-flightCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("flight context was never cancelled after all waiters left")
	}

	// The abandoned flight's goroutine must exit: no leaks.
	checkNoGoroutineLeak(t, before)

	// The key must be retryable after the abandoned flight: a fresh Do
	// computes anew.
	v, cached, err := c.Do(context.Background(), "key", sizeOne, func(context.Context) (any, error) {
		return "fresh", nil
	})
	if err != nil || cached || v.(string) != "fresh" {
		t.Errorf("retry after abandonment = (%v, %v, %v)", v, cached, err)
	}
}

// TestDoErrorNotCached verifies failed computations are not stored and do
// not poison subsequent calls.
func TestDoErrorNotCached(t *testing.T) {
	c := New(1 << 20)
	boom := errors.New("boom")
	if _, _, err := c.Do(context.Background(), "k", sizeOne, func(context.Context) (any, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Stats().Entries != 0 {
		t.Error("failed computation was cached")
	}
	v, cached, err := c.Do(context.Background(), "k", sizeOne, func(context.Context) (any, error) {
		return "ok", nil
	})
	if err != nil || cached || v.(string) != "ok" {
		t.Errorf("Do after failure = (%v, %v, %v)", v, cached, err)
	}
}

// TestDoDeadline maps a deadline expiry to ErrDeadlineExceeded for the
// expiring caller.
func TestDoDeadline(t *testing.T) {
	c := New(1 << 20)
	ctx, cancelCtx := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancelCtx()
	_, _, err := c.Do(ctx, "k", sizeOne, func(fctx context.Context) (any, error) {
		<-fctx.Done()
		return nil, cancel.Err(fctx)
	})
	if !errors.Is(err, cancel.ErrDeadlineExceeded) {
		t.Errorf("err = %v, want ErrDeadlineExceeded", err)
	}
}

// checkNoGoroutineLeak polls until the goroutine count returns to (near)
// its starting point, failing after a generous deadline.
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines: %d before, %d after waiting", before, runtime.NumGoroutine())
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}
