package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"perturb"
)

func TestMedianAndPercentile(t *testing.T) {
	if v, n := median([]float64{3, 1, 2}); v != 2 || n != 3 {
		t.Errorf("median odd = %v (n=%d), want 2 (n=3)", v, n)
	}
	if v, n := median([]float64{4, 1, 3, 2}); v != 2.5 || n != 4 {
		t.Errorf("median even = %v (n=%d), want 2.5 (n=4)", v, n)
	}
	if v, n := median(nil); v != 0 || n != 0 {
		t.Errorf("median of nothing = %v (n=%d)", v, n)
	}

	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted input
	}
	v, n, err := percentile(xs, 0.9)
	if err != nil || v != 90 || n != 100 {
		t.Errorf("p90 of 1..100 = %v (n=%d, err %v), want 90 (n=100)", v, n, err)
	}
	// p90 needs ten samples beyond it: 99 samples are too few.
	if _, n, err := percentile(xs[:99], 0.9); err == nil || n != 99 {
		t.Errorf("p90 of 99 samples: err = %v (n=%d), want an error", err, n)
	}
	if _, _, err := percentile(xs, 0.99); err == nil {
		t.Error("p99 of 100 samples: want an error")
	}
	if _, _, err := percentile(xs, 0.5); err == nil {
		t.Error("percentile(0.5): want an error, the median has its own helper")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tperfbench\nVmPeak:\t  900 kB\nVmHWM:\t  524288 kB\nVmRSS:\t  1000 kB\n"
	kb, err := parseVmHWM([]byte(status))
	if err != nil || kb != 524288 {
		t.Errorf("parseVmHWM = %d, %v; want 524288", kb, err)
	}
	for _, bad := range []string{"VmRSS:\t1 kB\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseVmHWM([]byte(bad)); err == nil {
			t.Errorf("parseVmHWM(%q): want an error", bad)
		}
	}
}

// TestPeakRSSReset checks that a reset forgets an earlier peak: the
// high-water mark after touching 128 MB stays high until the memory is
// returned and the mark is reset.
func TestPeakRSSReset(t *testing.T) {
	// Return the heap earlier tests left behind, so the allocation below
	// needs fresh pages.
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		t.Skipf("cannot reset the peak on this kernel: %v", err)
	}
	base, err := peakRSSMB()
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 128<<20)
	for i := 0; i < len(big); i += 4096 {
		big[i] = 1
	}
	high, err := peakRSSMB()
	if err != nil {
		t.Fatal(err)
	}
	if high < base+100 {
		t.Fatalf("peak %.1f MB after touching 128 MB from %.1f MB", high, base)
	}
	runtime.KeepAlive(big)
	big = nil
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		t.Fatal(err)
	}
	after, err := peakRSSMB()
	if err != nil {
		t.Fatal(err)
	}
	if after > high-100 {
		t.Errorf("peak %.1f MB after freeing and resetting, was %.1f MB", after, high)
	}
}

func TestSelfTimes(t *testing.T) {
	ns := func(ms int64) int64 { return ms * int64(time.Millisecond) }
	spans := []span{
		{Name: "op", Start: ns(0), End: ns(100), Parent: -1},
		{Name: "a", Start: ns(10), End: ns(30), Parent: 0},
		{Name: "b", Start: ns(20), End: ns(50), Parent: 0},  // overlaps a: union 10..50
		{Name: "c", Start: ns(90), End: ns(120), Parent: 0}, // clipped to 90..100
		{Name: "b.1", Start: ns(25), End: ns(35), Parent: 2},
		{Name: "other", Start: ns(0), End: ns(5), Parent: -1},
	}
	want := []time.Duration{50, 20, 20, 30, 10, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i]*time.Millisecond)
		}
	}

	st := collectSpans(spans)
	if v, n := median(st.sumPerOp(st.self, "op")); v != 50 || n != 1 {
		t.Errorf("collected self time of op = %v ms (n=%d), want 50 (n=1)", v, n)
	}
}

func TestRecorderNilIsUntraced(t *testing.T) {
	var r *recorder
	id := r.begin("x", -1, 0)
	r.end(id)
	if id != -1 || r.len() != 0 || r.root(0) != -1 || r.snapshot() != nil {
		t.Error("a nil recorder recorded something")
	}
	r = newRecorder()
	root := r.begin("op", -1, 7)
	child := r.begin("layer", r.root(7), 7)
	r.end(child)
	r.end(root)
	s := r.snapshot()
	if len(s) != 2 || s[1].Parent != root || s[0].End < s[1].End {
		t.Errorf("spans = %+v", s)
	}
}

// TestLastEventIn checks the attribution of a window line to the last
// event of its window, which the lag is measured from.
func TestLastEventIn(t *testing.T) {
	times := []perturb.Time{5, 10, 10, 19, 20, 35, 41}
	for _, tc := range []struct {
		start, end perturb.Time
		want       int
	}{
		{0, 10, 0},  // only 5
		{10, 20, 3}, // 10, 10, 19: the last is index 3
		{20, 30, 4},
		{30, 40, 5},
		{40, 50, 6},
		{50, 60, -1}, // past the end
		{21, 35, -1}, // a gap: 35 lies in the next window
		{0, 5, -1},
	} {
		if got := lastEventIn(times, tc.start, tc.end); got != tc.want {
			t.Errorf("lastEventIn [%d, %d) = %d, want %d", tc.start, tc.end, got, tc.want)
		}
	}
}

func TestStreamChunks(t *testing.T) {
	in, err := newStreamInput(1)
	if err != nil {
		t.Fatal(err)
	}
	var joined strings.Builder
	for c := 0; c < in.chunks(); c++ {
		joined.Write(in.chunkBytes(c))
	}
	if joined.String() != string(in.body) {
		t.Fatal("chunks do not reassemble the body")
	}
	n := len(in.times)
	if n < 900000 || n > 1050000 {
		t.Errorf("stream has %d events, want about 0.9 to 1 million", n)
	}
	// The last chunk is due when the stream has run for its events at
	// the fixed rate.
	last := dueOffset(in.chunks() - 1).Seconds()
	if want := float64(n) / streamRate; math.Abs(last-want) > float64(streamChunk)/streamRate {
		t.Errorf("last chunk due at %.3fs, want about %.3fs", last, want)
	}
}
