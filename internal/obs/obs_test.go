package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// withTelemetry runs f with the layer enabled and metrics reset, restoring
// the disabled default afterwards.
func withTelemetry(t *testing.T, f func()) {
	t.Helper()
	Reset()
	SetEnabled(true)
	defer func() {
		SetEnabled(false)
		Reset()
	}()
	f()
}

func TestDisabledRecordsNothing(t *testing.T) {
	Reset()
	SetEnabled(false)
	c := NewCounter("test.disabled.counter")
	g := NewMaxGauge("test.disabled.max")
	h := NewHistogram("test.disabled.hist")
	c.Add(5)
	g.Observe(7)
	h.Observe(0, 9)
	NewSpan("test.disabled.span").Start().End()
	st := Snapshot()
	if st.Enabled {
		t.Error("snapshot reports enabled")
	}
	if c.Value() != 0 || g.Value() != 0 {
		t.Errorf("disabled metrics recorded: counter=%d max=%d", c.Value(), g.Value())
	}
	if hs, _ := st.Hist("test.disabled.span_ns"); hs.Count != 0 {
		t.Error("disabled span recorded")
	}
	for _, hs := range st.Hists {
		if hs.Name == "test.disabled.hist" && hs.Count != 0 {
			t.Errorf("disabled histogram recorded %d observations", hs.Count)
		}
	}
}

func TestCounterMaxHistogram(t *testing.T) {
	withTelemetry(t, func() {
		c := NewCounter("test.counter")
		g := NewMaxGauge("test.max")
		h := NewHistogram("test.hist")
		c.Add(3)
		c.Add(4)
		g.Observe(10)
		g.Observe(2) // must not lower the max
		for i := int64(0); i < 10; i++ {
			h.Observe(int(i), i)
		}
		st := Snapshot()
		if got := st.Counter("test.counter"); got != 7 {
			t.Errorf("counter = %d, want 7", got)
		}
		if got := st.Counter("test.max"); got != 10 {
			t.Errorf("max = %d, want 10", got)
		}
		for _, hs := range st.Hists {
			if hs.Name != "test.hist" {
				continue
			}
			if hs.Count != 10 || hs.Sum != 45 {
				t.Errorf("hist count/sum = %d/%d, want 10/45", hs.Count, hs.Sum)
			}
			var bucketSum int64
			for _, b := range hs.Buckets {
				if b.Lo > b.Hi {
					t.Errorf("bucket bounds inverted: %+v", b)
				}
				bucketSum += b.Count
			}
			if bucketSum != hs.Count {
				t.Errorf("bucket counts sum to %d, want %d", bucketSum, hs.Count)
			}
			return
		}
		t.Error("test.hist missing from snapshot")
	})
}

func TestNewReturnsSameHandle(t *testing.T) {
	if NewCounter("test.same") != NewCounter("test.same") {
		t.Error("NewCounter returned distinct handles for one name")
	}
	if NewMaxGauge("test.same.max") != NewMaxGauge("test.same.max") {
		t.Error("NewMaxGauge returned distinct handles for one name")
	}
	if NewHistogram("test.same.hist") != NewHistogram("test.same.hist") {
		t.Error("NewHistogram returned distinct handles for one name")
	}
	if NewSpan("test.same.span") != NewSpan("test.same.span") {
		t.Error("NewSpan returned distinct handles for one name")
	}
}

func TestSpans(t *testing.T) {
	withTelemetry(t, func() {
		iv := NewSpan("test.span").Start()
		time.Sleep(time.Millisecond)
		iv.End()
		st := Snapshot()
		got, ok := st.Hist("test.span_ns")
		if !ok {
			t.Fatal("span histogram missing from snapshot")
		}
		if got.Count != 1 {
			t.Errorf("span count = %d, want 1", got.Count)
		}
		if got.Sum < int64(time.Millisecond)/2 {
			t.Errorf("span total %dns implausibly short", got.Sum)
		}
		if got.Mean() != float64(got.Sum) {
			t.Errorf("mean of a single span = %v, want %d", got.Mean(), got.Sum)
		}
	})
}

// TestSpanEndFeedsHistogramAndRing: one End of an interval opened on a
// recording scope observes the span's histogram and writes the ring
// record, with the same length.
func TestSpanEndFeedsHistogramAndRing(t *testing.T) {
	withTelemetry(t, func() {
		phase, wait := NewSpan("test.both.phase"), NewSpan("test.both.wait")
		r := NewRecorder(16)
		sc := r.Begin()
		sc.Phase(phase)
		w := sc.Wait(wait)
		time.Sleep(time.Millisecond)
		w.End()
		sc.End()

		st := Snapshot()
		var lengths []int64
		for _, rec := range r.Records() {
			if rec.Kind == RecWait || rec.Kind == RecPhase {
				lengths = append(lengths, rec.End-rec.Start)
			}
		}
		if len(lengths) != 2 {
			t.Fatalf("ring holds %d wait/phase records, want 2", len(lengths))
		}
		for i, name := range []string{"test.both.wait_ns", "test.both.phase_ns"} {
			h, _ := st.Hist(name)
			if h.Count != 1 || h.Sum != lengths[i] {
				t.Errorf("%s: count %d sum %d, want 1 observation of the ring's %d ns",
					name, h.Count, h.Sum, lengths[i])
			}
		}
		if got := r.VarNames(); len(got) != 1 || got[0] != "test.both.wait" {
			t.Errorf("wait table = %v, want the span's name", got)
		}
	})
}

// TestSpanSurvivesReset: Reset zeroes a span's histogram in place, and
// the handle keeps recording.
func TestSpanSurvivesReset(t *testing.T) {
	withTelemetry(t, func() {
		sp := NewSpan("test.reset.handle")
		sp.Start().End()
		Reset()
		sp.Start().End()
		if h, _ := Snapshot().Hist("test.reset.handle_ns"); h.Count != 1 {
			t.Errorf("span after Reset recorded %d intervals, want 1", h.Count)
		}
	})
}

// TestDisabledSpansCostNothing: with telemetry off and no recorder there
// is no scope, and an interval records nothing and allocates nothing.
func TestDisabledSpansCostNothing(t *testing.T) {
	Reset()
	SetEnabled(false)
	var r *Recorder
	if sc := r.Begin(); sc != nil {
		t.Fatalf("Begin on a nil recorder with telemetry off = %+v, want nil", sc)
	}
	sp := NewSpan("test.disabled.cost")
	if n := testing.AllocsPerRun(100, func() { sp.Start().End() }); n != 0 {
		t.Errorf("Start().End() allocates %v times, want 0", n)
	}
	if h, _ := Snapshot().Hist("test.disabled.cost_ns"); h.Count != 0 {
		t.Errorf("disabled span recorded %d intervals", h.Count)
	}
}

func TestConcurrentRecording(t *testing.T) {
	withTelemetry(t, func() {
		c := NewCounter("test.conc.counter")
		g := NewMaxGauge("test.conc.max")
		h := NewHistogram("test.conc.hist")
		const workers, perWorker = 8, 1000
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					c.Add(1)
					g.Observe(int64(w*perWorker + i))
					h.Observe(w, 1)
				}
			}(w)
		}
		wg.Wait()
		if c.Value() != workers*perWorker {
			t.Errorf("counter = %d, want %d", c.Value(), workers*perWorker)
		}
		if g.Value() != workers*perWorker-1 {
			t.Errorf("max = %d, want %d", g.Value(), workers*perWorker-1)
		}
		st := Snapshot()
		for _, hs := range st.Hists {
			if hs.Name == "test.conc.hist" && hs.Count != workers*perWorker {
				t.Errorf("hist count = %d, want %d", hs.Count, workers*perWorker)
			}
		}
	})
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	withTelemetry(t, func() {
		NewCounter("test.json.counter").Add(42)
		NewMaxGauge("test.json.max").Observe(17)
		NewHistogram("test.json.hist").Observe(0, 1000)
		NewSpan("test.json.span").Start().End()
		st := Snapshot()
		data, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var back Stats
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st, back) {
			t.Errorf("JSON round trip changed the snapshot:\n%+v\nvs\n%+v", st, back)
		}
	})
}

func TestWriteText(t *testing.T) {
	withTelemetry(t, func() {
		NewCounter("test.text.counter").Add(5)
		NewMaxGauge("test.text.max").Observe(9)
		NewHistogram("test.text.hist").Observe(0, 3)
		NewSpan("test.text.span").Start().End()
		var buf bytes.Buffer
		if err := Snapshot().WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		for _, want := range []string{
			"enabled=true", "test.text.counter", "test.text.max",
			"test.text.hist", "test.text.span_ns",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("text output lacks %q:\n%s", want, out)
			}
		}
	})
}

func TestReset(t *testing.T) {
	withTelemetry(t, func() {
		c := NewCounter("test.reset.counter")
		c.Add(3)
		NewSpan("test.reset.span").Start().End()
		Reset()
		if c.Value() != 0 {
			t.Errorf("counter survived reset: %d", c.Value())
		}
		if h, ok := Snapshot().Hist("test.reset.span_ns"); !ok || h.Count != 0 {
			t.Errorf("span histogram after reset: present=%v count=%d, want present with 0", ok, h.Count)
		}
	})
}

func TestServeDebug(t *testing.T) {
	withTelemetry(t, func() {
		NewCounter("test.debug.counter").Add(11)
		d, err := ServeDebug("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		get := func(path string) string {
			resp, err := http.Get(fmt.Sprintf("http://%s%s", d.Addr(), path))
			if err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: status %d", path, resp.StatusCode)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return string(body)
		}
		vars := get("/debug/vars")
		var decoded map[string]json.RawMessage
		if err := json.Unmarshal([]byte(vars), &decoded); err != nil {
			t.Fatalf("/debug/vars is not JSON: %v", err)
		}
		raw, ok := decoded["obs"]
		if !ok {
			t.Fatal("/debug/vars lacks the obs snapshot")
		}
		var st Stats
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("obs expvar is not a Stats: %v", err)
		}
		if st.Counter("test.debug.counter") != 11 {
			t.Errorf("obs expvar counter = %d, want 11", st.Counter("test.debug.counter"))
		}
		if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
			t.Error("/debug/pprof/ index lacks profiles")
		}
	})
}

func TestGauge(t *testing.T) {
	withTelemetry(t, func() {
		g := NewGauge("test.gauge")
		g.Set(100)
		g.Add(-30)
		g.Add(5)
		if got := g.Value(); got != 75 {
			t.Errorf("gauge = %d, want 75", got)
		}
		st := Snapshot()
		if got := st.Counter("test.gauge"); got != 75 {
			t.Errorf("snapshot gauge = %d, want 75", got)
		}
		found := false
		for _, c := range st.Gauges {
			if c.Name == "test.gauge" {
				found = true
			}
		}
		if !found {
			t.Error("test.gauge missing from snapshot Gauges")
		}
	})

	// Disabled: Set and Add are no-ops; Reset zeroes the level.
	SetEnabled(false)
	g := NewGauge("test.gauge.off")
	g.Set(9)
	g.Add(1)
	if g.Value() != 0 {
		t.Errorf("disabled gauge recorded %d", g.Value())
	}
	if NewGauge("test.gauge.off") != g {
		t.Error("NewGauge returned distinct handles for one name")
	}
	SetEnabled(true)
	g.Set(4)
	Reset()
	SetEnabled(false)
	if g.Value() != 0 {
		t.Errorf("gauge survived Reset with %d", g.Value())
	}
}
