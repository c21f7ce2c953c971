package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Start and End
// are nanoseconds since the recorder was created; Parent indexes the
// enclosing span (-1 for a root); Op groups the spans of one trace,
// request or stream. Alloc is the heap allocated during the span, when
// the recorder measures it.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Alloc  int64  `json:"alloc_bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced run: every method is a no-op and begin returns -1.
type recorder struct {
	epoch time.Time
	// measureAlloc reads the heap's cumulative allocation at both ends of
	// every span. It stops the world briefly, so only single-goroutine
	// workloads turn it on.
	measureAlloc bool

	mu    sync.Mutex
	spans []span
	// allocAt holds each open span's starting allocation count.
	allocAt map[int]uint64
	// opRoot maps an op to its root span, so a span begun on another
	// goroutine (the request handler) can find its parent.
	opRoot map[int64]int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), allocAt: map[int]uint64{}, opRoot: map[int64]int{}}
}

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent int, op int64) int {
	if r == nil {
		return -1
	}
	var alloc uint64
	if r.measureAlloc {
		alloc = totalAlloc()
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	if parent < 0 {
		r.opRoot[op] = id
	}
	if r.measureAlloc {
		r.allocAt[id] = alloc
	}
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	var alloc uint64
	if r.measureAlloc {
		alloc = totalAlloc()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	if start, ok := r.allocAt[id]; ok {
		r.spans[id].Alloc = int64(alloc - start)
		delete(r.allocAt, id)
	}
}

// root returns the root span recorded for op, or -1.
func (r *recorder) root(op int64) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.opRoot[op]; ok {
		return id
	}
	return -1
}

func (r *recorder) len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile writes the spans as JSON lines, each with its id and self
// time.
func (r *recorder) writeFile(path string) error {
	spans := r.snapshot()
	self := selfTimes(spans)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		line := struct {
			ID int `json:"id"`
			span
			Self int64 `json:"self_ns"`
		}{i, s, int64(self[i])}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Overlapping children (from
// concurrent goroutines) are counted once.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, spans, children[i])
	}
	return self
}

// covered is the length of the union of the child intervals, clipped to
// the parent's interval.
func covered(parent span, spans []span, kids []int) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return time.Duration(total)
}

// spanStats collects, per span name and op, the self time (ms) and the
// allocation (MB) of the spans; repeated spans of one op add up.
type spanStats struct {
	self, alloc map[string]map[int64]float64
}

func collectSpans(spans []span) spanStats {
	self := selfTimes(spans)
	st := spanStats{self: map[string]map[int64]float64{}, alloc: map[string]map[int64]float64{}}
	for i, s := range spans {
		if st.self[s.Name] == nil {
			st.self[s.Name] = map[int64]float64{}
			st.alloc[s.Name] = map[int64]float64{}
		}
		st.self[s.Name][s.Op] += ms(self[i])
		st.alloc[s.Name][s.Op] += mb(uint64(s.Alloc))
	}
	return st
}

// sumPerOp adds up the named spans' values (of is st.self or st.alloc)
// op by op, one value per op that has any of them.
func (st spanStats) sumPerOp(of map[string]map[int64]float64, names ...string) []float64 {
	sum := map[int64]float64{}
	for _, n := range names {
		for op, v := range of[n] {
			sum[op] += v
		}
	}
	out := make([]float64, 0, len(sum))
	for _, v := range sum {
		out = append(out, v)
	}
	return out
}
