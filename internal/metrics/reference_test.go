package metrics_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"perturb/internal/instr"
	"perturb/internal/metrics"
	"perturb/internal/testgen"
	"perturb/internal/trace"
)

// The reference implementations below are the per-processor derivations
// the one-pass walker replaced: each splits the trace with Trace.ByProc
// and walks every processor's events on their own. They are kept as
// test oracles, with the event-based engine's fork rule; metrics must
// match them exactly.

func refWaitEnd(e, prev trace.Event, havePrev bool) bool {
	if !havePrev {
		return false
	}
	switch e.Kind {
	case trace.KindAwaitE:
		return prev.Kind == trace.KindAwaitB
	case trace.KindLockAcq:
		return prev.Kind == trace.KindLockReq
	}
	return false
}

func refWaitThreshold(cal instr.Calibration) trace.Time {
	tol := cal.SNoWait / 8
	if tol < 1 {
		tol = 1
	}
	return cal.SNoWait + tol
}

func refTimeline(t *trace.Trace, cal instr.Calibration) ([][]metrics.Interval, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	perProc := t.ByProc()
	out := make([][]metrics.Interval, t.Procs)

	// forks[p][k] is the time of the latest loop-begin on another
	// processor between processor p's events k-1 and k in trace order (the
	// engine's fork edge), or 0, also for a barrier release, which its
	// arrivals time.
	forks := make([][]trace.Time, t.Procs)
	last := make([]int, t.Procs)
	for p := range last {
		last[p] = -1
	}
	var fences []int
	for i, e := range t.Events {
		var at trace.Time
		for k := len(fences) - 1; k >= 0 && fences[k] > last[e.Proc] && e.Kind != trace.KindBarrierRelease; k-- {
			if f := t.Events[fences[k]]; f.Proc != e.Proc {
				at = f.Time
				break
			}
		}
		forks[e.Proc] = append(forks[e.Proc], at)
		last[e.Proc] = i
		if e.Kind == trace.KindLoopBegin {
			fences = append(fences, i)
		}
	}

	for p, evs := range perProc {
		if len(evs) == 0 {
			continue
		}
		var pos trace.Time
		var ivs []metrics.Interval
		add := func(end trace.Time, waiting bool) {
			if end < pos {
				end = pos
			}
			if end == pos {
				return
			}
			if n := len(ivs); n > 0 && ivs[n-1].Waiting == waiting && ivs[n-1].End == pos {
				ivs[n-1].End = end
				pos = end
				return
			}
			ivs = append(ivs, metrics.Interval{Start: pos, End: end, Waiting: waiting})
			pos = end
		}
		var prev trace.Event
		havePrev := false
		for k, e := range evs {
			pos = max(pos, forks[p][k])
			switch {
			case refWaitEnd(e, prev, havePrev):
				span := e.Time - prev.Time
				if span > refWaitThreshold(cal) {
					busyTail := cal.SWait
					if busyTail > span {
						busyTail = span
					}
					add(e.Time-busyTail, true)
					add(e.Time, false)
				} else {
					add(e.Time, false)
				}
			case e.Kind == trace.KindBarrierRelease:
				rel := cal.Barrier
				if e.Time-pos < rel {
					rel = e.Time - pos
				}
				add(e.Time-rel, true)
				add(e.Time, false)
			default:
				add(e.Time, false)
			}
			prev, havePrev = e, true
		}
		out[p] = ivs
	}
	return out, nil
}

func refWaiting(t *trace.Trace, cal instr.Calibration) ([]metrics.ProcWaiting, error) {
	tl, err := refTimeline(t, cal)
	if err != nil {
		return nil, err
	}
	out := make([]metrics.ProcWaiting, t.Procs)
	for p := range out {
		out[p].Proc = p
	}
	perProc := t.ByProc()
	for p, evs := range perProc {
		var prev trace.Event
		havePrev := false
		for _, e := range evs {
			switch {
			case refWaitEnd(e, prev, havePrev):
				span := e.Time - prev.Time
				if span > refWaitThreshold(cal) {
					out[p].Await += span - cal.SWait
				}
			case e.Kind == trace.KindBarrierRelease && havePrev:
				span := e.Time - prev.Time
				if span > cal.Barrier {
					out[p].Barrier += span - cal.Barrier
				}
			}
			prev, havePrev = e, true
		}
	}
	for p, ivs := range tl {
		for _, iv := range ivs {
			if !iv.Waiting {
				out[p].Busy += iv.Dur()
			}
		}
	}
	return out, nil
}

func refParallelism(t *trace.Trace, cal instr.Calibration) (*metrics.Profile, error) {
	tl, err := refTimeline(t, cal)
	if err != nil {
		return nil, err
	}
	type edge struct {
		at    trace.Time
		delta int
	}
	var edges []edge
	var end trace.Time
	for _, ivs := range tl {
		for _, iv := range ivs {
			if !iv.Waiting {
				edges = append(edges, edge{iv.Start, +1}, edge{iv.End, -1})
			}
			if iv.End > end {
				end = iv.End
			}
		}
	}
	if len(edges) == 0 {
		return &metrics.Profile{}, nil
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	p := &metrics.Profile{}
	level := 0
	for i := 0; i < len(edges); {
		at := edges[i].at
		for i < len(edges) && edges[i].at == at {
			level += edges[i].delta
			i++
		}
		if n := len(p.Level); n > 0 && p.Level[n-1] == level {
			continue
		}
		p.Times = append(p.Times, at)
		p.Level = append(p.Level, level)
	}
	if n := len(p.Times); n == 0 || p.Times[n-1] != end {
		p.Times = append(p.Times, end)
		p.Level = append(p.Level, 0)
	}
	return p, nil
}

// TestMatchesReference: Timeline, Waiting and Parallelism equal the
// per-processor references on the corpus and on random synthetic traces,
// whose awaits and barriers need not pair.
func TestMatchesReference(t *testing.T) {
	cases, err := testgen.Corpus("../../testdata/golden")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		cases = append(cases, testgen.Case{
			Name:  fmt.Sprintf("synthetic%d", i),
			Trace: testgen.Trace(r),
			Cal:   instr.Calibration{SNoWait: trace.Time(r.Intn(3000)), SWait: trace.Time(r.Intn(3000)), Barrier: trace.Time(r.Intn(3000))},
		})
	}
	for _, c := range cases {
		tl, err := metrics.Timeline(c.Trace, c.Cal)
		wantTL, wantErr := refTimeline(c.Trace, c.Cal)
		if err != nil || wantErr != nil || !reflect.DeepEqual(tl, wantTL) {
			t.Fatalf("%s: Timeline differs from the reference (errors %v, %v)", c.Name, err, wantErr)
		}
		ws, err := metrics.Waiting(c.Trace, c.Cal)
		wantWS, _ := refWaiting(c.Trace, c.Cal)
		if err != nil || !reflect.DeepEqual(ws, wantWS) {
			t.Fatalf("%s: Waiting = %v, reference %v (error %v)", c.Name, ws, wantWS, err)
		}
		prof, err := metrics.Parallelism(c.Trace, c.Cal)
		wantProf, _ := refParallelism(c.Trace, c.Cal)
		if err != nil || !reflect.DeepEqual(prof, wantProf) {
			t.Fatalf("%s: Parallelism differs from the reference (error %v)", c.Name, err)
		}
	}
}
