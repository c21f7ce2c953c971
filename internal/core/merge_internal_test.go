package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"perturb/internal/trace"
)

// mergeLog builds a retained log of events in arrival order, in chunks of
// 1<<bits events, with their approximated times.
func mergeLog(events []trace.Event, ta []trace.Time, bits uint) *eventLog {
	l := &eventLog{bits: bits}
	for i, e := range events {
		l.add(e)
		*l.time(i) = ta[i]
	}
	return l
}

// merged collects what mergeRuns yields.
func merged(l *eventLog, procs int) []trace.Event {
	var out []trace.Event
	mergeRuns(l, procs, func(e trace.Event) bool {
		out = append(out, e)
		return true
	})
	return out
}

// sortedTwin is what mergeRuns must yield: the events re-timed with ta
// and put through Trace.Sort.
func sortedTwin(events []trace.Event, ta []trace.Time, procs int) []trace.Event {
	t := trace.New(procs)
	for i, e := range events {
		e.Time = ta[i]
		t.Append(e)
	}
	t.Sort()
	return t.Events
}

// mergeCase generates the arrival order and approximated times of a log
// on procs processors. clock advances a processor's time.
func mergeCase(r *rand.Rand, procs, n int, clock func(r *rand.Rand, t trace.Time) trace.Time) ([]trace.Event, []trace.Time) {
	now := make([]trace.Time, procs)
	events := make([]trace.Event, n)
	ta := make([]trace.Time, n)
	for i := range events {
		p := r.Intn(procs)
		now[p] = clock(r, now[p])
		events[i] = trace.Event{Time: trace.Time(i), Proc: p, Stmt: r.Intn(6) - 1, Kind: trace.KindCompute, Iter: i, Var: trace.NoVar}
		ta[i] = now[p]
	}
	return events, ta
}

// The time patterns of the random logs: how a processor's clock moves
// from one of its events to the next.
func monotoneWithTies(r *rand.Rand, t trace.Time) trace.Time {
	return t + []trace.Time{0, 0, 0, 1, 2, 5}[r.Intn(6)]
}

func allEqual(*rand.Rand, trace.Time) trace.Time { return 7 }

func arbitrary(r *rand.Rand, _ trace.Time) trace.Time { return trace.Time(r.Intn(20)) }

func monotoneWithRareDescents(r *rand.Rand, t trace.Time) trace.Time {
	if r.Intn(50) == 0 {
		return t - trace.Time(r.Intn(4))
	}
	return t + trace.Time(r.Intn(3))
}

// TestMergeRunsMatchesSort: the run merge puts every log in exactly the
// order Trace.Sort's stable sort gives the re-timed events, whatever the
// processors' time patterns and wherever the log's chunks break the runs.
func TestMergeRunsMatchesSort(t *testing.T) {
	check := func(label string, events []trace.Event, ta []trace.Time, procs int, bits uint) {
		t.Helper()
		got := merged(mergeLog(events, ta, bits), procs)
		var kept []trace.Event
		var keptTA []trace.Time
		for i, e := range events {
			if e.Proc < procs {
				kept, keptTA = append(kept, e), append(keptTA, ta[i])
			}
		}
		if want := sortedTwin(kept, keptTA, procs); len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: merged order differs from Trace.Sort's\ngot  %v\nwant %v", label, got, want)
		}
	}
	r := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name  string
		clock func(*rand.Rand, trace.Time) trace.Time
	}{
		{"monotone with ties", monotoneWithTies},
		{"all equal", allEqual},
		{"arbitrary", arbitrary},
		{"monotone with rare descents", monotoneWithRareDescents},
	} {
		for k := 0; k < 750; k++ {
			procs, bits := 1+r.Intn(20), uint(1+r.Intn(6))
			events, ta := mergeCase(r, procs, r.Intn(400), c.clock)
			check(fmt.Sprintf("%s #%d (%d procs, chunk bits %d)", c.name, k, procs, bits), events, ta, procs, bits)
		}
	}

	// A time descent: the third event is timed before the second, as when
	// its basis is another processor's fence, so the run is stable-sorted.
	ev := func(p, stmt int) trace.Event {
		return trace.Event{Proc: p, Stmt: stmt, Kind: trace.KindCompute, Var: trace.NoVar}
	}
	check("time descent", []trace.Event{ev(0, 1), ev(0, 2), ev(0, 3), ev(0, 0), ev(1, 0)},
		[]trace.Time{5, 9, 4, 9, 4}, 2, 1)

	// Both processors' first event has the largest statement of their
	// equal-time group, so every later one needs a splice. Processor 0's
	// group outgrows spliceCap; processor 1's stays under it.
	var over []trace.Event
	var overTA []trace.Time
	for k := 0; k < 2*spliceCap; k++ {
		over = append(over, ev(0, (k+2*spliceCap-1)%(2*spliceCap)))
		overTA = append(overTA, 3)
		if k < spliceCap/2 {
			over = append(over, ev(1, (k+spliceCap/2-1)%(spliceCap/2)))
			overTA = append(overTA, 3)
		}
	}
	check("group over the cap", over, overTA, 2, 4)

	events, ta := mergeCase(r, 3, 200, monotoneWithTies)
	for i := range events {
		events[i].Proc = 2 * events[i].Proc // processors 1 and 3 have no events
	}
	check("empty processors", events, ta, 6, 3)

	events, ta = mergeCase(r, 100, 5000, monotoneWithRareDescents)
	check("100 processors", events, ta, 100, 6)

	// A liberal analysis's warm-up processor is the last one, and the
	// merge leaves it out.
	events, ta = mergeCase(r, 4, 300, monotoneWithTies)
	check("processor past procs", events, ta, 3, 5)
}

// TestMergeRunsScale: linking costs at most O(spliceCap) per event, and a
// processor whose equal-time group outgrows the cap costs one stable sort,
// not a walk per event. Each log must merge in about the time of its
// sorted twin, the same events with every group already in statement
// order, and in the same order.
func TestMergeRunsScale(t *testing.T) {
	const procs, n = 8, 400_000
	// groups builds groups of size events per processor, each group's
	// statements in the order stmts gives, and its twin with them
	// ascending.
	groups := func(size int, stmts func(k int) int) (hard, easy []trace.Event, ta []trace.Time) {
		for i := 0; i < n; i++ {
			p, k := i%procs, i/procs
			hard = append(hard, trace.Event{Proc: p, Stmt: stmts(k % size), Kind: trace.KindCompute, Var: trace.NoVar})
			easy = append(easy, trace.Event{Proc: p, Stmt: k % size, Kind: trace.KindCompute, Var: trace.NoVar})
			ta = append(ta, trace.Time(k/size))
		}
		return hard, easy, ta
	}
	run := func(events []trace.Event, ta []trace.Time) ([]trace.Event, time.Duration) {
		l := mergeLog(events, ta, logChunkBits)
		start := time.Now()
		out := merged(l, procs)
		return out, time.Since(start)
	}
	check := func(label string, hard, easy []trace.Event, ta []trace.Time) {
		t.Helper()
		got, hardTime := run(hard, ta)
		_, easyTime := run(easy, ta)
		if want := sortedTwin(hard, ta, procs); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: merged order differs from Trace.Sort's", label)
		}
		if hardTime > 20*easyTime+time.Second {
			t.Errorf("%s: took %v, the sorted twin %v", label, hardTime, easyTime)
		}
	}
	size := spliceCap - 1
	hard, easy, ta := groups(size, func(k int) int { return size - 1 - k })
	check("under-cap groups, statements descending", hard, easy, ta)
	// The first event has the largest statement, so every later one walks
	// the whole group to its place before it.
	hard, easy, ta = groups(size, func(k int) int { return (k + size - 1) % size })
	check("under-cap groups, each splice walking the group", hard, easy, ta)
	hard, easy, ta = groups(n/procs, func(k int) int { return (k + n/procs - 1) % (n / procs) })
	check("one over-cap group per processor", hard, easy, ta)
}
