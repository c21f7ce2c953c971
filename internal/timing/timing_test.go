package timing

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// fakeClock is a clock the sides advance by hand, so a test decides
// every ratio the harness sees.
type fakeClock struct{ t reading }

func (c *fakeClock) now() reading { return c.t }

// side returns work that advances both clocks of c by cost(call), where
// call counts the side's calls from zero, and records its name in order.
func (c *fakeClock) side(name string, order *[]string, cost func(call int) time.Duration) func() error {
	calls := 0
	return func() error {
		d := cost(calls)
		calls++
		c.t.wall += d
		c.t.cpu += d
		*order = append(*order, name)
		return nil
	}
}

func constant(d time.Duration) func(int) time.Duration { return func(int) time.Duration { return d } }

func TestSidesAlternateFirst(t *testing.T) {
	var c fakeClock
	var order []string
	// Equal sides that spend the budget in exactly minRounds rounds.
	cost := constant(budget / (2 * minRounds))
	res, err := compare(c.side("a", &order, cost), c.side("b", &order, cost), 2, c.now)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != minRounds || len(order) != 2*res.Rounds {
		t.Fatalf("%d rounds, %d calls; want %d rounds of two calls", res.Rounds, len(order), minRounds)
	}
	for r := 0; r < res.Rounds; r++ {
		want := [2]string{"a", "b"}
		if r%2 == 1 {
			want = [2]string{"b", "a"}
		}
		if got := [2]string{order[2*r], order[2*r+1]}; got != want {
			t.Errorf("round %d ran %v, want %v", r, got, want)
		}
	}
	if want := (Ratio{1, 1, 1}); res.Wall != want || res.CPU != want {
		t.Errorf("equal sides: wall %+v, cpu %+v, want %+v", res.Wall, res.CPU, want)
	}
}

func TestCollectsBeforeEveryTimedCall(t *testing.T) {
	var c fakeClock
	var gcs []uint32
	counted := func(f func() error) func() error {
		return func() error {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			gcs = append(gcs, ms.NumGC)
			return f()
		}
	}
	var names []string
	a := counted(c.side("a", &names, constant(budget/10)))
	b := counted(c.side("b", &names, constant(budget/10)))
	if _, err := compare(a, b, 2, c.now); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(gcs); i++ {
		if gcs[i] <= gcs[i-1] {
			t.Errorf("call %d saw NumGC %d after call %d saw %d: no collection between them", i, gcs[i], i-1, gcs[i-1])
		}
	}
}

func TestSummarize(t *testing.T) {
	for _, tc := range []struct {
		rs   []float64
		want Ratio
	}{
		{[]float64{7}, Ratio{7, 7, 7}},
		{[]float64{4, 1, 3, 2, 5}, Ratio{Median: 3, Q1: 2, Q3: 4}},
		{[]float64{4, 3, 2, 1}, Ratio{Median: 2.5, Q1: 1.75, Q3: 3.25}},
		{[]float64{1.10, 0.90, 1.00, 1.30, 0.95, 1.05, 1.20, 0.80, 1.02}, Ratio{Median: 1.02, Q1: 0.95, Q3: 1.10}},
	} {
		if got := summarize(tc.rs); got != tc.want {
			t.Errorf("summarize(%v) = %+v, want %+v", tc.rs, got, tc.want)
		}
	}
	if r := (Ratio{Median: 1, Q1: 0.9, Q3: 1.1}); !r.Straddles(1.03) || r.Straddles(0.9) || r.Straddles(1.2) {
		t.Errorf("%+v: Straddles wrong about 1.03, 0.9 or 1.2", r)
	}
}

// TestUnresolvedPoolsRounds: a bar between the quartiles makes the
// harness add rounds to the sample it has, not start a new one, until
// pooling has spent maxSpent; a resolved sample stops at the budget.
func TestUnresolvedPoolsRounds(t *testing.T) {
	// a costs u and 4u in turn against b's 2u: per-round ratios 0.5, 2,
	// 0.5, ... whose quartiles always straddle 1.
	u := budget / 30
	var c fakeClock
	var order []string
	aCost := func(call int) time.Duration {
		if call%2 == 0 {
			return u
		}
		return 4 * u
	}
	res, err := compare(c.side("a", &order, aCost), c.side("b", &order, constant(2*u)), 1, c.now)
	if err != nil {
		t.Fatal(err)
	}
	rounds, spent := 0, time.Duration(0)
	for ; spent < maxSpent; rounds++ {
		spent += aCost(rounds) + 2*u
	}
	if res.Rounds != rounds || len(order) != 2*res.Rounds {
		t.Fatalf("%d rounds from %d calls, want %d rounds and every call in the sample", res.Rounds, len(order), rounds)
	}
	want := make([]float64, res.Rounds)
	for r := range want {
		want[r] = float64(aCost(r)) / float64(2*u)
	}
	if s := summarize(want); res.Wall != s || res.CPU != s {
		t.Errorf("pooled sample: wall %+v, cpu %+v, want %+v over all %d rounds", res.Wall, res.CPU, s, res.Rounds)
	}
	if !res.Wall.Straddles(1) {
		t.Errorf("wall %+v resolved the bar 1; the test needs it unresolved", res.Wall)
	}

	// The same sides against a bar above the quartiles stop as soon as
	// the budget is spent.
	c, order = fakeClock{}, nil
	res, err = compare(c.side("a", &order, aCost), c.side("b", &order, constant(2*u)), 3, c.now)
	if err != nil {
		t.Fatal(err)
	}
	rounds, spent = 0, 0
	for ; rounds < minRounds || spent < budget; rounds++ {
		spent += aCost(rounds) + 2*u
	}
	if res.Rounds != rounds {
		t.Errorf("resolved comparison ran %d rounds, want %d", res.Rounds, rounds)
	}
}

func TestSideErrorEndsComparison(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	ok := func() error { calls++; return nil }
	_, err := Compare(ok, func() error { return boom }, 2)
	if !errors.Is(err, boom) || calls != 1 {
		t.Errorf("Compare = %v after %d calls of the good side, want boom after 1", err, calls)
	}
}

func TestCPUClockAdvancesWithWork(t *testing.T) {
	start, deadline := cpuTime(), time.Now().Add(5*time.Second)
	for cpuTime()-start < 10*time.Millisecond {
		if time.Now().After(deadline) {
			t.Fatalf("5 s of spinning advanced the CPU clock by only %v", cpuTime()-start)
		}
	}
}
