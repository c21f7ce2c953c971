package order_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"perturb/internal/order"
	"perturb/internal/testgen"
	"perturb/internal/trace"
)

// corpus returns the shared derived-statistics corpus plus random
// synthetic traces, whose awaits, locks and barriers need not pair, and
// the cyclic trace of TestCriticalPathCycle, whose binding predecessors
// form a cycle.
func corpus(t *testing.T) []testgen.Case {
	t.Helper()
	cases, err := testgen.Corpus("../../testdata/golden")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		cases = append(cases, testgen.Case{Name: fmt.Sprintf("synthetic%d", i), Trace: testgen.Trace(r)})
	}
	return append(cases, testgen.Case{Name: "cyclic", Trace: cyclicTrace(t)})
}

// cyclicTrace returns a valid, feasible trace without a critical path:
// each processor's awaitE is released by the other processor's advance,
// timed together, so the binding predecessors form a cycle.
func cyclicTrace(t testing.TB) *trace.Trace {
	t.Helper()
	tr, err := trace.ReadText(strings.NewReader(`# perturb-trace v1 procs=2
4 p0 s1 awaitB i0 v0
4 p1 s1 awaitB i0 v1
5 p0 s1 awaitE i0 v0
5 p0 s2 advance i0 v1
5 p1 s1 awaitE i0 v1
5 p1 s2 advance i0 v0
`))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestCriticalPathMatchesReference: on every trace the reference walk
// ends on, CriticalPath returns the identical path; where the reference
// walk cycles forever, CriticalPath reports the cycle.
func TestCriticalPathMatchesReference(t *testing.T) {
	cyclic := 0
	for _, c := range corpus(t) {
		got, err := order.CriticalPath(c.Trace)
		want, loops, wantErr := refCriticalPath(c.Trace)
		switch {
		case wantErr != nil:
			t.Fatalf("%s: reference failed: %v", c.Name, wantErr)
		case loops:
			cyclic++
			if !errors.Is(err, trace.ErrMalformedTrace) {
				t.Fatalf("%s: cyclic trace gave %v, want an ErrMalformedTrace", c.Name, err)
			}
		case err != nil:
			t.Fatalf("%s: %v", c.Name, err)
		case !reflect.DeepEqual(got, want):
			t.Fatalf("%s: critical path differs from the reference:\n got %v\nwant %v", c.Name, got, want)
		}
	}
	if cyclic == 0 {
		t.Error("no corpus trace has a dependence cycle; the cycle check went untested")
	}
}

// TestCheckMatchesReference: Check returns the reference's first
// violation, or nil, for every trace against itself and against a copy
// with jittered times.
func TestCheckMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	violations := 0
	for _, c := range corpus(t) {
		rel, err := order.Build(c.Trace)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		ref, _ := refBuild(c.Trace)
		jittered := c.Trace.Clone()
		for i := range jittered.Events {
			if r.Intn(20) == 0 {
				jittered.Events[i].Time += trace.Time(r.Intn(6000) - 3000)
			}
		}
		for _, cand := range []*trace.Trace{c.Trace, jittered} {
			got, want := rel.Check(cand), ref.check(cand)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Check = %v, reference %v", c.Name, got, want)
			}
			if got != nil {
				violations++
			}
		}
	}
	if violations == 0 {
		t.Error("no candidate violated its relation; the comparison is vacuous")
	}
}

// TestEngineViewMatchesReference: Basis, Dep and Arrivals give the
// edges the event-based engine resolves over, as the reference builds
// them.
func TestEngineViewMatchesReference(t *testing.T) {
	for _, c := range corpus(t) {
		rel, err := order.Build(c.Trace)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		basis, dep, parts := refEdges(c.Trace)
		for i, e := range c.Trace.Events {
			if got := rel.Basis(i); got != basis[i] {
				t.Fatalf("%s: event %d: Basis = %d, reference %d", c.Name, i, got, basis[i])
			}
			if got := rel.Dep(i); got != dep[i] {
				t.Fatalf("%s: event %d: Dep = %d, reference %d", c.Name, i, got, dep[i])
			}
			var arr []int
			for _, a := range rel.Arrivals(i) {
				arr = append(arr, int(a))
			}
			if want := parts[i]; e.Kind == trace.KindBarrierRelease && !reflect.DeepEqual(arr, want) ||
				e.Kind != trace.KindBarrierRelease && arr != nil {
				t.Fatalf("%s: event %d: Arrivals = %v, reference %v", c.Name, i, arr, want)
			}
		}
	}
}

// TestCriticalPathCycle: the cyclic trace is valid and feasible, but has
// no critical path.
func TestCriticalPathCycle(t *testing.T) {
	tr := cyclicTrace(t)
	if err := order.CheckSelf(tr); err != nil {
		t.Fatalf("the cyclic trace is feasible: %v", err)
	}
	_, err := order.CriticalPath(tr)
	if !errors.Is(err, trace.ErrMalformedTrace) || !strings.Contains(err.Error(), "advance") {
		t.Fatalf("CriticalPath = %v, want an ErrMalformedTrace naming the revisited event", err)
	}
}
