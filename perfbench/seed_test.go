package main

import (
	"bytes"
	"fmt"
	"testing"
)

// serviceInputs renders everything service-mix sends for a seed: every
// planned request's body and query, in plan order.
func serviceInputs(t *testing.T, seed uint64) []byte {
	t.Helper()
	pool, err := servicePool(seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for i, p := range planRequests(seed, 3, pool, 2000) {
		req := p.request(i)
		b.Write(p.up.data)
		b.WriteString(p.up.codec)
		for _, v := range []any{*req.Cal, req.Mode, req.Repair, p.repeat} {
			b.WriteString("|")
			b.WriteString(fmt.Sprint(v))
		}
	}
	return b.Bytes()
}

func streamInputs(t *testing.T, seed uint64) []byte {
	t.Helper()
	in, err := newStreamInput(seed)
	if err != nil {
		t.Fatal(err)
	}
	return append(in.body, fmt.Sprint(in.window)...)
}

// TestSeedDeterminesInputs: the same seed gives byte-identical
// service-mix and stream-live inputs, another seed different ones.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range []struct {
		name   string
		inputs func(*testing.T, uint64) []byte
	}{{"service-mix", serviceInputs}, {"stream-live", streamInputs}} {
		a, b, c := w.inputs(t, 11), w.inputs(t, 11), w.inputs(t, 12)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 11 gave different inputs on two runs", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 11 and 12 gave identical inputs", w.name)
		}
	}
}

// TestPlanShape checks the service-mix mix the workload promises: about
// 30% repeats, and cold requests about 10% mode=time and 10% repair=1,
// every cold request a combination no earlier request carried.
func TestPlanShape(t *testing.T) {
	pool, err := servicePool(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan := planRequests(3, 3, pool, 20000)
	type combo struct {
		up      *upload
		variant int
		timed   bool
		repair  bool
	}
	seen := map[combo]bool{}
	var repeats, cold, timed, repair int
	for i, p := range plan {
		if p.repeat >= 0 {
			repeats++
			o := plan[p.repeat]
			if p.repeat >= i-repeatMinLag+1 || o.up != p.up || o.variant != p.variant || o.mode != p.mode || o.repair != p.repair {
				t.Fatalf("request %d is not a faithful repeat of %d", i, p.repeat)
			}
			continue
		}
		cold++
		k := combo{p.up, p.variant, p.mode != 0, p.repair}
		if seen[k] {
			t.Fatalf("cold request %d repeats an earlier combination", i)
		}
		seen[k] = true
		if p.repair {
			repair++
			if !p.up.damaged {
				t.Fatalf("repair request %d uploads an undamaged trace", i)
			}
		}
		if p.mode != 0 {
			timed++
		}
	}
	share := func(n, of int) float64 { return float64(n) / float64(of) }
	if s := share(repeats, len(plan)); s < 0.28 || s > 0.32 {
		t.Errorf("repeat share %.3f, want about 0.30", s)
	}
	if s := share(timed, cold); s < 0.08 || s > 0.12 {
		t.Errorf("mode=time share of cold requests %.3f, want about 0.10", s)
	}
	if s := share(repair, cold); s < 0.08 || s > 0.12 {
		t.Errorf("repair share of cold requests %.3f, want about 0.10", s)
	}
}
