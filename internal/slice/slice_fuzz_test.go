package slice

import (
	"testing"

	"perturb/internal/trace"
)

// FuzzSliceParseQuery checks the CLI query parser on arbitrary specs: it
// never panics, and a parsed query's String is a fixed point of parsing
// that selects the same events. String sorts the id lists, so a literal
// round trip is not the property: "procs=0,0 stmts=2,0" comes back as
// "procs=0,0 stmts=0,2".
func FuzzSliceParseQuery(f *testing.F) {
	for _, seed := range []string{
		"",
		"procs=1,3 stmts=5,17 kinds=awaitE,advance window=1000:2500",
		"procs=0,0 stmts=2,0",
		"kinds=barrier-arrive,lock-acq,compute",
		"window=-5:5",
		"window=5:1",
		"window=1:2:3",
		"procs=+1",
		"stmts=",
		"kinds=bogus",
		"nosuch=1",
		"procs",
		"\tprocs=2\t\twindow=0:0 ",
	} {
		f.Add(seed)
	}
	var tr trace.Trace
	for i := 0; i < 24; i++ {
		tr.Events = append(tr.Events, trace.Event{
			Time: trace.Time(100 * i), Proc: i % 4, Stmt: i % 5, Kind: trace.Kind(i % 11), Iter: i, Var: i % 2,
		})
	}
	f.Fuzz(func(t *testing.T, spec string) {
		q, err := ParseQuery(spec)
		if err != nil {
			return
		}
		s := q.String()
		q2, err := ParseQuery(s)
		if err != nil {
			t.Fatalf("%q: String() = %q does not parse: %v", spec, s, err)
		}
		if s2 := q2.String(); s2 != s {
			t.Fatalf("%q: String() = %q reparses to %q", spec, s, s2)
		}
		for _, e := range tr.Events {
			if q.Match(e) != q2.Match(e) || compile(&q).match(&e) != compile(&q2).match(&e) {
				t.Fatalf("%q: %q and its String %q disagree on %v", spec, spec, s, e)
			}
		}
	})
}
