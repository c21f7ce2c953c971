package obs

import (
	"sync"
	"testing"
)

// Spans the recorder tests record under.
var (
	spDecode  = NewSpan("test.rec.decode")
	spAnalyze = NewSpan("test.rec.analyze")
	spQueue   = NewSpan("test.rec.queue")
	spDrain   = NewSpan("test.rec.drain")
	spP       = NewSpan("test.rec.p")
	spQ       = NewSpan("test.rec.q")
)

func TestRecorderPhasesWaitsAndDrain(t *testing.T) {
	r := NewRecorder(64)
	sc := r.Begin()
	sc.Phase(spDecode)
	w := sc.Wait(spQueue)
	w.End()
	sc.Phase(spAnalyze)
	sc.End()
	d := r.Drain(spDrain)
	d.End()

	recs := r.Records()
	// begin mark, wait, decode phase (closed by Phase), analyze phase
	// (closed by End), drain. The wait lands before the decode close
	// because the phase stays open across it.
	kinds := make([]int, len(recs))
	for i, rec := range recs {
		kinds[i] = rec.Kind
	}
	want := []int{RecMark, RecWait, RecPhase, RecPhase, RecDrain}
	if len(kinds) != len(want) {
		t.Fatalf("got %d records (%v), want %d", len(kinds), kinds, len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("record %d kind = %d, want %d (all: %v)", i, kinds[i], want[i], kinds)
		}
	}

	stmts := r.StmtNames()
	if len(stmts) != 3 || stmts[0] != "idle" || stmts[1] != "test.rec.decode" || stmts[2] != "test.rec.analyze" {
		t.Fatalf("stmt table = %v", stmts)
	}
	if vars := r.VarNames(); len(vars) != 1 || vars[0] != "test.rec.queue" {
		t.Fatalf("var table = %v", vars)
	}

	// Every record's interval is well-formed and the scope's records are
	// on one processor.
	for i, rec := range recs {
		if rec.End < rec.Start {
			t.Errorf("record %d: End %d < Start %d", i, rec.End, rec.Start)
		}
		if rec.Kind != RecDrain && rec.Proc != 0 {
			t.Errorf("record %d: proc = %d, want 0", i, rec.Proc)
		}
	}
	// The decode phase closes exactly where analyze opens.
	if recs[2].Stmt != 1 || recs[3].Stmt != 2 {
		t.Fatalf("phase stmts = %d, %d, want decode=1, analyze=2", recs[2].Stmt, recs[3].Stmt)
	}
	if recs[2].End >= recs[3].End || recs[2].End > recs[3].Start {
		t.Fatalf("phases out of order: decode [%d,%d], analyze [%d,%d]",
			recs[2].Start, recs[2].End, recs[3].Start, recs[3].End)
	}
}

func TestRecorderProcReuse(t *testing.T) {
	r := NewRecorder(64)

	// Sequential scopes reuse the same slot.
	for i := 0; i < 3; i++ {
		sc := r.Begin()
		sc.Phase(spP)
		sc.End()
	}
	if got := r.Procs(); got != 1 {
		t.Fatalf("sequential scopes used %d procs, want 1", got)
	}

	// Overlapping scopes get distinct slots, and the peak tracks the
	// overlap.
	a, b := r.Begin(), r.Begin()
	if a.proc == b.proc {
		t.Fatalf("concurrent scopes share proc %d", a.proc)
	}
	a.End()
	c := r.Begin() // reuses a's slot
	if c.proc != a.proc {
		t.Fatalf("released slot not reused: got %d, want %d", c.proc, a.proc)
	}
	b.End()
	c.End()
	if got := r.Procs(); got != 2 {
		t.Fatalf("Procs() = %d, want 2", got)
	}
	if got := r.ProcPeak(); got != 2 {
		t.Fatalf("ProcPeak() = %d, want 2", got)
	}
}

func TestRecorderRingOverrun(t *testing.T) {
	r := NewRecorder(4)
	sc := r.Begin() // 1 record (begin mark)
	for i := 0; i < 9; i++ {
		sc.Phase(spP) // closes previous phase from the second call on
	}
	sc.End() // closes the last phase
	// Records: 1 mark + 8 phase closes from Phase + 1 from End = 10.
	if got := r.Dropped(); got != 6 {
		t.Fatalf("Dropped() = %d, want 6", got)
	}
	recs := r.Records()
	if len(recs) != 4 {
		t.Fatalf("Records() kept %d, want ring capacity 4", len(recs))
	}
	// Oldest-first: strictly the last four records, each complete.
	for i := 1; i < len(recs); i++ {
		if recs[i].End < recs[i-1].End {
			t.Fatalf("records out of order: %v", recs)
		}
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	if r.Dropped() != 0 || r.Procs() != 0 || r.ProcPeak() != 0 {
		t.Fatal("nil recorder reported non-zero stats")
	}
	if r.Records() != nil || r.StmtNames() != nil || r.VarNames() != nil {
		t.Fatal("nil recorder returned non-nil tables")
	}
	sc := r.Begin()
	sc.Phase(spP)
	w := sc.Wait(spQ)
	w.End()
	sc.End()
	d := r.Drain(spDrain)
	d.End()
	// And the zero scope directly.
	var zero Scope
	zero.Phase(spP)
	zero.End()
}

func TestRecorderScopeTimesStrictlyIncrease(t *testing.T) {
	r := NewRecorder(1024)
	sc := r.Begin()
	for i := 0; i < 100; i++ {
		sc.Phase(spP)
		w := sc.Wait(spQ)
		w.End()
	}
	sc.End()
	var last int64 = -1
	for i, rec := range r.Records() {
		if rec.Kind == RecMark {
			continue
		}
		if rec.End <= rec.Start && rec.Kind == RecPhase && rec.Start != rec.End {
			t.Fatalf("record %d: backwards interval [%d,%d]", i, rec.Start, rec.End)
		}
		if rec.End <= last && rec.Kind == RecPhase {
			t.Fatalf("record %d: phase end %d not after previous %d", i, rec.End, last)
		}
		if rec.Kind == RecPhase {
			last = rec.End
		}
	}
}

func TestRecorderConcurrentScopes(t *testing.T) {
	const workers, perWorker = 8, 200
	r := NewRecorder(workers * perWorker * 4)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sc := r.Begin()
				sc.Phase(spP)
				w := sc.Wait(spQ)
				w.End()
				sc.End()
			}
		}()
	}
	// Concurrent snapshots must never observe a torn record.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			for _, rec := range r.Records() {
				if rec.Kind < RecPhase || rec.Kind > RecDrain {
					t.Errorf("torn record: kind %d", rec.Kind)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done

	if r.Dropped() != 0 {
		t.Fatalf("unexpected drops: %d", r.Dropped())
	}
	// mark + phase + wait per request.
	want := workers * perWorker * 3
	if got := len(r.Records()); got != want {
		t.Fatalf("got %d records, want %d", got, want)
	}
	if peak := r.ProcPeak(); peak < 1 || peak > workers {
		t.Fatalf("ProcPeak() = %d, want within [1,%d]", peak, workers)
	}
}
