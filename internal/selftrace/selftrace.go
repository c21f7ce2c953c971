// Package selftrace exports perturbd's own execution — the spans its
// obs.Recorder collected while serving requests — as an event trace in
// the repository's trace model, closing the dogfooding loop: the
// analysis service becomes a subject program its own pipeline can
// analyze.
//
// The mapping follows the paper's event vocabulary:
//
//   - a completed request phase (admission, decode, cache lookup,
//     analyze, encode) becomes a compute record on the request's
//     processor slot, timestamped at phase completion;
//   - a blocking wait (an admission-queue wait, a singleflight-coalesce
//     wait) becomes an awaitB/awaitE bracket on the waiting processor,
//     paired with a synthesized advance on a per-resource processor —
//     the queue and the flight table become "processors" whose advances
//     release the waiters, which is exactly how the event-based analysis
//     models dependency waiting;
//   - the shutdown drain becomes a barrier every request processor
//     arrives at and is released from.
//
// Structural cleanliness is by construction: one recorder record carries
// a whole bracket (or a whole phase), so a ring-buffer overrun drops
// brackets atomically and can never leave a dangling awaitB or an orphan
// awaitE. The exported trace always passes trace.Validate and audits
// clean (`tracecat -audit`).
package selftrace

import (
	"fmt"
	"io"
	"net/http"
	"os"

	"perturb/internal/obs"
	"perturb/internal/trace"
)

// Manifest names the integer ids of an exported self-trace: statement
// ids to request phases, synchronization variables to resource classes,
// processors to their roles.
type Manifest struct {
	// Stmts maps statement id to phase span name ("server.decode", ...,
	// and "idle" for the begin mark). Ids past the recorder's phase table
	// are the synthesized wait/advance/drain statements.
	Stmts []string `json:"stmts"`
	// Vars maps synchronization-variable id to resource class, the wait
	// span's name ("server.queue", "server.flight"), and "drain" for the
	// shutdown barrier.
	Vars []string `json:"vars"`
	// RequestProcs is how many processors carry request timelines:
	// processors [0, RequestProcs) are request slots, and processors
	// [RequestProcs, Procs) are the per-resource processors whose
	// advance events release waiters.
	RequestProcs int `json:"request_procs"`
	// ProcPeak is the largest number of simultaneously active request
	// scopes the recorder observed.
	ProcPeak int `json:"proc_peak"`
	// Events is the exported event count.
	Events int `json:"events"`
	// Dropped is how many records the recorder's ring overwrote before
	// export; each dropped record is a whole phase or bracket.
	Dropped int64 `json:"dropped"`
}

// Export converts the recorder's current contents into an event trace.
// The returned trace is sorted and passes trace.Validate; a nil or empty
// recorder exports an empty trace.
func Export(r *obs.Recorder) (*trace.Trace, *Manifest) {
	recs := r.Records()
	stmts := r.StmtNames()
	vars := r.VarNames()
	reqProcs := r.Procs()

	m := &Manifest{
		Stmts:        stmts,
		RequestProcs: reqProcs,
		ProcPeak:     r.ProcPeak(),
		Dropped:      r.Dropped(),
	}

	// Statement table layout: recorder phases first, then per-class wait
	// and advance statements, then the drain barrier statement.
	waitStmt := make([]int, len(vars))
	advStmt := make([]int, len(vars))
	for i, name := range vars {
		waitStmt[i] = len(m.Stmts)
		m.Stmts = append(m.Stmts, "wait:"+name)
	}
	for i, name := range vars {
		advStmt[i] = len(m.Stmts)
		m.Stmts = append(m.Stmts, "advance:"+name)
	}
	drainStmt := len(m.Stmts)
	m.Stmts = append(m.Stmts, "drain")

	// Variable table: resource classes first, then the drain barrier's
	// own variable. Each resource class also owns one processor, after
	// the request processors, that carries its advance events.
	m.Vars = append(m.Vars, vars...)
	drainVar := len(m.Vars)
	m.Vars = append(m.Vars, "drain")
	resourceProc := func(v int) int { return reqProcs + v }

	t := trace.New(reqProcs + len(vars))
	drains := 0
	for _, rec := range recs {
		switch rec.Kind {
		case obs.RecPhase, obs.RecMark:
			t.Append(trace.Event{
				Time: trace.Time(rec.End), Stmt: rec.Stmt, Proc: rec.Proc,
				Kind: trace.KindCompute, Iter: trace.NoIter, Var: trace.NoVar,
			})
		case obs.RecWait:
			// The bracket on the waiter plus the advance that releases
			// it, timed at the wait's end on the resource's processor:
			// the analysis sees a dependency wait it can re-time.
			t.Append(trace.Event{
				Time: trace.Time(rec.Start), Stmt: waitStmt[rec.Var], Proc: rec.Proc,
				Kind: trace.KindAwaitB, Iter: rec.Pair, Var: rec.Var,
			})
			t.Append(trace.Event{
				Time: trace.Time(rec.End), Stmt: waitStmt[rec.Var], Proc: rec.Proc,
				Kind: trace.KindAwaitE, Iter: rec.Pair, Var: rec.Var,
			})
			t.Append(trace.Event{
				Time: trace.Time(rec.End), Stmt: advStmt[rec.Var], Proc: resourceProc(rec.Var),
				Kind: trace.KindAdvance, Iter: rec.Pair, Var: rec.Var,
			})
		case obs.RecDrain:
			// Every processor — request slots and resource processors
			// alike — arrives at drain start and is released at drain end,
			// sharing one pairing key. The resource processors must
			// participate too: they carry advance events, so the audit's
			// truncated-tail detector would otherwise read their absence
			// from the barrier as a lost trace tail.
			for p := 0; p < reqProcs+len(vars); p++ {
				t.Append(trace.Event{
					Time: trace.Time(rec.Start), Stmt: drainStmt, Proc: p,
					Kind: trace.KindBarrierArrive, Iter: drains, Var: drainVar,
				})
				t.Append(trace.Event{
					Time: trace.Time(rec.End), Stmt: drainStmt, Proc: p,
					Kind: trace.KindBarrierRelease, Iter: drains, Var: drainVar,
				})
			}
			drains++
		}
	}
	t.Sort()
	m.Events = t.Len()
	return t, m
}

// WriteTo exports the recorder and writes the trace in the columnar
// codec.
func WriteTo(r *obs.Recorder, w io.Writer) error {
	t, _ := Export(r)
	return t.WriteColumnar(w)
}

// WriteFile exports the recorder to a columnar trace file.
func WriteFile(r *obs.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTo(r, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Handler serves the recorder's current contents as a columnar trace
// download: perturbd mounts it at /debug/selftrace, so
//
//	curl -s host:port/debug/selftrace > self.col
//	perturb -load self.col
//
// analyzes the live service without restarting it. With ?manifest=1 the
// response is instead the JSON manifest naming the trace's ids.
func Handler(r *obs.Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("manifest") != "" {
			_, m := Export(r)
			writeManifest(w, m)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", `attachment; filename="selftrace.col"`)
		if err := WriteTo(r, w); err != nil {
			// Headers are gone; nothing to do but drop the connection.
			return
		}
	})
}

// writeManifest renders the manifest as JSON with deterministically
// ordered fields (encoding/json already orders struct fields by
// declaration; the slices are positional).
func writeManifest(w http.ResponseWriter, m *Manifest) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\n  \"request_procs\": %d,\n  \"proc_peak\": %d,\n  \"events\": %d,\n  \"dropped\": %d,\n  \"stmts\": [", m.RequestProcs, m.ProcPeak, m.Events, m.Dropped)
	writeStrings(w, m.Stmts)
	fmt.Fprintf(w, "],\n  \"vars\": [")
	writeStrings(w, m.Vars)
	fmt.Fprintf(w, "]\n}\n")
}

func writeStrings(w io.Writer, ss []string) {
	for i, s := range ss {
		if i > 0 {
			io.WriteString(w, ", ")
		}
		fmt.Fprintf(w, "%q", s)
	}
}

// StmtID returns the statement id a phase name exports as, for tests and
// reports that look up specific phases in the analyzed profile.
func (m *Manifest) StmtID(name string) (int, bool) {
	for i, s := range m.Stmts {
		if s == name {
			return i, true
		}
	}
	return 0, false
}
