package selftrace

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"perturb/internal/obs"
	"perturb/internal/trace"
)

// Spans the scripted service records under.
var (
	spDecode  = obs.NewSpan("decode")
	spAnalyze = obs.NewSpan("analyze")
	spQueue   = obs.NewSpan("queue")
	spDrain   = obs.NewSpan("drain")
)

// script records a small but complete service life: two overlapping
// requests with phases and waits, then a drain.
func script(t *testing.T) *obs.Recorder {
	t.Helper()
	r := obs.NewRecorder(256)
	a := r.Begin()
	a.Phase(spDecode)
	b := r.Begin()
	b.Phase(spDecode)
	w := b.Wait(spQueue)
	a.Phase(spAnalyze)
	w.End()
	b.Phase(spAnalyze)
	a.End()
	b.End()
	d := r.Drain(spDrain)
	d.End()
	return r
}

func TestExportValidatesAndAuditsClean(t *testing.T) {
	st, m := Export(script(t))
	if err := st.Validate(); err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}
	if defects := trace.Audit(st); len(defects) != 0 {
		t.Fatalf("exported trace has %d audit defects: %v", len(defects), defects)
	}
	if m.Events != st.Len() {
		t.Fatalf("manifest events %d != trace len %d", m.Events, st.Len())
	}
	if m.RequestProcs != 2 {
		t.Fatalf("RequestProcs = %d, want 2", m.RequestProcs)
	}
	if m.ProcPeak != 2 {
		t.Fatalf("ProcPeak = %d, want 2", m.ProcPeak)
	}
	if st.Procs != m.RequestProcs+1 { // one resource proc for "queue"
		t.Fatalf("trace procs = %d, want %d", st.Procs, m.RequestProcs+1)
	}
}

func TestExportEventMapping(t *testing.T) {
	st, m := Export(script(t))

	byKind := map[trace.Kind]int{}
	for _, e := range st.Events {
		byKind[e.Kind]++
	}
	// Phases: per request one idle mark + decode + analyze = 3 computes.
	if byKind[trace.KindCompute] != 6 {
		t.Errorf("compute records = %d, want 6", byKind[trace.KindCompute])
	}
	if byKind[trace.KindAwaitB] != 1 || byKind[trace.KindAwaitE] != 1 || byKind[trace.KindAdvance] != 1 {
		t.Errorf("wait mapping = B:%d E:%d adv:%d, want 1 each",
			byKind[trace.KindAwaitB], byKind[trace.KindAwaitE], byKind[trace.KindAdvance])
	}
	// Drain barrier: arrive+release on every processor, resource included.
	if byKind[trace.KindBarrierArrive] != st.Procs || byKind[trace.KindBarrierRelease] != st.Procs {
		t.Errorf("barrier participation = arrive:%d release:%d, want %d each",
			byKind[trace.KindBarrierArrive], byKind[trace.KindBarrierRelease], st.Procs)
	}

	// The advance rides the resource processor and shares the await pair.
	var await, adv *trace.Event
	for i := range st.Events {
		e := &st.Events[i]
		switch e.Kind {
		case trace.KindAwaitE:
			await = e
		case trace.KindAdvance:
			adv = e
		}
	}
	if adv.Proc < m.RequestProcs {
		t.Errorf("advance on request proc %d, want resource proc >= %d", adv.Proc, m.RequestProcs)
	}
	if adv.Var != await.Var || adv.Iter != await.Iter {
		t.Errorf("advance pair (%d,%d) != await pair (%d,%d)", adv.Var, adv.Iter, await.Var, await.Iter)
	}
	if adv.Time != await.Time {
		t.Errorf("advance at %d, awaitE at %d; want release at wait end", adv.Time, await.Time)
	}

	// Names resolve through the manifest.
	if id, ok := m.StmtID("analyze"); !ok || m.Stmts[id] != "analyze" {
		t.Errorf("StmtID(analyze) = %d,%v", id, ok)
	}
	if id, ok := m.StmtID("wait:queue"); !ok {
		t.Errorf("StmtID(wait:queue) missing (stmts %v, id %d)", m.Stmts, id)
	}
	if _, ok := m.StmtID("no-such-phase"); ok {
		t.Error("StmtID invented an id for an unknown phase")
	}
}

func TestExportEmptyAndNil(t *testing.T) {
	for name, r := range map[string]*obs.Recorder{"nil": nil, "empty": obs.NewRecorder(8)} {
		st, m := Export(r)
		if err := st.Validate(); err != nil {
			t.Errorf("%s: invalid: %v", name, err)
		}
		if st.Len() != 0 || m.Events != 0 || m.RequestProcs != 0 {
			t.Errorf("%s: exported %d events, %d procs from nothing", name, st.Len(), m.RequestProcs)
		}
	}
}

func TestWriteToRoundTrips(t *testing.T) {
	r := script(t)
	var buf bytes.Buffer
	if err := WriteTo(r, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadColumnar(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("reading exported columnar trace: %v", err)
	}
	want, _ := Export(r)
	if got.Procs != want.Procs || got.Len() != want.Len() {
		t.Fatalf("round trip: %d procs/%d events, want %d/%d",
			got.Procs, got.Len(), want.Procs, want.Len())
	}
	for i := range want.Events {
		if got.Events[i] != want.Events[i] {
			t.Fatalf("event %d: %+v != %+v", i, got.Events[i], want.Events[i])
		}
	}
	if defects := trace.Audit(got); len(defects) != 0 {
		t.Fatalf("round-tripped trace has audit defects: %v", defects)
	}
}

func TestHandlerServesTraceAndManifest(t *testing.T) {
	r := script(t)
	ts := httptest.NewServer(Handler(r))
	defer ts.Close()

	res, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("trace Content-Type = %q", ct)
	}
	got, err := trace.ReadColumnar(res.Body)
	if err != nil {
		t.Fatalf("downloaded trace unreadable: %v", err)
	}
	want, _ := Export(r)
	if got.Len() != want.Len() {
		t.Fatalf("downloaded %d events, want %d", got.Len(), want.Len())
	}

	mres, err := ts.Client().Get(ts.URL + "?manifest=1")
	if err != nil {
		t.Fatal(err)
	}
	defer mres.Body.Close()
	if ct := mres.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("manifest Content-Type = %q", ct)
	}
	var m Manifest
	if err := json.NewDecoder(mres.Body).Decode(&m); err != nil {
		t.Fatalf("manifest is not JSON: %v", err)
	}
	_, wantM := Export(r)
	if m.Events != wantM.Events || m.RequestProcs != wantM.RequestProcs || len(m.Stmts) != len(wantM.Stmts) {
		t.Fatalf("manifest %+v, want %+v", m, *wantM)
	}
}
