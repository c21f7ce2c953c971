package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"perturb"
)

func defaults() options {
	return options{
		loop:     17,
		analysis: "event",
		withSync: true,
		procs:    8,
		schedule: "interleaved",
	}
}

func TestStudyDefault(t *testing.T) {
	var buf bytes.Buffer
	if err := study(&buf, defaults()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "LL17") || !strings.Contains(out, "approximated") {
		t.Errorf("summary missing: %s", out)
	}
	if !strings.Contains(out, "waits kept") {
		t.Error("diagnostics missing")
	}
}

func TestStudyReports(t *testing.T) {
	o := defaults()
	o.waiting, o.timeline, o.critpath, o.profile = true, true, true, true
	var buf bytes.Buffer
	if err := study(&buf, o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"per-processor waiting", "critical path", "per-statement profile", "approximated timeline",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q", want)
		}
	}
}

func TestStudyAnalyses(t *testing.T) {
	for _, a := range []string{"time", "event", "liberal"} {
		o := defaults()
		o.analysis = a
		o.quiet = true
		var buf bytes.Buffer
		if err := study(&buf, o); err != nil {
			t.Fatalf("%s: %v", a, err)
		}
	}
}

// TestStudyLoadBinary: -load auto-detects the binary codec.
func TestStudyLoadBinary(t *testing.T) {
	dir := t.TempDir()
	txt := filepath.Join(dir, "trace.txt")
	o := defaults()
	o.saveFile = txt
	o.quiet = true
	if err := study(&bytes.Buffer{}, o); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(txt)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := perturb.ReadTraceText(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "trace.bin")
	bf, err := os.Create(bin)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteBinary(bf); err != nil {
		t.Fatal(err)
	}
	if err := bf.Close(); err != nil {
		t.Fatal(err)
	}

	var fromTxt, fromBin bytes.Buffer
	o2 := defaults()
	o2.loadFile = txt
	if err := study(&fromTxt, o2); err != nil {
		t.Fatal(err)
	}
	o2.loadFile = bin
	if err := study(&fromBin, o2); err != nil {
		t.Fatal(err)
	}
	if fromTxt.String() != fromBin.String() {
		t.Errorf("binary -load output differs from text:\n%s\nvs\n%s", fromBin.String(), fromTxt.String())
	}
}

func TestStudySaveAndLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.txt")
	o := defaults()
	o.saveFile = path
	o.quiet = true
	var buf bytes.Buffer
	if err := study(&buf, o); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("trace not saved: %v", err)
	}
	// Re-analyze the saved trace.
	o2 := defaults()
	o2.loadFile = path
	buf.Reset()
	if err := study(&buf, o2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "of measured") {
		t.Errorf("loaded-trace summary missing: %s", buf.String())
	}
}

func TestStudyErrors(t *testing.T) {
	bad := defaults()
	bad.schedule = "chaotic"
	if err := study(&bytes.Buffer{}, bad); err == nil {
		t.Error("unknown schedule should fail")
	}
	bad = defaults()
	bad.analysis = "psychic"
	if err := study(&bytes.Buffer{}, bad); err == nil {
		t.Error("unknown analysis should fail")
	}
	bad = defaults()
	bad.loop = 99
	if err := study(&bytes.Buffer{}, bad); err == nil {
		t.Error("unknown kernel should fail")
	}
	bad = defaults()
	bad.loadFile = "/nonexistent/trace.txt"
	if err := study(&bytes.Buffer{}, bad); err == nil {
		t.Error("missing trace file should fail")
	}
}

func TestValidateOptions(t *testing.T) {
	if err := validateOptions(defaults(), nil); err != nil {
		t.Errorf("default options rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*options)
		args []string
	}{
		{"extra args", func(o *options) {}, []string{"stray.trace"}},
		{"zero procs", func(o *options) { o.procs = 0 }, nil},
		{"negative probe", func(o *options) { o.probe = -time.Microsecond }, nil},
		{"load with save", func(o *options) { o.loadFile = "a"; o.saveFile = "b" }, nil},
		{"hedge without fleet", func(o *options) { o.remote = "http://a:7077"; o.hedge = true }, nil},
		{"hedge-after without hedge", func(o *options) { o.remote = "http://a:7077,http://b:7077"; o.hedgeAfter = 50 * time.Millisecond }, nil},
		{"negative hedge-after", func(o *options) {
			o.remote = "http://a:7077,http://b:7077"
			o.hedge = true
			o.hedgeAfter = -time.Millisecond
		}, nil},
		{"window without follow", func(o *options) { o.window = time.Millisecond }, nil},
		{"negative slide", func(o *options) { o.followFile = "a"; o.followIdle = time.Second; o.slide = -1 }, nil},
		{"follow with load", func(o *options) { o.followFile = "a"; o.followIdle = time.Second; o.loadFile = "b" }, nil},
		{"follow with remote", func(o *options) { o.followFile = "a"; o.followIdle = time.Second; o.remote = "http://a:7077" }, nil},
		{"follow liberal", func(o *options) { o.followFile = "a"; o.followIdle = time.Second; o.analysis = "liberal" }, nil},
		{"follow zero idle", func(o *options) { o.followFile = "a" }, nil},
		{"non-http fleet endpoint", func(o *options) { o.remote = "http://a:7077,b:7077" }, nil},
	}
	for _, tc := range cases {
		o := defaults()
		tc.mut(&o)
		if err := validateOptions(o, tc.args); err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
}

// TestStudyStatsJSON: -stats emits the human summary plus exactly one
// machine-readable JSON line whose snapshot round-trips and contains a
// span for every pipeline phase and the engine telemetry counters.
func TestStudyStatsJSON(t *testing.T) {
	var out, stats bytes.Buffer
	o := defaults()
	o.quiet = true
	o.stats = true
	o.statsW = &stats
	if err := study(&out, o); err != nil {
		t.Fatal(err)
	}
	text := stats.String()
	for _, want := range []string{"obs: telemetry enabled=true", "obs: histograms", "obs: counters"} {
		if !strings.Contains(text, want) {
			t.Errorf("human stats lack %q:\n%s", want, text)
		}
	}

	var jsonLine string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "{") {
			if jsonLine != "" {
				t.Fatal("more than one JSON line in -stats output")
			}
			jsonLine = line
		}
	}
	if jsonLine == "" {
		t.Fatalf("no JSON line in -stats output:\n%s", text)
	}
	var st perturb.ObsStats
	if err := json.Unmarshal([]byte(jsonLine), &st); err != nil {
		t.Fatalf("stats JSON does not parse: %v", err)
	}
	back, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != jsonLine {
		t.Errorf("stats JSON does not round-trip:\n%s\nvs\n%s", back, jsonLine)
	}

	for _, phase := range []string{"pipeline.load", "pipeline.analyze", "pipeline.metrics", "pipeline.report"} {
		h, ok := st.Hist(phase + "_ns")
		if !ok || h.Count < 1 {
			t.Errorf("span %q missing from snapshot (ok=%v count=%d)", phase, ok, h.Count)
		}
	}
	if h, _ := st.Hist("perturb.simulate_ns"); h.Count < 1 {
		t.Error("facade span perturb.simulate missing")
	}
	if st.Counter("machine.sim.runs") == 0 {
		t.Error("simulator telemetry missing (machine.sim.runs = 0)")
	}
	if st.Counter("core.analysis.events") == 0 {
		t.Error("engine telemetry missing (core.analysis.events = 0)")
	}
	found := false
	for _, c := range st.Counters {
		if strings.HasPrefix(c.Name, "trace.read.") {
			found = true
		}
	}
	if !found {
		t.Error("codec counters missing from snapshot")
	}
}

func TestStudySVGExport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "timeline.svg")
	o := defaults()
	o.quiet = true
	o.svgFile = path
	if err := study(&bytes.Buffer{}, o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") {
		t.Errorf("not an SVG: %q", data[:20])
	}
}

// TestStudyFollow streams a growing trace file through the -follow
// pipeline: a writer goroutine appends the saved trace in small chunks
// while the tail reader analyzes it, and the run must report windows plus
// the batch-identical summary once the file goes idle.
func TestStudyFollow(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "trace.txt")
	o := defaults()
	o.saveFile = src
	o.quiet = true
	if err := study(&bytes.Buffer{}, o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := perturb.ReadTraceText(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := perturb.Analyze(tr, perturb.ExactCalibration(perturb.PaperOverheads(), perturb.Alliant()), perturb.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}

	grow := filepath.Join(dir, "grow.txt")
	gf, err := os.Create(grow)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		defer gf.Close()
		for len(data) > 0 {
			n := 2048
			if n > len(data) {
				n = len(data)
			}
			if _, err := gf.Write(data[:n]); err != nil {
				done <- err
				return
			}
			data = data[n:]
			time.Sleep(5 * time.Millisecond)
		}
		done <- nil
	}()

	fo := defaults()
	fo.followFile = grow
	fo.followIdle = time.Second
	fo.window = time.Duration(tr.End()) / 5 * time.Nanosecond
	var buf bytes.Buffer
	if err := study(&buf, fo); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "window 0 [") {
		t.Errorf("no windows reported:\n%s", out)
	}
	want := fmt.Sprintf("events %d  measured %v  approximated %v",
		tr.Len(),
		time.Duration(tr.End())*time.Nanosecond,
		time.Duration(batch.Duration)*time.Nanosecond)
	if !strings.Contains(out, want) {
		t.Errorf("summary %q missing from:\n%s", want, out)
	}
	if !strings.Contains(out, "waits kept") {
		t.Error("diagnostics missing")
	}
}

// TestFollowPrintsArrivedWindows: -follow prints a window as soon as the
// events that complete it are in the file, not once 4096 events have
// arrived or the file has gone idle. The file first holds 2,000 of LL3's
// 16,036 events, which complete window 0; the rest is appended only
// after window 0 shows, so a follower that withholds it fails the guard.
// The final output must equal a follow of the finished file.
func TestFollowPrintsArrivedWindows(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "ll3.txt")
	o := defaults()
	o.loop = 3
	o.saveFile = src
	o.quiet = true
	if err := study(&bytes.Buffer{}, o); err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := perturb.ReadTraceText(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := tr.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	const first = 2000
	for _, c := range []struct {
		name string
		data []byte
		cut  int // bytes holding the header and the first events
	}{
		{"text", text, len(bytes.Join(bytes.SplitAfter(text, []byte("\n"))[:1+first], nil))},
		{"binary", bin.Bytes(), 20 + 25*first},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			file := filepath.Join(dir, "grow."+c.name)
			if err := os.WriteFile(file, c.data[:c.cut], 0o644); err != nil {
				t.Fatal(err)
			}
			fo := defaults()
			fo.followFile = file
			fo.followIdle = 3 * time.Second
			fo.window = time.Millisecond

			pr, pw := io.Pipe()
			var out strings.Builder
			shown, scanned := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(scanned)
				sc := bufio.NewScanner(pr)
				for seen := false; sc.Scan(); {
					out.WriteString(sc.Text() + "\n")
					if !seen && strings.HasPrefix(sc.Text(), "window 0 ") {
						seen = true
						close(shown)
					}
				}
			}()
			done := make(chan error, 1)
			go func() {
				err := followStudy(pw, fo)
				pw.Close()
				done <- err
			}()
			select {
			case <-shown:
			case <-time.After(2 * time.Second):
				t.Fatalf("window 0 not printed within 2s though its events are in the file")
			}
			f, err := os.OpenFile(file, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(c.data[c.cut:]); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			<-scanned

			fo.followIdle = 10 * time.Millisecond
			var whole bytes.Buffer
			if err := followStudy(&whole, fo); err != nil {
				t.Fatal(err)
			}
			if out.String() != whole.String() {
				t.Errorf("followed output differs from a follow of the finished file:\n%s\nwant:\n%s", out.String(), whole.String())
			}
			if want := fmt.Sprintf("events %d ", tr.Len()); !strings.Contains(out.String(), want) {
				t.Errorf("summary %q missing from:\n%s", want, out.String())
			}
		})
	}
}

// TestStudyFollowRejectsWindowGeometry: a -window/-slide ratio past the
// streaming engine's cap is reported as an error before any event is
// analyzed, instead of stalling on the first event.
func TestStudyFollowRejectsWindowGeometry(t *testing.T) {
	src := filepath.Join(t.TempDir(), "trace.txt")
	o := defaults()
	o.saveFile = src
	o.quiet = true
	if err := study(&bytes.Buffer{}, o); err != nil {
		t.Fatal(err)
	}
	fo := defaults()
	fo.followFile = src
	fo.followIdle = time.Second
	fo.window = time.Second
	fo.slide = time.Nanosecond
	if err := validateOptions(fo, nil); err != nil {
		t.Fatalf("options rejected before the stream opened: %v", err)
	}
	err := study(&bytes.Buffer{}, fo)
	if !errors.Is(err, perturb.ErrUnsupported) {
		t.Fatalf("study = %v, want ErrUnsupported", err)
	}
}
