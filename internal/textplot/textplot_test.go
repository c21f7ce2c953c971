package textplot_test

import (
	"bytes"
	"strings"
	"testing"

	"perturb/internal/textplot"
	"perturb/internal/trace"
)

func TestGroupedBarChart(t *testing.T) {
	var buf bytes.Buffer
	err := textplot.GroupedBarChart(&buf, "fig1",
		[]string{"loop 1", "loop 2"},
		[2]string{"Full", "Model"},
		[2][]float64{{10, 5}, {1, 1}}, 30)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "Full") < 2 || strings.Count(out, "Model") < 2 {
		t.Errorf("series tags missing:\n%s", out)
	}
	if !strings.Contains(out, "#") || !strings.Contains(out, ".") {
		t.Error("expected both fill characters")
	}
}

func TestGantt(t *testing.T) {
	var buf bytes.Buffer
	lanes := []textplot.Lane{
		{Label: "P0", Spans: []textplot.Span{
			{Start: 0, End: 50, Waiting: false},
			{Start: 50, End: 60, Waiting: true},
			{Start: 60, End: 100, Waiting: false},
		}},
		{Label: "P1", Spans: []textplot.Span{{Start: 0, End: 100, Waiting: false}}},
	}
	if err := textplot.Gantt(&buf, "waits", lanes, 0, 100, 50); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "~") {
		t.Error("waiting marker missing")
	}
	rows := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	// The wait occupies roughly columns 25-30 of lane 0.
	lane0 := rows[1]
	idx := strings.Index(lane0, "~")
	if idx < 20 || idx > 35 {
		t.Errorf("wait marker at column %d, want ~25-30 region: %q", idx, lane0)
	}
	if strings.Contains(rows[2], "~") {
		t.Error("lane 1 should have no waits")
	}

	if err := textplot.Gantt(&buf, "bad", lanes, 10, 10, 50); err == nil {
		t.Error("empty range should error")
	}
}

func TestStepCurve(t *testing.T) {
	var buf bytes.Buffer
	times := []trace.Time{0, 25, 75, 100}
	levels := []int{1, 3, 2, 0}
	if err := textplot.StepCurve(&buf, "par", times, levels, 0, 100, 40, 4); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	rows := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title + 4 level rows + axis.
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6:\n%s", len(rows), out)
	}
	if !strings.HasPrefix(rows[1], " 4 |") || !strings.HasPrefix(rows[4], " 1 |") {
		t.Errorf("level labels wrong:\n%s", out)
	}
	// Level-3 row has marks only in the middle segment.
	r3 := rows[2]
	if !strings.Contains(r3, "#") {
		t.Error("level 3 should be reached")
	}
	// Level-4 row should be empty of marks.
	if strings.Contains(rows[1], "#") {
		t.Error("level 4 never reached but drawn")
	}

	if err := textplot.StepCurve(&buf, "bad", times, levels[:2], 0, 100, 40, 4); err == nil {
		t.Error("mismatched lengths should error")
	}
	if err := textplot.StepCurve(&buf, "bad", times, levels, 5, 5, 40, 4); err == nil {
		t.Error("empty range should error")
	}
}

func TestGanttSVG(t *testing.T) {
	var buf bytes.Buffer
	lanes := []textplot.Lane{
		{Label: "P0", Spans: []textplot.Span{
			{Start: 0, End: 60, Waiting: false},
			{Start: 60, End: 80, Waiting: true},
		}},
	}
	if err := textplot.GanttSVG(&buf, "title <&>", lanes, 0, 80, 400); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(strings.TrimSpace(out), "</svg>") {
		t.Error("not a well-formed SVG document")
	}
	if !strings.Contains(out, "title &lt;&amp;&gt;") {
		t.Error("title not escaped")
	}
	if strings.Count(out, `fill="#d98c5f"`) < 2 { // legend + wait span
		t.Error("waiting fill missing")
	}
	if !strings.Contains(out, "0us") {
		t.Error("axis labels missing")
	}
	if err := textplot.GanttSVG(&buf, "bad", lanes, 5, 5, 400); err == nil {
		t.Error("empty range should error")
	}
}
