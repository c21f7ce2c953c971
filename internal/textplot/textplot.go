// Package textplot renders the paper's figures as ASCII charts: grouped
// bar charts (Figure 1), per-processor waiting timelines (Figure 4), and
// step curves (Figure 5). Output is plain text suitable for terminals and
// for inclusion in EXPERIMENTS.md.
package textplot

import (
	"fmt"
	"io"
	"strings"

	"perturb/internal/trace"
)

// GroupedBarChart renders two series side by side per label (the paper's
// Figure 1 presents Measured/Actual and Model/Actual bars for each loop):
//
//	loop 1  M |############################  10.76
//	        A |#                              1.00
func GroupedBarChart(w io.Writer, title string, labels []string, seriesNames [2]string, series [2][]float64, width int) error {
	if width <= 0 {
		width = 50
	}
	var max float64
	for _, s := range series {
		for _, v := range s {
			if v > max {
				max = v
			}
		}
	}
	labelW := 0
	for _, l := range labels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	if _, err := fmt.Fprintf(w, "%s   (%s = '#', %s = '.')\n", title, seriesNames[0], seriesNames[1]); err != nil {
		return err
	}
	for i, l := range labels {
		for s := 0; s < 2; s++ {
			if i >= len(series[s]) {
				continue
			}
			v := series[s][i]
			n := 0
			if max > 0 {
				n = int(v / max * float64(width))
			}
			fill := "#"
			tag := seriesNames[0]
			lbl := l
			if s == 1 {
				fill = "."
				tag = seriesNames[1]
				lbl = ""
			}
			if _, err := fmt.Fprintf(w, "%-*s %-9s |%-*s %7.2f\n",
				labelW, lbl, tag, width, strings.Repeat(fill, n), v); err != nil {
				return err
			}
		}
	}
	return nil
}

// Lane is one processor's alternating spans for a Gantt chart.
type Lane struct {
	Label string
	// Spans are (start, end, waiting) triples in time units.
	Spans []Span
}

// Span is one classified interval.
type Span struct {
	Start, End trace.Time
	Waiting    bool
}

// Gantt renders per-processor waiting/busy lanes over [from, to], with '#'
// for busy time and '~' for waiting (the paper's Figure 4 waiting rows):
//
//	Processor 0 |#####~~###########~~~#####|
func Gantt(w io.Writer, title string, lanes []Lane, from, to trace.Time, width int) error {
	if width <= 0 {
		width = 80
	}
	if to <= from {
		return fmt.Errorf("textplot: empty time range [%d, %d]", from, to)
	}
	if _, err := fmt.Fprintf(w, "%s   ('#' busy, '~' waiting, time %d..%d)\n", title, int64(from), int64(to)); err != nil {
		return err
	}
	span := float64(to - from)
	col := func(t trace.Time) int {
		c := int(float64(t-from) / span * float64(width))
		if c < 0 {
			c = 0
		}
		if c > width {
			c = width
		}
		return c
	}
	labelW := 0
	for _, l := range lanes {
		if len(l.Label) > labelW {
			labelW = len(l.Label)
		}
	}
	for _, lane := range lanes {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		for _, s := range lane.Spans {
			c0, c1 := col(s.Start), col(s.End)
			if c1 == c0 && c1 < width {
				c1 = c0 + 1
			}
			fill := byte('#')
			if s.Waiting {
				fill = '~'
			}
			for i := c0; i < c1 && i < width; i++ {
				// Waiting marks win over busy in a shared cell so
				// short waits remain visible.
				if row[i] != '~' {
					row[i] = fill
				}
			}
		}
		if _, err := fmt.Fprintf(w, "%-*s |%s|\n", labelW, lane.Label, row); err != nil {
			return err
		}
	}
	return nil
}

// StepCurve renders a step function (the paper's Figure 5 parallelism
// curve) as a height-by-time block chart. Levels are assumed non-negative;
// maxLevel rows are printed, highest first.
func StepCurve(w io.Writer, title string, times []trace.Time, levels []int, from, to trace.Time, width, maxLevel int) error {
	if len(times) != len(levels) {
		return fmt.Errorf("textplot: times and levels differ in length: %d vs %d", len(times), len(levels))
	}
	if width <= 0 {
		width = 80
	}
	if maxLevel <= 0 {
		for _, l := range levels {
			if l > maxLevel {
				maxLevel = l
			}
		}
		if maxLevel == 0 {
			maxLevel = 1
		}
	}
	if to <= from {
		return fmt.Errorf("textplot: empty time range [%d, %d]", from, to)
	}
	if _, err := fmt.Fprintf(w, "%s   (time %d..%d)\n", title, int64(from), int64(to)); err != nil {
		return err
	}
	// Sample the level at each column midpoint.
	cols := make([]int, width)
	span := float64(to - from)
	for c := 0; c < width; c++ {
		x := from + trace.Time(span*(float64(c)+0.5)/float64(width))
		lvl := 0
		for i, t := range times {
			if t > x {
				break
			}
			lvl = levels[i]
		}
		cols[c] = lvl
	}
	for row := maxLevel; row >= 1; row-- {
		line := make([]byte, width)
		for c := 0; c < width; c++ {
			if cols[c] >= row {
				line[c] = '#'
			} else {
				line[c] = ' '
			}
		}
		if _, err := fmt.Fprintf(w, "%2d |%s\n", row, line); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "   +%s\n", strings.Repeat("-", width)); err != nil {
		return err
	}
	return nil
}
