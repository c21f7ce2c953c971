package obs

import (
	"fmt"
	"io"
)

// Stats is the serializable form of a telemetry snapshot: the return type
// of Snapshot, the payload of the CLIs' -stats JSON summary and of the
// "obs" expvar. All fields round-trip through encoding/json.
type Stats struct {
	Enabled  bool          `json:"enabled"`
	Counters []CounterStat `json:"counters,omitempty"`
	Maxes    []CounterStat `json:"maxes,omitempty"`
	Gauges   []CounterStat `json:"gauges,omitempty"`
	Hists    []HistStat    `json:"histograms,omitempty"`
}

// CounterStat is one named counter or max-gauge value.
type CounterStat struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistStat is a merged histogram: total count and sum plus the non-empty
// buckets.
type HistStat struct {
	Name    string       `json:"name"`
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Mean returns the mean observed value.
func (h HistStat) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// HistBucket is one non-empty histogram bucket covering [Lo, Hi].
type HistBucket struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// Hist returns the histogram with the given name, if present. A span's
// histogram is named after it plus "_ns".
func (s Stats) Hist(name string) (HistStat, bool) {
	for _, h := range s.Hists {
		if h.Name == name {
			return h, true
		}
	}
	return HistStat{}, false
}

// Counter returns the named counter's value (max gauges and level gauges
// included); zero if absent.
func (s Stats) Counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	for _, c := range s.Maxes {
		if c.Name == name {
			return c.Value
		}
	}
	for _, c := range s.Gauges {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// WriteText renders the snapshot in the human-readable -stats layout: one
// aligned line per metric, grouped by kind.
func (s Stats) WriteText(w io.Writer) error {
	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := p("obs: telemetry enabled=%v\n", s.Enabled); err != nil {
		return err
	}
	if len(s.Counters) > 0 {
		if err := p("obs: counters\n"); err != nil {
			return err
		}
		for _, c := range s.Counters {
			if err := p("  %-32s %d\n", c.Name, c.Value); err != nil {
				return err
			}
		}
	}
	if len(s.Maxes) > 0 {
		if err := p("obs: peaks\n"); err != nil {
			return err
		}
		for _, c := range s.Maxes {
			if err := p("  %-32s %d\n", c.Name, c.Value); err != nil {
				return err
			}
		}
	}
	if len(s.Gauges) > 0 {
		if err := p("obs: gauges\n"); err != nil {
			return err
		}
		for _, c := range s.Gauges {
			if err := p("  %-32s %d\n", c.Name, c.Value); err != nil {
				return err
			}
		}
	}
	// Histograms with no observations (spans that never ran) are left
	// out; the JSON form keeps them.
	header := false
	for _, h := range s.Hists {
		if h.Count == 0 {
			continue
		}
		if !header {
			header = true
			if err := p("obs: histograms\n"); err != nil {
				return err
			}
		}
		if err := p("  %-32s count %-8d sum %-12d mean %.1f\n",
			h.Name, h.Count, h.Sum, h.Mean()); err != nil {
			return err
		}
		for _, b := range h.Buckets {
			if err := p("    [%d..%d] %d\n", b.Lo, b.Hi, b.Count); err != nil {
				return err
			}
		}
	}
	return nil
}
