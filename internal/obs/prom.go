package obs

// Prometheus text-exposition rendering of the telemetry snapshot,
// dependency-free: perturbd's /metrics endpoint is WriteProm over the
// same Stats the -stats flag and the "obs" expvar already expose.
// Cumulative semantics follow the exposition format: counters get a
// _total suffix, and histograms (span histograms included) render
// cumulative _bucket{le="..."} series over the log2 bucket bounds plus
// _sum and _count.

import (
	"fmt"
	"io"
	"strings"
)

// promName sanitizes a metric name into the Prometheus grammar
// [a-zA-Z_:][a-zA-Z0-9_:]* under the "perturb_" namespace: dots and any
// other illegal byte become underscores.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("perturb_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// BuildLabels is the label set WriteProm attaches to the build_info
// metric; perturbd fills it from internal/buildinfo at startup.
type BuildLabels struct {
	Version   string
	Revision  string
	GoVersion string
}

// WriteProm renders the snapshot in the Prometheus text exposition
// format (version 0.0.4). Metric order is deterministic: Stats slices
// are sorted by name (see Snapshot), and each metric renders HELP, TYPE,
// then its samples. The optional build labels add a build_info gauge.
func WriteProm(w io.Writer, s Stats, build *BuildLabels) error {
	bw := &errWriter{w: w}

	if build != nil {
		bw.printf("# HELP perturb_build_info Build metadata; the value is always 1.\n")
		bw.printf("# TYPE perturb_build_info gauge\n")
		bw.printf("perturb_build_info{version=%q,revision=%q,goversion=%q} 1\n",
			build.Version, build.Revision, build.GoVersion)
	}

	bw.printf("# HELP perturb_obs_enabled Whether the telemetry layer is recording.\n")
	bw.printf("# TYPE perturb_obs_enabled gauge\n")
	bw.printf("perturb_obs_enabled %d\n", boolInt(s.Enabled))

	for _, c := range s.Counters {
		n := promName(c.Name) + "_total"
		bw.printf("# HELP %s Cumulative count of %s.\n", n, c.Name)
		bw.printf("# TYPE %s counter\n", n)
		bw.printf("%s %d\n", n, c.Value)
	}
	for _, c := range s.Maxes {
		n := promName(c.Name)
		bw.printf("# HELP %s Peak value of %s since start.\n", n, c.Name)
		bw.printf("# TYPE %s gauge\n", n)
		bw.printf("%s %d\n", n, c.Value)
	}
	for _, c := range s.Gauges {
		n := promName(c.Name)
		bw.printf("# HELP %s Current value of %s.\n", n, c.Name)
		bw.printf("# TYPE %s gauge\n", n)
		bw.printf("%s %d\n", n, c.Value)
	}
	for _, h := range s.Hists {
		n := promName(h.Name)
		bw.printf("# HELP %s Distribution of %s (log2 buckets).\n", n, h.Name)
		bw.printf("# TYPE %s histogram\n", n)
		// The obs buckets are disjoint [Lo, Hi] ranges; the exposition
		// format wants cumulative counts at each upper bound.
		cum := int64(0)
		for _, b := range h.Buckets {
			cum += b.Count
			bw.printf("%s_bucket{le=\"%d\"} %d\n", n, b.Hi, cum)
		}
		bw.printf("%s_bucket{le=\"+Inf\"} %d\n", n, h.Count)
		bw.printf("%s_sum %d\n", n, h.Sum)
		bw.printf("%s_count %d\n", n, h.Count)
	}
	return bw.err
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// errWriter latches the first write error so the render loop stays flat.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
