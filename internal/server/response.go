package server

import (
	"fmt"
	"net/url"
	"strconv"

	"perturb/internal/cache"
	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/loops"
	"perturb/internal/machine"
	"perturb/internal/trace"
)

// Response is the JSON body of a successful POST /v1/analyze. Every field
// is deterministic for a given input trace and calibration, so the same
// request always yields the same response body, which is what lets
// clients (and the service golden test) diff responses against a direct
// perturb.Analyze call.
// APIVersion is the service's wire-contract version, stamped on every
// JSON response body (success and error alike) as api_version. Bump only
// on an incompatible change, alongside a new path prefix.
const APIVersion = "v1"

type Response struct {
	// APIVersion names the wire contract this body follows ("v1").
	APIVersion string `json:"api_version"`
	// Procs and Events describe the analyzed trace.
	Procs  int `json:"procs"`
	Events int `json:"events"`
	// Duration is the approximated total execution time in nanoseconds.
	Duration trace.Time `json:"duration"`
	// The Figure 2 waiting classification.
	WaitsKept       int `json:"waits_kept"`
	WaitsRemoved    int `json:"waits_removed"`
	WaitsIntroduced int `json:"waits_introduced"`
	// TraceSHA256 is the hex SHA-256 of the approximated trace's binary
	// encoding: a byte-exact fingerprint of the full analysis output
	// without shipping every event back. perturbd never collects that
	// trace: the encoding streams into the hash from the engine's
	// canonical merge (core.Events). Absent only on degraded responses,
	// whose low-memory analysis keeps no events.
	TraceSHA256 string `json:"trace_sha256,omitempty"`
	// InputSHA256 is the content address of the request: the hex SHA-256
	// of the uploaded trace's decoded events (codec-independent — the
	// cache key's trace component). Present only when the service runs
	// with a result cache; the no-cache wire format is unchanged.
	InputSHA256 string `json:"input_sha256,omitempty"`
	// Cached reports whether this response was served from the result
	// cache (a resident hit or a coalesced in-flight analysis) rather
	// than a fresh analysis. Present only when the service runs with a
	// result cache.
	Cached *bool `json:"cached,omitempty"`
	// Repair summarizes the sanitizer's work when the request ran with
	// repair=1; absent otherwise.
	Repair *RepairSummary `json:"repair,omitempty"`
	// Confidence carries the degraded-mode per-processor quality scores
	// when present on the result.
	Confidence []core.ProcConfidence `json:"confidence,omitempty"`
	// Degraded marks a summary-only response: the upload exceeded the
	// service's memory budget, so the analysis ran through the LowMemory
	// streaming engine — every summary field above is exact, but no
	// approximated trace exists to fingerprint (TraceSHA256 is absent)
	// and the result was not cached.
	Degraded bool `json:"degraded,omitempty"`
}

// RepairSummary is the wire form of a trace.RepairReport.
type RepairSummary struct {
	Defects     int    `json:"defects"`
	Removed     int    `json:"removed"`
	Synthesized int    `json:"synthesized"`
	Retimed     int    `json:"retimed"`
	Summary     string `json:"summary"`
}

// errorBody is the JSON body of every non-2xx response. Code, when
// present, is a machine-readable discriminator for errors whose remedy
// differs from their status's default (a 400 checksum_mismatch is
// retryable; other 400s are not).
type errorBody struct {
	APIVersion string `json:"api_version"`
	Error      string `json:"error"`
	Code       string `json:"code,omitempty"`
}

// BuildResponse converts an analysis result into the wire response,
// fingerprinting the approximated trace as the cache fingerprints an
// input (cache.TraceSHA256): a collected result's Trace, or else the
// engine's canonical merge as it runs, which gives the same bytes. It is
// exported within the module so callers comparing remote results against
// local Analyze runs build the reference bytes through the same code
// path. A result that kept no events (a low-memory stream's) is an
// error.
func BuildResponse(a *core.Approximation) (*Response, error) {
	procs, n, events, err := core.Events(a)
	if err != nil {
		return nil, err
	}
	sum, err := cache.EventsSHA256(procs, n, events)
	if err != nil {
		return nil, err
	}
	resp := summaryResponse(a, procs, n)
	resp.TraceSHA256, resp.Confidence = sum, a.Confidence
	if a.Repair != nil {
		resp.Repair = &RepairSummary{
			Defects:     len(a.Repair.Defects),
			Removed:     a.Repair.Removed,
			Synthesized: a.Repair.Synthesized,
			Retimed:     a.Repair.Retimed,
			Summary:     a.Repair.Summary(),
		}
	}
	return resp, nil
}

// summaryResponse holds the fields of a response that every analysis,
// the summary-only low-memory one included, fills in.
func summaryResponse(a *core.Approximation, procs, events int) *Response {
	return &Response{
		APIVersion:      APIVersion,
		Procs:           procs,
		Events:          events,
		Duration:        a.Duration,
		WaitsKept:       a.WaitsKept,
		WaitsRemoved:    a.WaitsRemoved,
		WaitsIntroduced: a.WaitsIntroduced,
	}
}

// DefaultCalibration is the calibration an analyze request gets when it
// sends no calibration parameters: the paper's probe costs on the
// Alliant-flavoured machine — the same default the perturb CLI uses.
func DefaultCalibration() instr.Calibration {
	cfg := machine.Alliant()
	return instr.Exact(loops.PaperOverheads(), cfg.SNoWait, cfg.SWait, cfg.AdvanceOp, cfg.Barrier)
}

// nsParam is a nanosecond query parameter with the value it names.
type nsParam struct {
	name string
	dst  *trace.Time
}

// calParams lists c's query parameters: parseQuery reads them into c, and
// the client's analyzeQuery writes them from c.
func calParams(c *instr.Calibration) [8]nsParam {
	return [8]nsParam{
		{"event", &c.Overheads.Event},
		{"advance", &c.Overheads.Advance},
		{"awaitb", &c.Overheads.AwaitB},
		{"awaite", &c.Overheads.AwaitE},
		{"snowait", &c.SNoWait},
		{"swait", &c.SWait},
		{"advanceop", &c.AdvanceOp},
		{"barrier", &c.Barrier},
	}
}

// query is an analyze request's parsed query string.
type query struct {
	opts          core.Options
	cal           instr.Calibration
	window, slide trace.Time
}

// parseQuery maps an analyze request's query parameters onto analysis
// options, a calibration and, for the stream endpoint, window geometry:
//
//	mode=event|time        analysis family (default event)
//	repair=0|1             degraded-mode analysis of defective traces
//	probe=N                uniform probe cost shorthand (all four kinds), ns
//	event=N advance=N      per-kind probe costs, ns
//	awaitb=N awaite=N
//	snowait=N swait=N      synchronization processing costs, ns
//	advanceop=N barrier=N
//	window=N               stream only: window length on the measured-time
//	                       axis, ns; 0 (default) means a single cumulative
//	                       window emitted at the end
//	slide=N                stream only: window start spacing, ns; 0 means
//	                       tumbling (slide=window)
//
// Calibration parameters left unset keep their DefaultCalibration values,
// and unknown parameters are ignored, as are window and slide on the
// batch endpoint. The liberal mode needs loop-structure inputs a trace
// does not carry, so it is rejected here rather than half-supported. A
// window/slide ratio above core.MaxWindowsPerEvent is refused when the
// stream session opens.
func parseQuery(q url.Values, stream bool) (query, error) {
	out := query{cal: DefaultCalibration()}
	switch mode := q.Get("mode"); mode {
	case "", "event":
		out.opts.Mode = core.ModeEventBased
	case "time":
		out.opts.Mode = core.ModeTimeBased
	case "liberal":
		return out, fmt.Errorf("mode=liberal needs loop structure (distance, schedule) and is not servable from a trace alone")
	default:
		return out, fmt.Errorf("unknown mode %q (want event or time)", mode)
	}

	if v := q.Get("repair"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return out, fmt.Errorf("bad repair %q (want 0 or 1)", v)
		}
		out.opts.Repair = b
	}

	nanos := func(name string, dst *trace.Time) error {
		v := q.Get(name)
		if v == "" {
			return nil
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			return fmt.Errorf("bad %s %q (want a non-negative nanosecond count)", name, v)
		}
		*dst = trace.Time(n)
		return nil
	}
	probe := trace.Time(-1)
	if err := nanos("probe", &probe); err != nil {
		return out, err
	}
	if probe >= 0 {
		out.cal.Overheads = instr.Uniform(probe)
	}
	for _, p := range calParams(&out.cal) {
		if err := nanos(p.name, p.dst); err != nil {
			return out, err
		}
	}
	if stream {
		if err := nanos("window", &out.window); err != nil {
			return out, err
		}
		if err := nanos("slide", &out.slide); err != nil {
			return out, err
		}
	}
	return out, nil
}
