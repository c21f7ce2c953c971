package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/url"
	"strconv"

	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/loops"
	"perturb/internal/machine"
	"perturb/internal/trace"
)

// Response is the JSON body of a successful POST /analyze. Every field is
// deterministic for a given input trace and calibration — the worker count
// never changes a byte of the analysis, so the same request always yields
// the same response body, which is what lets clients (and the service
// golden test) diff responses against a direct perturb.Analyze call.
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
	// without shipping every event back. Absent only on degraded
	// responses, where the approximated trace was never materialized.
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
	Confidence []ProcConfidence `json:"confidence,omitempty"`
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

// ProcConfidence is the wire form of a core.ProcConfidence.
type ProcConfidence struct {
	Proc         int     `json:"proc"`
	Events       int     `json:"events"`
	Placeholders int     `json:"placeholders"`
	Forced       int     `json:"forced"`
	Defects      int     `json:"defects"`
	Score        float64 `json:"score"`
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
// fingerprinting the approximated trace. It is exported within the module
// so callers comparing remote results against local Analyze runs build the
// reference bytes through the same code path.
func BuildResponse(a *core.Approximation) (*Response, error) {
	h := sha256.New()
	if err := a.Trace.WriteBinary(h); err != nil {
		return nil, fmt.Errorf("server: fingerprinting approximation: %w", err)
	}
	resp := &Response{
		APIVersion:      APIVersion,
		Procs:           a.Trace.Procs,
		Events:          a.Trace.Len(),
		Duration:        a.Duration,
		WaitsKept:       a.WaitsKept,
		WaitsRemoved:    a.WaitsRemoved,
		WaitsIntroduced: a.WaitsIntroduced,
		TraceSHA256:     hex.EncodeToString(h.Sum(nil)),
	}
	if a.Repair != nil {
		resp.Repair = &RepairSummary{
			Defects:     len(a.Repair.Defects),
			Removed:     a.Repair.Removed,
			Synthesized: a.Repair.Synthesized,
			Retimed:     a.Repair.Retimed,
			Summary:     a.Repair.Summary(),
		}
	}
	for _, c := range a.Confidence {
		resp.Confidence = append(resp.Confidence, ProcConfidence{
			Proc:         c.Proc,
			Events:       c.Events,
			Placeholders: c.Placeholders,
			Forced:       c.Forced,
			Defects:      c.Defects,
			Score:        c.Score,
		})
	}
	return resp, nil
}

// DefaultCalibration is the calibration an /analyze request gets when it
// sends no calibration parameters: the paper's probe costs on the
// Alliant-flavoured machine — the same default the perturb CLI uses.
func DefaultCalibration() instr.Calibration {
	cfg := machine.Alliant()
	return instr.Exact(loops.PaperOverheads(), cfg.SNoWait, cfg.SWait, cfg.AdvanceOp, cfg.Barrier)
}

// parseQuery maps an /analyze request's query parameters onto analysis
// options and a calibration:
//
//	mode=event|time        analysis family (default event)
//	workers=N              accepted for compatibility and ignored: -1, 0
//	                       or a positive count (the engine is sequential)
//	repair=0|1             degraded-mode analysis of defective traces
//	probe=N                uniform probe cost shorthand (all four kinds), ns
//	event=N advance=N      per-kind probe costs, ns
//	awaitb=N awaite=N
//	snowait=N swait=N      synchronization processing costs, ns
//	advanceop=N barrier=N
//
// Calibration parameters left unset keep their DefaultCalibration values.
// The liberal mode needs loop-structure inputs a trace does not carry, so
// it is rejected here rather than half-supported.
func parseQuery(q url.Values) (core.Options, instr.Calibration, error) {
	var opts core.Options
	cal := DefaultCalibration()

	switch mode := q.Get("mode"); mode {
	case "", "event":
		opts.Mode = core.ModeEventBased
	case "time":
		opts.Mode = core.ModeTimeBased
	case "liberal":
		return opts, cal, fmt.Errorf("mode=liberal needs loop structure (distance, schedule) and is not servable from a trace alone")
	default:
		return opts, cal, fmt.Errorf("unknown mode %q (want event or time)", mode)
	}

	if v := q.Get("workers"); v != "" {
		// Validated so existing callers see the same errors; the value
		// selects nothing.
		n, err := strconv.Atoi(v)
		if err != nil || n < -1 {
			return opts, cal, fmt.Errorf("bad workers %q (want -1, 0 or a positive count)", v)
		}
	}
	if v := q.Get("repair"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return opts, cal, fmt.Errorf("bad repair %q (want 0 or 1)", v)
		}
		opts.Repair = b
	}

	timeParam := func(name string, dst *trace.Time) error {
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
	var probe trace.Time = -1
	if v := q.Get("probe"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			return opts, cal, fmt.Errorf("bad probe %q (want a non-negative nanosecond count)", v)
		}
		probe = trace.Time(n)
	}
	if probe >= 0 {
		cal.Overheads = instr.Uniform(probe)
	}
	for _, p := range []struct {
		name string
		dst  *trace.Time
	}{
		{"event", &cal.Overheads.Event},
		{"advance", &cal.Overheads.Advance},
		{"awaitb", &cal.Overheads.AwaitB},
		{"awaite", &cal.Overheads.AwaitE},
		{"snowait", &cal.SNoWait},
		{"swait", &cal.SWait},
		{"advanceop", &cal.AdvanceOp},
		{"barrier", &cal.Barrier},
	} {
		if err := timeParam(p.name, p.dst); err != nil {
			return opts, cal, err
		}
	}
	return opts, cal, nil
}
