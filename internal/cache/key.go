package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"perturb/internal/core"
	"perturb/internal/instr"
	"perturb/internal/trace"
)

// TraceSHA256 returns the hex SHA-256 of the trace's canonical binary
// encoding. Because it hashes the decoded events rather than the wire
// bytes, the same trace uploaded in any codec (text, binary, columnar)
// fingerprints identically — the content address of the analysis input.
func TraceSHA256(t *trace.Trace) (string, error) {
	h := sha256.New()
	if err := t.WriteBinary(h); err != nil {
		return "", fmt.Errorf("cache: fingerprinting trace: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Key renders the full content address of one analysis: the trace
// fingerprint plus every analysis input that changes the result —
// calibration constants, analysis mode, repair, and the liberal
// parameters when the liberal mode is selected. The service's workers
// query parameter, accepted and ignored for compatibility, never reaches
// the key: a request with any worker count shares the key of the same
// request without one.
//
// The trace fingerprint is returned alongside the key so callers can
// surface it (the service's input_sha256 field) without hashing twice.
func Key(t *trace.Trace, cal instr.Calibration, opts core.Options) (key, traceSHA string, err error) {
	traceSHA, err = TraceSHA256(t)
	if err != nil {
		return "", "", err
	}
	return KeyFromTraceSHA(traceSHA, cal, opts), traceSHA, nil
}

// KeyFromTraceSHA builds the cache key from an already-known trace
// content address (as returned by Key or TraceSHA256), skipping the
// event hashing. This is the fast path for callers that memoized the
// fingerprint of an upload's wire bytes.
func KeyFromTraceSHA(traceSHA string, cal instr.Calibration, opts core.Options) string {
	// The non-trace inputs are a handful of fixed-width integers; hash
	// them with the fingerprint into one compact key. Each field is
	// length-free and fixed-position, so no two distinct inputs can
	// collide by concatenation.
	h := sha256.New()
	h.Write([]byte(traceSHA))
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(cal.Overheads.Event))
	put(int64(cal.Overheads.Advance))
	put(int64(cal.Overheads.AwaitB))
	put(int64(cal.Overheads.AwaitE))
	put(int64(cal.SNoWait))
	put(int64(cal.SWait))
	put(int64(cal.AdvanceOp))
	put(int64(cal.Barrier))
	put(int64(opts.Mode))
	if opts.Repair {
		put(1)
	} else {
		put(0)
	}
	if opts.Mode == core.ModeLiberal {
		put(int64(opts.Liberal.Procs))
		put(int64(opts.Liberal.Distance))
		put(int64(opts.Liberal.Schedule))
	}
	return hex.EncodeToString(h.Sum(nil))
}
