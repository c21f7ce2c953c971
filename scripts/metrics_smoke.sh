#!/bin/sh
# Observability smoke test for the perturbd daemon, run from the
# repository root (CI's metrics-smoke job and `make metrics-smoke`):
#
#   1. start the daemon self-tracing (-selftrace) with a JSON request log,
#   2. drive a couple of analysis requests (a cache miss and a hit),
#   3. require /metrics to pass the Prometheus text exposition checker
#      (internal/tools/promcheck), to carry the build_info metric, and to
#      hold a latency histogram for the requests' decode phase,
#   4. require the live /debug/selftrace download to audit clean,
#   5. SIGTERM the daemon and require the shutdown-written self-trace
#      file to load and audit clean through `tracecat -audit`,
#   6. require the request log to hold one JSON line per request with
#      trace id, status and cache outcome.
set -eu

BIN=${1:?usage: metrics_smoke.sh <perturbd binary> <promcheck binary> <tracecat binary>}
PROMCHECK=${2:?usage: metrics_smoke.sh <perturbd binary> <promcheck binary> <tracecat binary>}
TRACECAT=${3:?usage: metrics_smoke.sh <perturbd binary> <promcheck binary> <tracecat binary>}
ADDR=127.0.0.1:7717
BASE=http://$ADDR
TRACE=testdata/golden/doacross.bin
SELFTRACE=/tmp/perturbd_selftrace.col
REQLOG=/tmp/perturbd_requests.jsonl

rm -f "$SELFTRACE" "$REQLOG"
"$BIN" -addr "$ADDR" -drain-timeout 5s -selftrace "$SELFTRACE" -request-log "$REQLOG" &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT

i=0
until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 50 ]; then
    echo "perturbd never became healthy on $ADDR" >&2
    exit 1
  fi
  sleep 0.1
done
curl -fsS "$BASE/healthz" | grep -q '^ok version='

# One miss, one hit: the second upload of the same trace is served from
# the result cache, so the self-trace records both request shapes.
curl -fsS --data-binary "@$TRACE" "$BASE/v1/analyze" > /dev/null
curl -fsS --data-binary "@$TRACE" "$BASE/v1/analyze" > /dev/null

# The exposition must parse, respect histogram invariants, and name the
# build.
curl -fsS "$BASE/metrics" > /tmp/perturbd_metrics.txt
"$PROMCHECK" /tmp/perturbd_metrics.txt
grep -q '^perturb_build_info{' /tmp/perturbd_metrics.txt
grep -q '^perturb_server_requests_total ' /tmp/perturbd_metrics.txt
# Request phases are span histograms: both requests decoded.
grep -q '^perturb_server_decode_ns_bucket{le=' /tmp/perturbd_metrics.txt
DECODES=$(awk '$1 == "perturb_server_decode_ns_count" { print $2 }' /tmp/perturbd_metrics.txt)
if [ "${DECODES:-0}" -le 0 ]; then
  echo "perturb_server_decode_ns_count is ${DECODES:-missing}, want > 0" >&2
  exit 1
fi

# The live self-trace download must be a loadable, audit-clean trace.
curl -fsS "$BASE/debug/selftrace" > /tmp/perturbd_live.col
"$TRACECAT" -audit /tmp/perturbd_live.col | grep -qx clean

kill -TERM "$PID"
trap - EXIT
if ! wait "$PID"; then
  echo "perturbd exited non-zero after SIGTERM" >&2
  exit 1
fi

# The shutdown-written file carries the drain barrier and audits clean.
test -s "$SELFTRACE"
"$TRACECAT" -audit "$SELFTRACE" | grep -qx clean
"$TRACECAT" -summary "$SELFTRACE" >/dev/null

# One JSON log line per request, each with the observability fields.
LINES=$(wc -l < "$REQLOG")
if [ "$LINES" -lt 2 ]; then
  echo "request log has $LINES lines, want >= 2" >&2
  exit 1
fi
grep -q '"trace_id":' "$REQLOG"
grep -q '"status":200' "$REQLOG"
grep -q '"cache":"miss"' "$REQLOG"
grep -q '"cache":"hit"' "$REQLOG"
grep -q '"latency_ns":' "$REQLOG"

echo "metrics smoke: OK"
