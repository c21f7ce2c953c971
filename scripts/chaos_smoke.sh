#!/bin/sh
# End-to-end smoke test for the resilience surface, run from the
# repository root (CI's chaos-smoke job and `make chaos-smoke`):
#
#   1. start the daemon with a memory budget smaller than the golden
#      trace and wait for /healthz,
#   2. /readyz must answer status "ready" with queue gauges,
#   3. an over-budget upload with a correct X-Perturb-Content-SHA256
#      must come back 200 with "degraded": true, no trace fingerprint,
#      and an X-Perturb-Body-SHA256 header that matches the body bytes,
#   4. the same upload under a wrong checksum must be rejected 400 with
#      the machine-readable code "checksum_mismatch",
#   5. an over-budget repair request must be refused 413 (repair needs
#      the whole trace in memory),
#   6. an unwindowed /v1/analyze/stream upload under a wrong checksum
#      must be rejected 400 with "checksum_mismatch" (streams verify the
#      hash at EOF),
#   7. a stream asking for window/slide far past the per-event window
#      cap must be refused 400,
#   8. SIGTERM must still drain cleanly.
#
# The deterministic chaos suites proper (netchaos fault injection, the
# fleet survival soak, mid-upload disconnects) run under -race from the
# Makefile target before this script.
set -eu

BIN=${1:?usage: chaos_smoke.sh <perturbd binary>}
ADDR=127.0.0.1:7709
BASE=http://$ADDR
TRACE=testdata/golden/doacross.bin

# The golden trace is a few hundred bytes; a 128-byte budget forces the
# low-memory streaming path on every upload.
"$BIN" -addr "$ADDR" -drain-timeout 5s -memory-budget 128 &
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

curl -fsS "$BASE/readyz" | jq -e '.status == "ready" and .queue_cap >= 1' >/dev/null

SHA=$(sha256sum "$TRACE" | cut -d' ' -f1)
curl -fsS -D /tmp/chaos_headers -H "X-Perturb-Content-SHA256: $SHA" \
  --data-binary "@$TRACE" "$BASE/v1/analyze" > /tmp/chaos_degraded.json
jq -e '.api_version == "v1" and .degraded == true and (.trace_sha256 // "") == ""' \
  /tmp/chaos_degraded.json >/dev/null

# Response integrity: the advertised body hash must match the bytes.
WANT=$(tr -d '\r' < /tmp/chaos_headers | awk 'tolower($1) == "x-perturb-body-sha256:" {print tolower($2)}')
GOT=$(sha256sum /tmp/chaos_degraded.json | cut -d' ' -f1)
if [ -z "$WANT" ] || [ "$WANT" != "$GOT" ]; then
  echo "response hash header $WANT does not match body hash $GOT" >&2
  exit 1
fi

# A damaged upload (checksum contradicts the bytes) is rejected with the
# retryable machine-readable code, not silently analyzed.
ZEROS=0000000000000000000000000000000000000000000000000000000000000000
CODE=$(curl -sS -o /tmp/chaos_mismatch.json -w '%{http_code}' \
  -H "X-Perturb-Content-SHA256: $ZEROS" \
  --data-binary "@$TRACE" "$BASE/v1/analyze")
if [ "$CODE" != "400" ]; then
  echo "damaged upload answered $CODE, want 400" >&2
  exit 1
fi
jq -e '.code == "checksum_mismatch"' /tmp/chaos_mismatch.json >/dev/null

# Repair cannot run degraded: over-budget repair is refused loudly.
CODE=$(curl -sS -o /dev/null -w '%{http_code}' \
  --data-binary "@$TRACE" "$BASE/v1/analyze?repair=1")
if [ "$CODE" != "413" ]; then
  echo "over-budget repair answered $CODE, want 413" >&2
  exit 1
fi

# The stream endpoint hashes the upload as it reads it and verifies at
# EOF; with no window line written yet, a mismatch is a plain 400.
CODE=$(curl -sS -o /tmp/chaos_stream_mismatch.json -w '%{http_code}' \
  -H "X-Perturb-Content-SHA256: $ZEROS" \
  --data-binary "@$TRACE" "$BASE/v1/analyze/stream")
if [ "$CODE" != "400" ]; then
  echo "damaged stream upload answered $CODE, want 400" >&2
  exit 1
fi
jq -e '.code == "checksum_mismatch"' /tmp/chaos_stream_mismatch.json >/dev/null

# A window/slide ratio that would put every event in a trillion windows
# is refused up front instead of stalling the analysis slot.
CODE=$(curl -sS -o /dev/null -w '%{http_code}' --max-time 10 \
  --data-binary "@$TRACE" "$BASE/v1/analyze/stream?window=1000000000000&slide=1")
if [ "$CODE" != "400" ]; then
  echo "runaway window geometry answered $CODE, want 400" >&2
  exit 1
fi

kill -TERM "$PID"
trap - EXIT
if ! wait "$PID"; then
  echo "perturbd exited non-zero after SIGTERM" >&2
  exit 1
fi
echo "chaos smoke: OK"
