#!/bin/sh
# End-to-end smoke test for the streaming analysis endpoint, run from the
# repository root (CI's stream-smoke job and `make stream-smoke`):
#
#   1. start the daemon (cache off, so batch and stream bodies carry no
#      cache fields) and wait for /healthz,
#   2. batch-analyze the golden DOACROSS trace at /v1/analyze,
#   3. upload the same trace to /v1/analyze/stream in small chunks with
#      gaps — the window lines must match the final record's count, and
#      its cumulative result must match the batch response exactly (curl
#      reads its stdin in large blocks, so this does not show windows
#      leaving while the upload is in flight; the Go test
#      TestStreamWindowsBeforeUploadEnds in internal/server does),
#   4. the retired unversioned /analyze path must answer 404.
set -eu

BIN=${1:?usage: stream_smoke.sh <perturbd binary>}
ADDR=127.0.0.1:7708
BASE=http://$ADDR
TRACE=testdata/golden/doacross.bin
# goldenCal as query parameters; keep in sync with golden_service_test.go.
QUERY='event=100&advance=100&awaitb=100&awaite=100&snowait=50&swait=80&advanceop=30&barrier=40'
# 1 us windows over the ~4.25 us golden trace: several window lines.
WINDOW=1000

"$BIN" -addr "$ADDR" -drain-timeout 5s -cache-bytes 0 &
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

curl -fsS --data-binary "@$TRACE" "$BASE/v1/analyze?$QUERY" | jq -S . > /tmp/stream_batch.json
jq -e '.api_version == "v1"' /tmp/stream_batch.json >/dev/null

# Chunked upload: -T - streams stdin with chunked transfer-encoding.
rm -rf /tmp/stream_chunks
mkdir /tmp/stream_chunks
split -b 2048 "$TRACE" /tmp/stream_chunks/c
(for c in /tmp/stream_chunks/c*; do cat "$c"; sleep 0.05; done) |
  curl -fsS -N -X POST -T - "$BASE/v1/analyze/stream?$QUERY&window=$WINDOW" > /tmp/stream.ndjson

tail -n 1 /tmp/stream.ndjson | jq -e '.final == true' >/dev/null
WINDOWS=$(tail -n 1 /tmp/stream.ndjson | jq .windows)
WLINES=$(jq -s '[.[] | select(.window)] | length' /tmp/stream.ndjson)
if [ "$WINDOWS" -lt 2 ] || [ "$WLINES" -ne "$WINDOWS" ]; then
  echo "expected >= 2 window lines matching the final count, got $WLINES lines / $WINDOWS declared" >&2
  exit 1
fi
tail -n 1 /tmp/stream.ndjson | jq -S .result > /tmp/stream_final.json
diff -u /tmp/stream_batch.json /tmp/stream_final.json

# The unversioned alias is gone: /analyze is not found.
STATUS=$(curl -s -o /dev/null -w '%{http_code}' --data-binary "@$TRACE" "$BASE/analyze?$QUERY")
if [ "$STATUS" != 404 ]; then
  echo "POST /analyze answered $STATUS, want 404" >&2
  exit 1
fi

kill -TERM "$PID"
trap - EXIT
if ! wait "$PID"; then
  echo "perturbd exited non-zero after SIGTERM" >&2
  exit 1
fi
echo "stream smoke: OK"
