#!/bin/sh
# End-to-end smoke test for the perturbd analysis daemon, run from the
# repository root (CI's service-smoke job and `make service-smoke`):
#
#   1. start the daemon and wait for /healthz,
#   2. POST the golden DOACROSS trace with the golden calibration and
#      diff the JSON byte-for-byte against the committed service golden,
#   3. SIGTERM the daemon with a request in flight and require a clean
#      drain: exit status 0.
set -eu

BIN=${1:?usage: service_smoke.sh <perturbd binary>}
ADDR=127.0.0.1:7707
BASE=http://$ADDR
GOLDEN=testdata/golden/service_analyze.json
TRACE=testdata/golden/doacross.bin
# goldenCal as query parameters; keep in sync with golden_service_test.go.
QUERY='event=100&advance=100&awaitb=100&awaite=100&snowait=50&swait=80&advanceop=30&barrier=40'

"$BIN" -addr "$ADDR" -drain-timeout 5s &
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
curl -fsS "$BASE/readyz" | grep -q ready

curl -fsS --data-binary "@$TRACE" "$BASE/v1/analyze?$QUERY" > /tmp/service_analyze.json
diff -u "$GOLDEN" /tmp/service_analyze.json

# Drain: a SIGTERM racing an in-flight request must still exit cleanly.
curl -s --data-binary "@$TRACE" "$BASE/v1/analyze" >/dev/null 2>&1 &
CURL=$!
kill -TERM "$PID"
trap - EXIT
if ! wait "$PID"; then
  echo "perturbd exited non-zero after SIGTERM" >&2
  exit 1
fi
wait "$CURL" 2>/dev/null || true
echo "service smoke: OK"
