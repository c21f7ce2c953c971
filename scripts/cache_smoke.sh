#!/bin/sh
# Result-cache smoke test for the perturbd daemon, run from the repository
# root (CI's cache-smoke job and `make cache-smoke`):
#
#   1. start the daemon with the debug endpoint up,
#   2. storm it with 20 uploads of the same golden trace — the first
#      analyzes ("cached": false), every duplicate must be served from
#      memory ("cached": true) with a response otherwise byte-identical
#      to the first,
#   3. read the cache.* counters off /debug/vars and require a hit ratio
#      of at least 0.85.
set -eu

BIN=${1:?usage: cache_smoke.sh <perturbd binary>}
ADDR=127.0.0.1:7717
DEBUG=127.0.0.1:6717
BASE=http://$ADDR
TRACE=testdata/golden/doacross.bin
TOTAL=20

"$BIN" -addr "$ADDR" -debug-addr "$DEBUG" &
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

# The first upload runs the analysis.
curl -fsS --data-binary "@$TRACE" "$BASE/v1/analyze" > /tmp/cache_smoke_first.json
grep -q '"cached": false' /tmp/cache_smoke_first.json

# Every duplicate is a cache hit, byte-identical modulo the cached flag.
sed 's/"cached": false/"cached": true/' /tmp/cache_smoke_first.json > /tmp/cache_smoke_want.json
i=1
while [ "$i" -lt "$TOTAL" ]; do
  curl -fsS --data-binary "@$TRACE" "$BASE/v1/analyze" > /tmp/cache_smoke_got.json
  diff -u /tmp/cache_smoke_want.json /tmp/cache_smoke_got.json
  i=$((i + 1))
done

# The cache counters are on the debug expvar; the storm above must land
# a hit ratio of at least 0.85 (19 hits / 20 lookups = 0.95).
curl -fsS "http://$DEBUG/debug/vars" > /tmp/cache_smoke_vars.json
jq -r '.obs.counters as $c
  | ([$c[] | select(.name == "cache.hits").value] | add // 0) as $hits
  | ([$c[] | select(.name == "cache.misses").value] | add // 0) as $misses
  | ([$c[] | select(.name == "cache.coalesced").value] | add // 0) as $coalesced
  | "cache smoke: hits=\($hits) misses=\($misses) coalesced=\($coalesced)"' \
  /tmp/cache_smoke_vars.json
jq -e '.obs.counters as $c
  | ([$c[] | select(.name == "cache.hits").value] | add // 0) as $hits
  | ([$c[] | select(.name == "cache.misses").value] | add // 0) as $misses
  | ([$c[] | select(.name == "cache.coalesced").value] | add // 0) as $coalesced
  | ($hits + $misses + $coalesced) as $total
  | $total > 0 and ($hits + $coalesced) / $total >= 0.85' \
  /tmp/cache_smoke_vars.json > /dev/null

kill -TERM "$PID"
trap - EXIT
wait "$PID" || true
echo "cache smoke: OK"
