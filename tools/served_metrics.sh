#!/bin/sh
# End-to-end observability smoke test for the serving layer, run by ctest.
#
#   served_metrics.sh <useful_served> <useful_client> <rep0> <rep1> <workdir>
#
# Spawns useful_served with every-request tracing (--trace-sample-rate 1),
# drives ROUTE traffic, then scrapes METRICS twice and SLOWLOG once via
# useful_client's one-shot mode. Asserts the exposition is well-formed
# (every sample line is "<series> <number>"), that the two URP1 tables
# report a positive representative_table_bytes gauge, that counters are
# monotone across the two scrapes, and that the slow-query log retained
# the traffic.
set -e

SERVED=$1
CLIENT=$2
REP0=$3
REP1=$4
DIR=$5

OUT="$DIR/served_metrics.out"
PORT_FILE="$DIR/served_metrics.port"
rm -f "$OUT" "$PORT_FILE"

"$SERVED" --port 0 --port-file "$PORT_FILE" \
  --trace-sample-rate 1 --slowlog-size 8 "$REP0" "$REP1" > "$OUT" 2>&1 &
SERVER_PID=$!

PORT=
i=0
while [ $i -lt 100 ]; do
  if [ -f "$PORT_FILE" ]; then
    PORT=$(cat "$PORT_FILE")
    break
  fi
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "server died before publishing a port:"
    cat "$OUT"
    exit 1
  fi
  sleep 0.1
  i=$((i + 1))
done
if [ -z "$PORT" ]; then
  echo "server never published a port:"
  cat "$OUT"
  kill "$SERVER_PID" 2>/dev/null || true
  exit 1
fi

fail() {
  echo "$1"
  kill "$SERVER_PID" 2>/dev/null || true
  exit 1
}

# Checks one scrape for Prometheus text-exposition shape: comments start
# "# ", every other line is "<series> <numeric value>".
check_exposition() {
  echo "$1" | awk '
    /^# / { next }
    NF != 2 { print "bad sample line: " $0; exit 1 }
    $2 !~ /^-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$/ {
      print "non-numeric value: " $0; exit 1
    }
  ' || fail "malformed METRICS exposition"
}

# Extracts one series value from a scrape.
series() {
  echo "$1" | awk -v name="$2" '$1 == name { print $2 }'
}

printf 'ROUTE subrange 0.15 0 fox dog\nROUTE subrange 0.15 0 fox dog\nESTIMATE basic 0.2 fox\n' \
  | "$CLIENT" --port "$PORT" > /dev/null

SCRAPE1=$("$CLIENT" --port "$PORT" METRICS)
check_exposition "$SCRAPE1"
echo "$SCRAPE1" | grep -q '^# TYPE useful_requests_total counter$' \
  || fail "missing TYPE header for useful_requests_total"
echo "$SCRAPE1" | grep -q '^useful_stage_latency_seconds_bucket{stage="estimate",le="' \
  || fail "missing per-stage latency buckets"
TABLE_BYTES=$(series "$SCRAPE1" useful_representative_table_bytes)
[ -n "$TABLE_BYTES" ] && [ "$TABLE_BYTES" -gt 0 ] \
  || fail "representative_table_bytes gauge missing or not positive: '$TABLE_BYTES'"
REQ1=$(series "$SCRAPE1" useful_requests_total)
HITS1=$(series "$SCRAPE1" useful_cache_hits_total)
# Per-engine cache entries: the repeated ROUTE hits once per engine.
[ "$HITS1" = "2" ] || fail "expected the repeated ROUTE to hit the cache, got '$HITS1'"

printf 'ROUTE subrange 0.15 0 quantum physics\n' | "$CLIENT" --port "$PORT" > /dev/null

SCRAPE2=$("$CLIENT" --port "$PORT" METRICS)
check_exposition "$SCRAPE2"
REQ2=$(series "$SCRAPE2" useful_requests_total)
# Counters must be monotone, and the delta covers the first METRICS scrape
# plus the ROUTE in between.
[ "$REQ2" -gt "$REQ1" ] || fail "useful_requests_total not monotone: $REQ1 -> $REQ2"

SLOWLOG=$("$CLIENT" --port "$PORT" SLOWLOG 3)
[ -n "$SLOWLOG" ] || fail "SLOWLOG returned nothing with tracing at rate 1"
echo "$SLOWLOG" | awk '$0 !~ /^total_us=/ { print "bad slowlog line: " $0; exit 1 }' \
  || fail "malformed SLOWLOG line"
echo "$SLOWLOG" | grep -q 'query=' || fail "slowlog entries carry no query"

printf 'QUIT\n' | "$CLIENT" --port "$PORT" > /dev/null

# QUIT must shut the server down cleanly (exit 0).
wait "$SERVER_PID"
grep -q 'shut down cleanly' "$OUT"
