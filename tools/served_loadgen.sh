#!/bin/sh
# Bounded loadgen smoke, run by ctest (smoke + tsan labels).
#
#   served_loadgen.sh <useful_served> <useful_client> <useful_loadgen>
#                     <rep0> <rep1> <workdir>
#
# Boots one useful_served over both smoke representatives and replays a
# short open-loop Zipfian slice of corpusgen's query log against it:
#
#   - the run must complete with zero ERR replies and zero transport
#     errors (loadgen exits 0);
#   - every request must be answered: replies == sent == --queries;
#   - the server's STATS must account for the full trace, and the
#     Zipfian repeats must have produced real cache hits;
#   - a low-rate phase (1 connection, 50 qps) must report p50 under
#     10 ms, half its 20 ms send interval: replies are stamped when they
#     arrive, not when the generator wakes for its next send.
#
# Sizes are modest (6k requests at 600 qps) because the tsan CI lane
# runs this under a ~10x slowdown. Serving performance is measured by
# bench/e2e, not here.
set -e

SERVED=$1
CLIENT=$2
LOADGEN=$3
REP0=$4
REP1=$5
DIR=$6

LOG="$DIR/loadgen_served.out"
PORT_FILE="$DIR/loadgen_served.port"
OUT="$DIR/loadgen_smoke.out"
LOW="$DIR/loadgen_low.out"
rm -f "$LOG" "$PORT_FILE" "$OUT" "$LOW"

fail() {
  echo "FAIL: $1" >&2
  [ -f "$LOG" ] && { echo "--- $LOG" >&2; cat "$LOG" >&2; }
  [ -f "$OUT" ] && { echo "--- $OUT" >&2; cat "$OUT" >&2; }
  [ -f "$LOW" ] && { echo "--- $LOW" >&2; cat "$LOW" >&2; }
  kill "$SERVED_PID" 2>/dev/null || true
  exit 1
}

"$SERVED" --port 0 --port-file "$PORT_FILE" --threads 2 \
          --reactor-threads 1 "$REP0" "$REP1" > "$LOG" 2>&1 &
SERVED_PID=$!

i=0
while [ ! -f "$PORT_FILE" ]; do
  kill -0 "$SERVED_PID" 2>/dev/null || fail "server died before publishing"
  [ $i -lt 150 ] || fail "server never published a port"
  sleep 0.1
  i=$((i + 1))
done
PORT=$(cat "$PORT_FILE")

"$LOADGEN" --port "$PORT" --connections 2 --qps 600 --queries 6000 \
           --distinct 128 --queries-file "$DIR/queries.tsv" \
           --seed 7 --tag smoke > "$OUT" 2>&1 \
  || fail "loadgen exited nonzero (ERR replies or transport error)"

grep -q 'sent=6000 replies=6000 errors=0' "$OUT" \
  || fail "trace not fully answered: $(head -1 "$OUT")"

"$LOADGEN" --port "$PORT" --connections 1 --qps 50 --queries 150 \
           --distinct 128 --queries-file "$DIR/queries.tsv" \
           --seed 8 --tag low > "$LOW" 2>&1 \
  || fail "low-rate loadgen exited nonzero"
P50=$(sed -n 's/^latency_us: p50=\([0-9]*\) .*/\1/p' "$LOW")
[ "${P50:-20000}" -lt 10000 ] \
  || fail "low-rate p50=${P50}us, expected < 10000 (half the send interval)"

STATS=$("$CLIENT" --port "$PORT" STATS)
REQUESTS=$(echo "$STATS" | awk '$1 == "requests_total" {print $2}')
[ "${REQUESTS:-0}" -ge 6000 ] \
  || fail "server STATS requests_total=$REQUESTS, expected >= 6000"
HITS=$(echo "$STATS" | awk '$1 == "cache_hits" {print $2}')
[ "${HITS:-0}" -gt 0 ] || fail "Zipfian trace produced no cache hits"

printf 'QUIT\n' | "$CLIENT" --port "$PORT" > /dev/null
wait "$SERVED_PID"
grep -q 'shut down cleanly' "$LOG" || fail "server exit was not clean"
echo "loadgen smoke ok: 6000 open-loop requests, 0 errors, hits=$HITS," \
     "low-rate p50=${P50}us"
