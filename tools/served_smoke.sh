#!/bin/sh
# End-to-end socket smoke test for the serving layer, run by ctest.
#
#   served_smoke.sh <useful_served> <useful_client> <rep0> <rep1> <workdir>
#
# Spawns useful_served on an ephemeral port (--port 0) with a --port-file
# handshake (write-then-rename, so a partial port number is never read),
# drives ROUTE (twice, so the second hits the query cache), STATS, and
# QUIT through useful_client over TCP, asserts the cache hit is visible in
# STATS, and verifies the server exits cleanly after QUIT. Between the
# two, a RELOAD (both files reloaded at once, one loader thread each)
# must leave the ROUTE reply to the first five queries of
# <workdir>/queries.tsv, as one query, as it was, and STATS must count it.
set -e

SERVED=$1
CLIENT=$2
REP0=$3
REP1=$4
DIR=$5

OUT="$DIR/served_smoke.out"
PORT_FILE="$DIR/served_smoke.port"
rm -f "$OUT" "$PORT_FILE"

"$SERVED" --port 0 --port-file "$PORT_FILE" "$REP0" "$REP1" > "$OUT" 2>&1 &
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

REPLY=$(printf 'ROUTE subrange 0.15 0 fox dog\nROUTE subrange 0.15 0 fox dog\nSTATS\n' | "$CLIENT" --port "$PORT") ||
  fail "first session failed: $REPLY"
echo "$REPLY"

# Cache entries are per (engine, query); both engines hit on the repeat.
echo "$REPLY" | grep -q '^cache_hits 2$' ||
  fail "expected the repeated ROUTE to hit the cache (cache_hits 2)"
echo "$REPLY" | grep -q '^cache_misses 2$' ||
  fail "expected exactly one cache miss per engine"

# RELOAD changes no reply byte: the same ROUTE, before and after.
QUERY=$(head -5 "$DIR/queries.tsv" | cut -f2 | tr '\n' ' ')
BEFORE=$("$CLIENT" --port "$PORT" ROUTE subrange 0 0 $QUERY) ||
  fail "ROUTE before RELOAD failed"
[ -n "$BEFORE" ] || fail "ROUTE $QUERY selected no engine"
"$CLIENT" --port "$PORT" RELOAD || fail "RELOAD failed"
AFTER=$("$CLIENT" --port "$PORT" ROUTE subrange 0 0 $QUERY) ||
  fail "ROUTE after RELOAD failed"
echo "$AFTER"
[ "$AFTER" = "$BEFORE" ] ||
  fail "ROUTE after RELOAD differs; before: $BEFORE"
REPLY=$(printf 'STATS\nQUIT\n' | "$CLIENT" --port "$PORT") ||
  fail "last session failed: $REPLY"
echo "$REPLY"
echo "$REPLY" | grep -q '^reloads 1$' || fail "expected reloads 1 in STATS"

# QUIT must shut the server down cleanly (exit 0).
wait "$SERVER_PID"
grep -q 'shut down cleanly' "$OUT"
