#!/bin/sh
# Live-churn smoke, run by ctest (smoke + tsan labels).
#
#   served_churn.sh <useful_served> <useful_frontend> <useful_client>
#                   <useful_repgen> <smokedir>
#
# Boots a 2-shard x 2-replica cluster (shard 0 serves group00, shard 1
# serves group01, each declaring its slice with --num-shards/--shard-index)
# behind a front-end, and puts closed-loop background traffic on it: one
# useful_client on one kept connection, fed `ESTIMATE subrange 0.1 <query>`
# for every line of queries.tsv, pass after pass. It then runs >= 10 full
# churn cycles through the front-end while that stream is in flight:
#
#   ADD churn_g2.rep     exactly one shard (group02's hash owner) must
#                        register it: the fanned reply says "added 1";
#   UPDATE churn_g2.rep  the owner re-registers it: "updated 1";
#   DROP group02         the owner drops it, the other shard's NotFound
#                        is tolerated: "dropped 1".
#
# Invariants asserted every cycle:
#   - no torn snapshot: the background stream gets ZERO ERR replies and
#     its connection never breaks (useful_client exits 0) even though
#     every reply raced a snapshot swap. The stream has a reply before
#     the first cycle, is still running after the last, and gets replies
#     in between;
#   - untouched engines are byte-identical: mid-cycle (group02 live) the
#     group00/group01 lines of a fronted ESTIMATE equal the pre-churn
#     baseline bytes exactly, and after the DROP the whole reply does.
#
# After the cycles, a DROP of the now-absent engine must fail NotFound
# through the front-end (the tolerated per-shard NotFound only absorbs
# non-owners, not a cluster-wide miss). The front-end's STATS must then
# count every request (requests_total), show that DROP as its only error
# (errors_total 1), and show the repeated queries hitting the shards'
# caches (agg_cache_hits).
set -e

SERVED=$1
FRONTEND=$2
CLIENT=$3
REPGEN=$4
DIR=$5

CYCLES=12

G2="$DIR/churn_g2.rep"
BG_OUT="$DIR/churn_bg.txt"
BG_STOP="$DIR/churn_bg.stop"
rm -f "$G2" "$BG_OUT" "$BG_STOP" "$DIR"/churn_*.out "$DIR"/churn_*.port \
      "$DIR"/churn_base.txt "$DIR"/churn_mid.txt "$DIR"/churn_end.txt

ALL_PIDS=""
fail() {
  echo "FAIL: $1" >&2
  for log in "$DIR"/churn_*.out; do
    [ -f "$log" ] && { echo "--- $log" >&2; cat "$log" >&2; }
  done
  # shellcheck disable=SC2086
  kill $ALL_PIDS 2>/dev/null || true
  exit 1
}

"$REPGEN" "$DIR/group02.trec" "$G2" --quantize > /dev/null \
  || fail "building the churn representative failed"

start_served() {
  # start_served <name> <shard-index> <rep>; sets STARTED_PID.
  log="$DIR/churn_$1.out"; port_file="$DIR/churn_$1.port"
  shard=$2; shift 2
  rm -f "$port_file"
  "$SERVED" --port 0 --port-file "$port_file" --threads 1 \
            --reactor-threads 1 --num-shards 2 --shard-index "$shard" \
            "$@" > "$log" 2>&1 &
  STARTED_PID=$!
}

wait_port() {
  # wait_port <name> <pid>; echoes the published port.
  i=0
  while [ $i -lt 150 ]; do
    if [ -f "$DIR/churn_$1.port" ]; then cat "$DIR/churn_$1.port"; return 0; fi
    kill -0 "$2" 2>/dev/null || fail "$1 died before publishing a port"
    sleep 0.1
    i=$((i + 1))
  done
  fail "$1 never published a port"
}

start_served s0a 0 "$DIR/g0.rep"; S0A_PID=$STARTED_PID
start_served s0b 0 "$DIR/g0.rep"; S0B_PID=$STARTED_PID
start_served s1a 1 "$DIR/g1.rep"; S1A_PID=$STARTED_PID
start_served s1b 1 "$DIR/g1.rep"; S1B_PID=$STARTED_PID
ALL_PIDS="$S0A_PID $S0B_PID $S1A_PID $S1B_PID"
S0A=$(wait_port s0a "$S0A_PID"); S0B=$(wait_port s0b "$S0B_PID")
S1A=$(wait_port s1a "$S1A_PID"); S1B=$(wait_port s1b "$S1B_PID")

CLUSTER="127.0.0.1:$S0A,127.0.0.1:$S0B|127.0.0.1:$S1A,127.0.0.1:$S1B"
"$FRONTEND" --cluster "$CLUSTER" --port 0 --port-file "$DIR/churn_fe.port" \
            --threads 1 --reactor-threads 1 --probe-backoff-ms 100 \
            --io-timeout-ms 30000 > "$DIR/churn_fe.out" 2>&1 &
FE_PID=$!
ALL_PIDS="$ALL_PIDS $FE_PID"
FE=$(wait_port fe "$FE_PID")

# A corpus-vocabulary probe query (nonzero scores, stable ranking).
PROBE=$(head -1 "$DIR/queries.tsv" | cut -f2)
[ -n "$PROBE" ] || fail "queries.tsv has no probe query"

# Pre-churn baseline: the byte-identity anchor for untouched engines.
# shellcheck disable=SC2086
"$CLIENT" --port "$FE" ESTIMATE subrange 0.1 $PROBE > "$DIR/churn_base.txt" \
  || fail "baseline ESTIMATE errored"
grep -q '^group00 ' "$DIR/churn_base.txt" || fail "baseline missing group00"
grep -q '^group01 ' "$DIR/churn_base.txt" || fail "baseline missing group01"

# Background stream for the whole churn window; the client's exit code
# is the no-torn-snapshot verdict. The writer stops at the stop file, when
# this script is gone, or when the client is gone and a write fails.
while [ ! -f "$BG_STOP" ] && kill -0 $$ 2>/dev/null &&
      awk -F '\t' '$2 != "" {print "ESTIMATE subrange 0.1 " $2}' \
          "$DIR/queries.tsv"; do
  :
done | "$CLIENT" --port "$FE" > "$BG_OUT" 2> "$DIR/churn_bg.out" &
BG_PID=$!
ALL_PIDS="$ALL_PIDS $BG_PID"

bg_replies() { grep -c '^OK' "$BG_OUT" || true; }
i=0
until grep -q '^OK' "$BG_OUT" 2>/dev/null; do
  kill -0 "$BG_PID" 2>/dev/null \
    || fail "background client died before its first reply"
  [ $i -lt 150 ] || fail "background client got no reply"
  sleep 0.1
  i=$((i + 1))
done
BG_BEFORE=$(bg_replies)

cycle=1
while [ $cycle -le $CYCLES ]; do
  "$CLIENT" --port "$FE" ADD "$G2" > "$DIR/churn_verb.out" \
    || fail "cycle $cycle: fronted ADD errored"
  grep -q '^added 1$' "$DIR/churn_verb.out" \
    || fail "cycle $cycle: ADD did not report 'added 1'"

  # Mid-cycle: group02 is live; the untouched engines' reply lines must
  # be byte-identical to the pre-churn baseline (scoped invalidation —
  # their cache generations never moved).
  # shellcheck disable=SC2086
  "$CLIENT" --port "$FE" ESTIMATE subrange 0.1 $PROBE > "$DIR/churn_mid.txt" \
    || fail "cycle $cycle: mid-cycle ESTIMATE errored"
  grep -q '^group02 ' "$DIR/churn_mid.txt" \
    || fail "cycle $cycle: added engine missing from the ranking"
  grep -E '^group00 |^group01 ' "$DIR/churn_mid.txt" \
    | cmp -s - "$DIR/churn_base.txt" \
    || fail "cycle $cycle: untouched engines' lines changed after ADD"

  "$CLIENT" --port "$FE" UPDATE "$G2" > "$DIR/churn_verb.out" \
    || fail "cycle $cycle: fronted UPDATE errored"
  grep -q '^updated 1$' "$DIR/churn_verb.out" \
    || fail "cycle $cycle: UPDATE did not report 'updated 1'"

  "$CLIENT" --port "$FE" DROP group02 > "$DIR/churn_verb.out" \
    || fail "cycle $cycle: fronted DROP errored"
  grep -q '^dropped 1$' "$DIR/churn_verb.out" \
    || fail "cycle $cycle: DROP did not report 'dropped 1'"

  # Post-drop the cluster is back to the baseline engine set: the whole
  # reply must be byte-identical.
  # shellcheck disable=SC2086
  "$CLIENT" --port "$FE" ESTIMATE subrange 0.1 $PROBE > "$DIR/churn_end.txt" \
    || fail "cycle $cycle: post-drop ESTIMATE errored"
  cmp -s "$DIR/churn_end.txt" "$DIR/churn_base.txt" \
    || fail "cycle $cycle: post-drop reply diverged from the baseline"
  cycle=$((cycle + 1))
done
echo "churn: $CYCLES add/update/drop cycles, untouched replies byte-identical"

kill -0 "$BG_PID" 2>/dev/null \
  || fail "background client ended before the last cycle"
BG_DURING=$(($(bg_replies) - BG_BEFORE))
[ "$BG_DURING" -gt 0 ] \
  || fail "background client got no reply during the cycles"
: > "$BG_STOP"
wait "$BG_PID" || fail "background stream saw an ERR reply or a dead \
connection: $(grep -m 1 '^ERR' "$BG_OUT")"
BG_REPLIES=$(bg_replies)
echo "churn: background stream got $BG_REPLIES replies," \
     "$BG_BEFORE before the first cycle and $BG_DURING during the cycles"

# A cluster-wide miss must still surface as NotFound.
"$CLIENT" --port "$FE" DROP group02 > /dev/null 2>"$DIR/churn_err.txt" \
  && fail "DROP of an absent engine succeeded"
grep -q 'NotFound' "$DIR/churn_err.txt" \
  || fail "DROP of an absent engine was not NotFound"

STATS=$("$CLIENT" --port "$FE" STATS) || fail "STATS errored"
stat_of() { echo "$STATS" | awk -v key="$1" '$1 == key {print $2}'; }

# The owner shard's snapshot epoch moved 3x per cycle; the front-end's
# max-aggregated gauge must show it.
EPOCH=$(stat_of agg_snapshot_epoch)
[ "${EPOCH:-0}" -ge "$CYCLES" ] \
  || fail "agg_snapshot_epoch=$EPOCH, expected >= $CYCLES"

# Every request was counted: the background replies plus this script's
# baseline ESTIMATE, five per cycle, and the absent-engine DROP.
REQUESTS=$(stat_of requests_total)
WANT=$((BG_REPLIES + 2 + 5 * CYCLES))
[ "${REQUESTS:-0}" -ge "$WANT" ] \
  || fail "requests_total=$REQUESTS, expected >= $WANT"
ERRORS=$(stat_of errors_total)
[ "$ERRORS" = 1 ] \
  || fail "errors_total=$ERRORS, expected 1 (the absent-engine DROP)"
HITS=$(stat_of agg_cache_hits)
[ "${HITS:-0}" -gt 0 ] || fail "repeated queries produced no cache hits"

printf 'QUIT\n' | "$CLIENT" --port "$FE" > /dev/null
wait "$FE_PID"
grep -q 'shut down cleanly' "$DIR/churn_fe.out" \
  || fail "front-end exit was not clean"
for port in "$S0A" "$S0B" "$S1A" "$S1B"; do
  printf 'QUIT\n' | "$CLIENT" --port "$port" > /dev/null
done
wait "$S0A_PID" "$S0B_PID" "$S1A_PID" "$S1B_PID"
for name in s0a s0b s1a s1b; do
  grep -q 'shut down cleanly' "$DIR/churn_$name.out" \
    || fail "churn_$name exit was not clean"
done
echo "churn smoke ok: requests_total=$REQUESTS errors_total=$ERRORS" \
     "agg_cache_hits=$HITS"
