#!/bin/sh
# Multi-process cluster smoke test, run by ctest (smoke + tsan labels).
#
#   served_cluster.sh <useful_served> <useful_frontend> <useful_client>
#                     <rep0> <rep1> <workdir> <useful_repgen>
#                     <collection0.trec> <collection1.trec>
#
# Boots a real 2-shard x 2-replica cluster — four useful_served shard
# processes, one useful_frontend, plus a single-process oracle server
# holding BOTH representatives — then walks the failure ladder:
#
#   phase 1  fronted ROUTE/ESTIMATE output is byte-identical to the
#            oracle for every estimator (the scatter-gather merge is
#            invisible to clients), and the front-end's
#            agg_representative_table_bytes is the sum of the shards';
#   phase 2  kill -9 the FIRST replica of shard 0: requests keep
#            answering OK with no DEGRADED marker (failover to the
#            second replica), stale_shards stays 0, rerouted counts it;
#   phase 3  kill the second replica too: replies degrade (DEGRADED on
#            the OK header), stale_shards reports 1;
#   phase 4  restart both replicas on their old ports: the front-end
#            recovers on its own (no restart, no config change),
#            stale_shards returns to 0, and the fronted output is again
#            byte-identical to the oracle;
#   phase 5  pack both collections into mmap'd URPZ stores, boot a second
#            cluster serving them zero-copy behind a fresh front-end, and
#            compare byte-for-byte against an oracle serving the SAME
#            collections as quantized URP1 files (cross-format identity);
#            the front-end sums the shards' packed engines to 2,
#            RELOAD on a packed shard must swap the mapping in place,
#            METRICS must report the packed-store gauges, and 20 UPDATEs
#            of the shard's engine must leave its packed_bytes gauge
#            unchanged (each replaced store is released);
#   phase 6  the annotated query grammar (term^weight, -term, MSM k)
#            travels the scatter-gather path verbatim: fronted replies
#            are byte-identical to the oracle's for weighted, negated,
#            and min-should-match queries, and malformed grammar gets
#            the same ERR from both.
#
# Everything shuts down via QUIT and must log a clean exit. Thread
# counts are minimal: this runs under TSan on small CI boxes.
set -e

SERVED=$1
FRONTEND=$2
CLIENT=$3
REP0=$4
REP1=$5
DIR=$6
REPGEN=$7
TREC0=$8
TREC1=$9

S0A_LOG="$DIR/cluster_s0a.out"; S0A_PORT_FILE="$DIR/cluster_s0a.port"
S0B_LOG="$DIR/cluster_s0b.out"; S0B_PORT_FILE="$DIR/cluster_s0b.port"
S1A_LOG="$DIR/cluster_s1a.out"; S1A_PORT_FILE="$DIR/cluster_s1a.port"
S1B_LOG="$DIR/cluster_s1b.out"; S1B_PORT_FILE="$DIR/cluster_s1b.port"
ORACLE_LOG="$DIR/cluster_oracle.out"; ORACLE_PORT_FILE="$DIR/cluster_oracle.port"
FE_LOG="$DIR/cluster_fe.out"; FE_PORT_FILE="$DIR/cluster_fe.port"
rm -f "$S0A_LOG" "$S0B_LOG" "$S1A_LOG" "$S1B_LOG" "$ORACLE_LOG" "$FE_LOG" \
      "$S0A_PORT_FILE" "$S0B_PORT_FILE" "$S1A_PORT_FILE" "$S1B_PORT_FILE" \
      "$ORACLE_PORT_FILE" "$FE_PORT_FILE" \
      "$DIR"/cluster_p0.out "$DIR"/cluster_p0.port \
      "$DIR"/cluster_p1.out "$DIR"/cluster_p1.port \
      "$DIR"/cluster_poracle.out "$DIR"/cluster_poracle.port \
      "$DIR"/cluster_pfe.out "$DIR"/cluster_pfe.port

ALL_PIDS=""
# Diagnostics go to stderr: fail() sometimes runs inside a $(...) whose
# stdout is being captured.
fail() {
  echo "FAIL: $1" >&2
  for log in "$S0A_LOG" "$S0B_LOG" "$S1A_LOG" "$S1B_LOG" "$ORACLE_LOG" \
             "$FE_LOG" "$DIR/cluster_p0.out" "$DIR/cluster_p1.out" \
             "$DIR/cluster_poracle.out" "$DIR/cluster_pfe.out"; do
    [ -f "$log" ] && { echo "--- $log" >&2; cat "$log" >&2; }
  done
  # shellcheck disable=SC2086
  kill $ALL_PIDS 2>/dev/null || true
  exit 1
}

# start_served <log> <port_file> <port> <rep>...; sets STARTED_PID. Runs
# in the main shell (not $(...)) so the server stays wait-able.
start_served() {
  log=$1; port_file=$2; port=$3; shift 3
  rm -f "$port_file"
  "$SERVED" --port "$port" --port-file "$port_file" \
            --threads 1 --reactor-threads 1 "$@" > "$log" 2>&1 &
  STARTED_PID=$!
}

wait_port() {
  # wait_port <port_file> <pid> <what>; echoes the published port.
  i=0
  while [ $i -lt 150 ]; do
    if [ -f "$1" ]; then cat "$1"; return 0; fi
    kill -0 "$2" 2>/dev/null || fail "$3 died before publishing a port"
    sleep 0.1
    i=$((i + 1))
  done
  fail "$3 never published a port"
}

# --- boot: 2 shards x 2 replicas, the oracle, then the front-end.
start_served "$S0A_LOG" "$S0A_PORT_FILE" 0 "$REP0"; S0A_PID=$STARTED_PID
start_served "$S0B_LOG" "$S0B_PORT_FILE" 0 "$REP0"; S0B_PID=$STARTED_PID
start_served "$S1A_LOG" "$S1A_PORT_FILE" 0 "$REP1"; S1A_PID=$STARTED_PID
start_served "$S1B_LOG" "$S1B_PORT_FILE" 0 "$REP1"; S1B_PID=$STARTED_PID
start_served "$ORACLE_LOG" "$ORACLE_PORT_FILE" 0 "$REP0" "$REP1"
ORACLE_PID=$STARTED_PID
ALL_PIDS="$S0A_PID $S0B_PID $S1A_PID $S1B_PID $ORACLE_PID"

S0A_PORT=$(wait_port "$S0A_PORT_FILE" "$S0A_PID" "shard 0 replica a")
S0B_PORT=$(wait_port "$S0B_PORT_FILE" "$S0B_PID" "shard 0 replica b")
S1A_PORT=$(wait_port "$S1A_PORT_FILE" "$S1A_PID" "shard 1 replica a")
S1B_PORT=$(wait_port "$S1B_PORT_FILE" "$S1B_PID" "shard 1 replica b")
ORACLE_PORT=$(wait_port "$ORACLE_PORT_FILE" "$ORACLE_PID" "oracle")

CLUSTER="127.0.0.1:$S0A_PORT,127.0.0.1:$S0B_PORT|127.0.0.1:$S1A_PORT,127.0.0.1:$S1B_PORT"
# Short probe backoff + generous io timeout: CI may run this under TSan.
"$FRONTEND" --cluster "$CLUSTER" --port 0 --port-file "$FE_PORT_FILE" \
            --threads 1 --reactor-threads 1 \
            --probe-backoff-ms 100 --io-timeout-ms 30000 > "$FE_LOG" 2>&1 &
FE_PID=$!
ALL_PIDS="$ALL_PIDS $FE_PID"
FE_PORT=$(wait_port "$FE_PORT_FILE" "$FE_PID" "front-end")

# compare_to_oracle <tag>: fronted answers == oracle answers, byte for byte.
compare_to_oracle() {
  for est in subrange subrange-nomax basic adaptive disjoint; do
    for query in "fox dog" "fox" "dog cat mouse"; do
      "$CLIENT" --port "$FE_PORT" ESTIMATE "$est" 0.1 $query \
          > "$DIR/cluster_fe_reply" \
          || fail "$1: fronted ESTIMATE $est '$query' errored"
      "$CLIENT" --port "$ORACLE_PORT" ESTIMATE "$est" 0.1 $query \
          > "$DIR/cluster_oracle_reply" \
          || fail "$1: oracle ESTIMATE $est '$query' errored"
      cmp -s "$DIR/cluster_fe_reply" "$DIR/cluster_oracle_reply" \
          || fail "$1: ESTIMATE $est '$query' diverged from the oracle"
      "$CLIENT" --port "$FE_PORT" ROUTE "$est" 0.1 1 $query \
          > "$DIR/cluster_fe_reply" \
          || fail "$1: fronted ROUTE $est '$query' errored"
      "$CLIENT" --port "$ORACLE_PORT" ROUTE "$est" 0.1 1 $query \
          > "$DIR/cluster_oracle_reply" \
          || fail "$1: oracle ROUTE $est '$query' errored"
      cmp -s "$DIR/cluster_fe_reply" "$DIR/cluster_oracle_reply" \
          || fail "$1: ROUTE $est '$query' diverged from the oracle"
    done
  done
}

port_stat() {
  # port_stat <port> <key>: that key's value in the STATS of that server.
  "$CLIENT" --port "$1" STATS | awk -v k="$2" '$1 == k {print $2}'
}

stat_value() {
  # stat_value <key>: that key's value in the front-end's STATS.
  port_stat "$FE_PORT" "$1"
}

# --- phase 1: the cluster is protocol-invisible.
compare_to_oracle "phase1"
[ "$(stat_value stale_shards)" = "0" ] || fail "phase1: stale_shards != 0"
# The shards partition the engines, so the cluster's term tables are the
# sum of theirs.
S0_TABLES=$(port_stat "$S0A_PORT" representative_table_bytes)
S1_TABLES=$(port_stat "$S1A_PORT" representative_table_bytes)
[ "${S0_TABLES:-0}" -gt 0 ] && [ "${S1_TABLES:-0}" -gt 0 ] \
  || fail "phase1: shard table bytes '$S0_TABLES' '$S1_TABLES' not positive"
AGG_TABLES=$(stat_value agg_representative_table_bytes)
[ "$AGG_TABLES" = "$((S0_TABLES + S1_TABLES))" ] \
  || fail "phase1: agg_representative_table_bytes $AGG_TABLES is not $S0_TABLES + $S1_TABLES"
echo "phase 1 ok: fronted output byte-identical to the oracle"

# --- phase 2: kill the PREFERRED replica of shard 0 mid-load.
kill -9 "$S0A_PID"
wait "$S0A_PID" 2>/dev/null || true
REPLIES=$(yes "ROUTE subrange 0.1 0 fox dog" | head -10 | "$CLIENT" --port "$FE_PORT")
OK_COUNT=$(echo "$REPLIES" | grep -c '^OK')
[ "$OK_COUNT" = "10" ] || fail "phase2: expected 10 OK replies, got $OK_COUNT"
echo "$REPLIES" | grep '^OK' | grep -q DEGRADED \
  && fail "phase2: failover reply was DEGRADED"
[ "$(stat_value stale_shards)" = "0" ] || fail "phase2: stale_shards != 0"
REROUTED=$(stat_value rerouted)
[ "${REROUTED:-0}" -ge 1 ] || fail "phase2: rerouted=$REROUTED, expected >= 1"
compare_to_oracle "phase2"
echo "phase 2 ok: replica death absorbed by failover (rerouted=$REROUTED)"

# --- phase 3: kill the surviving replica — the whole shard is down.
kill -9 "$S0B_PID"
wait "$S0B_PID" 2>/dev/null || true
REPLIES=$(yes "ROUTE subrange 0.1 0 fox dog" | head -5 | "$CLIENT" --port "$FE_PORT")
echo "$REPLIES" | grep -q '^OK [0-9]* DEGRADED$' \
  || fail "phase3: expected DEGRADED replies with shard 0 down"
echo "$REPLIES" | grep -q '^ERR' && fail "phase3: degraded mode returned ERR"
[ "$(stat_value stale_shards)" = "1" ] || fail "phase3: stale_shards != 1"
echo "phase 3 ok: whole-shard outage degrades instead of failing"

# --- phase 4: restart both replicas on their old ports; the front-end
# must recover without any intervention.
start_served "$S0A_LOG" "$S0A_PORT_FILE" "$S0A_PORT" "$REP0"
S0A_PID=$STARTED_PID
start_served "$S0B_LOG" "$S0B_PORT_FILE" "$S0B_PORT" "$REP0"
S0B_PID=$STARTED_PID
ALL_PIDS="$ALL_PIDS $S0A_PID $S0B_PID"
wait_port "$S0A_PORT_FILE" "$S0A_PID" "restarted shard 0 replica a" >/dev/null
wait_port "$S0B_PORT_FILE" "$S0B_PID" "restarted shard 0 replica b" >/dev/null

RECOVERED=0
i=0
while [ $i -lt 50 ]; do
  HEADER=$(printf 'ROUTE subrange 0.1 0 fox dog\n' | "$CLIENT" --port "$FE_PORT" | head -1)
  case "$HEADER" in
    "OK "*DEGRADED) ;;
    OK*) RECOVERED=1; break ;;
    *) fail "phase4: unexpected reply: $HEADER" ;;
  esac
  sleep 0.1
  i=$((i + 1))
done
[ "$RECOVERED" = "1" ] || fail "phase4: front-end never recovered"
[ "$(stat_value stale_shards)" = "0" ] || fail "phase4: stale_shards != 0"
compare_to_oracle "phase4"
echo "phase 4 ok: restarted shard rejoined, output byte-identical again"

# --- phase 5: a second cluster over packed URPZ stores, cross-checked
# byte-for-byte against an oracle serving the same collections as
# quantized URP1 files. The packer and the quantizer train through the
# same code path, so the two formats must be indistinguishable on the
# wire.
P0_STORE="$DIR/cluster_s0.urpz"; P1_STORE="$DIR/cluster_s1.urpz"
O0_REP="$DIR/cluster_o0.rep"; O1_REP="$DIR/cluster_o1.rep"
"$REPGEN" "$TREC0" "$P0_STORE" --pack > /dev/null \
  || fail "phase5: packing shard 0 store failed"
"$REPGEN" "$TREC1" "$P1_STORE" --pack > /dev/null \
  || fail "phase5: packing shard 1 store failed"
"$REPGEN" "$TREC0" "$O0_REP" --quantize > /dev/null \
  || fail "phase5: quantized oracle rep 0 failed"
"$REPGEN" "$TREC1" "$O1_REP" --quantize > /dev/null \
  || fail "phase5: quantized oracle rep 1 failed"

P0_LOG="$DIR/cluster_p0.out"; P0_PORT_FILE="$DIR/cluster_p0.port"
P1_LOG="$DIR/cluster_p1.out"; P1_PORT_FILE="$DIR/cluster_p1.port"
PORACLE_LOG="$DIR/cluster_poracle.out"
PORACLE_PORT_FILE="$DIR/cluster_poracle.port"
PFE_LOG="$DIR/cluster_pfe.out"; PFE_PORT_FILE="$DIR/cluster_pfe.port"
start_served "$P0_LOG" "$P0_PORT_FILE" 0 "$P0_STORE"; P0_PID=$STARTED_PID
start_served "$P1_LOG" "$P1_PORT_FILE" 0 "$P1_STORE"; P1_PID=$STARTED_PID
start_served "$PORACLE_LOG" "$PORACLE_PORT_FILE" 0 "$O0_REP" "$O1_REP"
PORACLE_PID=$STARTED_PID
ALL_PIDS="$ALL_PIDS $P0_PID $P1_PID $PORACLE_PID"
P0_PORT=$(wait_port "$P0_PORT_FILE" "$P0_PID" "packed shard 0")
P1_PORT=$(wait_port "$P1_PORT_FILE" "$P1_PID" "packed shard 1")
PORACLE_PORT=$(wait_port "$PORACLE_PORT_FILE" "$PORACLE_PID" \
                         "packed-phase oracle")

"$FRONTEND" --cluster "127.0.0.1:$P0_PORT|127.0.0.1:$P1_PORT" \
            --port 0 --port-file "$PFE_PORT_FILE" \
            --threads 1 --reactor-threads 1 \
            --probe-backoff-ms 100 --io-timeout-ms 30000 > "$PFE_LOG" 2>&1 &
PFE_PID=$!
ALL_PIDS="$ALL_PIDS $PFE_PID"
PFE_PORT=$(wait_port "$PFE_PORT_FILE" "$PFE_PID" "packed-phase front-end")

# Give the fresh front-end until its first shard probes land: with one
# replica per shard there is no failover to hide an unprobed shard.
READY=0
i=0
while [ $i -lt 50 ]; do
  if printf 'ESTIMATE subrange 0.1 fox\n' | "$CLIENT" --port "$PFE_PORT" \
       > /dev/null 2>&1; then READY=1; break; fi
  sleep 0.1
  i=$((i + 1))
done
[ "$READY" = "1" ] || fail "phase5: packed front-end never became ready"
[ "$(port_stat "$PFE_PORT" agg_representative_packed_engines)" = "2" ] \
  || fail "phase5: packed front-end does not report agg_representative_packed_engines 2"

# The packed shard must report its store through the METRICS gauges.
SCRAPE=$("$CLIENT" --port "$P0_PORT" METRICS)
echo "$SCRAPE" | grep -q '^useful_representative_packed_engines 1$' \
  || fail "phase5: packed shard does not report packed_engines 1"
PACKED_BYTES=$(echo "$SCRAPE" \
  | awk '$1 == "useful_representative_packed_bytes" {print $2}')
[ "${PACKED_BYTES%.*}" -gt 0 ] 2>/dev/null \
  || fail "phase5: packed_bytes gauge not positive: '$PACKED_BYTES'"

# RELOAD on a packed shard is an mmap swap; it must keep serving the
# same single engine afterwards.
RELOAD_REPLY=$(printf 'RELOAD\n' | "$CLIENT" --port "$P0_PORT")
echo "$RELOAD_REPLY" | grep -q '^engines 1$' \
  || fail "phase5: RELOAD on the packed shard did not answer 'engines 1'"

# An UPDATE from a store replaces the engine's view, and the store it
# replaced must be released with it: 20 UPDATEs of the shard's only engine
# leave the packed_bytes gauge where it was, not 20 files higher.
UPDATES=$(i=0; while [ $i -lt 20 ]; do
            printf 'UPDATE %s\n' "$P0_STORE"; i=$((i + 1)); done \
          | "$CLIENT" --port "$P0_PORT")
[ "$(echo "$UPDATES" | grep -c '^updated 1$')" = "20" ] \
  || fail "phase5: 20 UPDATEs of the packed shard did not all answer 'updated 1'"
UPDATED_BYTES=$("$CLIENT" --port "$P0_PORT" METRICS \
  | awk '$1 == "useful_representative_packed_bytes" {print $2}')
[ "$UPDATED_BYTES" = "$PACKED_BYTES" ] \
  || fail "phase5: packed_bytes moved from $PACKED_BYTES to $UPDATED_BYTES after 20 UPDATEs"

SAVED_FE_PORT=$FE_PORT; SAVED_ORACLE_PORT=$ORACLE_PORT
FE_PORT=$PFE_PORT; ORACLE_PORT=$PORACLE_PORT
compare_to_oracle "phase5"
FE_PORT=$SAVED_FE_PORT; ORACLE_PORT=$SAVED_ORACLE_PORT
echo "phase 5 ok: packed-store cluster byte-identical to the URP1 oracle"

# --- phase 6: the annotated grammar end to end through the primary
# cluster. Queries go over stdin so '-term' is never mistaken for a
# client flag.
check_annotated() {
  # check_annotated <request line>: fronted reply == oracle reply.
  printf '%s\n' "$1" | "$CLIENT" --port "$FE_PORT" > "$DIR/cluster_fe_reply" \
    || fail "phase6: fronted '$1' errored"
  printf '%s\n' "$1" | "$CLIENT" --port "$ORACLE_PORT" \
      > "$DIR/cluster_oracle_reply" \
    || fail "phase6: oracle '$1' errored"
  cmp -s "$DIR/cluster_fe_reply" "$DIR/cluster_oracle_reply" \
    || fail "phase6: '$1' diverged from the oracle"
}
for est in subrange basic adaptive; do
  check_annotated "ESTIMATE $est 0.1 fox^2.5 dog"
  check_annotated "ESTIMATE $est 0.1 fox -dog"
  check_annotated "ESTIMATE $est 0.1 fox dog MSM 2"
  check_annotated "ESTIMATE $est 0.1 fox^0.5 -cat dog MSM 1"
  check_annotated "ROUTE $est 0.1 1 fox^2 -dog MSM 1"
done
# Malformed grammar: the client exits nonzero on an ERR reply, so only
# the reply bytes are compared.
for bad in "ESTIMATE subrange 0.1 fox -" "ESTIMATE subrange 0.1 fox^" \
           "ESTIMATE subrange 0.1 fox MSM 1025"; do
  printf '%s\n' "$bad" | "$CLIENT" --port "$FE_PORT" \
      > "$DIR/cluster_fe_reply" || true
  printf '%s\n' "$bad" | "$CLIENT" --port "$ORACLE_PORT" \
      > "$DIR/cluster_oracle_reply" || true
  cmp -s "$DIR/cluster_fe_reply" "$DIR/cluster_oracle_reply" \
    || fail "phase6: '$bad' diverged from the oracle"
  head -1 "$DIR/cluster_fe_reply" | grep -q '^ERR' \
    || fail "phase6: '$bad' did not produce an ERR reply"
done
echo "phase 6 ok: annotated grammar byte-identical through the front-end"

# --- clean shutdown, front-ends first (their QUIT is never forwarded).
printf 'QUIT\n' | "$CLIENT" --port "$FE_PORT" > /dev/null
wait "$FE_PID"
grep -q 'shut down cleanly' "$FE_LOG" || fail "front-end exit was not clean"
printf 'QUIT\n' | "$CLIENT" --port "$PFE_PORT" > /dev/null
wait "$PFE_PID"
grep -q 'shut down cleanly' "$PFE_LOG" \
  || fail "packed-phase front-end exit was not clean"
for port in "$S0A_PORT" "$S0B_PORT" "$S1A_PORT" "$S1B_PORT" "$ORACLE_PORT" \
            "$P0_PORT" "$P1_PORT" "$PORACLE_PORT"; do
  printf 'QUIT\n' | "$CLIENT" --port "$port" > /dev/null
done
wait "$S0A_PID" "$S0B_PID" "$S1A_PID" "$S1B_PID" "$ORACLE_PID" \
     "$P0_PID" "$P1_PID" "$PORACLE_PID"
for log in "$S0A_LOG" "$S0B_LOG" "$S1A_LOG" "$S1B_LOG" "$ORACLE_LOG" \
           "$P0_LOG" "$P1_LOG" "$PORACLE_LOG"; do
  grep -q 'shut down cleanly' "$log" || fail "$log exit was not clean"
done
echo "cluster smoke ok"
