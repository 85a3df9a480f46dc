#!/bin/sh
# Corrupt-ADD smoke test for the serving layer, run by ctest.
#
#   served_corrupt_add.sh <useful_served> <useful_client> <rep> <urpz> <workdir>
#
# Makes two corrupt files from the smoke fixtures: a copy of the packed
# store <urpz> whose engine count (file offset 8) is overwritten with
# 0xffffffff by dd, and the URP1 file <rep> truncated with head -c. Starts
# useful_served on <rep>, sends ADD of each corrupt file, and expects two
# "ERR Corruption" replies, then a ROUTE that still answers, then a clean
# shutdown on QUIT.
set -e

SERVED=$1
CLIENT=$2
REP=$3
URPZ=$4
DIR=$5

OUT="$DIR/served_corrupt_add.out"
PORT_FILE="$DIR/served_corrupt_add.port"
BAD_URPZ="$DIR/corrupt_count.urpz"
BAD_REP="$DIR/corrupt_truncated.rep"
rm -f "$OUT" "$PORT_FILE" "$BAD_URPZ" "$BAD_REP"

cp "$URPZ" "$BAD_URPZ"
printf '\377\377\377\377' |
  dd of="$BAD_URPZ" bs=1 seek=8 count=4 conv=notrunc 2>/dev/null
head -c 200 "$REP" > "$BAD_REP"

"$SERVED" --port 0 --port-file "$PORT_FILE" "$REP" > "$OUT" 2>&1 &
SERVER_PID=$!

fail() {
  echo "FAIL: $*"
  cat "$OUT"
  kill "$SERVER_PID" 2>/dev/null || true
  exit 1
}

PORT=
i=0
while [ $i -lt 100 ]; do
  if [ -f "$PORT_FILE" ]; then
    PORT=$(cat "$PORT_FILE")
    break
  fi
  kill -0 "$SERVER_PID" 2>/dev/null || fail "server died before publishing a port"
  sleep 0.1
  i=$((i + 1))
done
[ -n "$PORT" ] || fail "server never published a port"

# The client exits 1 because two requests get ERR; the replies decide.
REPLY=$(printf 'ADD %s\nADD %s\nROUTE subrange 0.15 0 fox dog\nQUIT\n' \
          "$BAD_URPZ" "$BAD_REP" | "$CLIENT" --port "$PORT") || true
echo "$REPLY"

[ "$(echo "$REPLY" | grep -c '^ERR Corruption')" -eq 2 ] ||
  fail "expected two ERR Corruption replies"
echo "$REPLY" | grep -q "^ERR Corruption: $BAD_URPZ: " ||
  fail "the corrupt store's ERR does not name it"
echo "$REPLY" | grep -q "^ERR Corruption: $BAD_REP: " ||
  fail "the truncated file's ERR does not name it"
# After the two ERRs: the ROUTE's OK header, then QUIT's.
[ "$(echo "$REPLY" | grep -c '^OK')" -eq 2 ] ||
  fail "expected the ROUTE after the bad ADDs to answer OK"

wait "$SERVER_PID" || fail "server exited nonzero"
grep -q 'shut down cleanly' "$OUT" || fail "no clean shutdown"
