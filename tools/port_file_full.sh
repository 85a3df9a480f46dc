#!/bin/sh
# Port-file smoke test for the servers, run by ctest.
#
#   port_file_full.sh <workdir> <server> [arg]...
#
# Starts <server> [arg]... with a --port-file whose .tmp is a symlink to
# /dev/full, which fails every write with ENOSPC as a full disk does. The
# server must exit 1 naming the file and leave neither the port file nor
# the .tmp behind, rather than serve on a port no one can learn; timeout
# turns a server that goes on serving into a failure, not a hang.
DIR=$1
shift

PORT_FILE="$DIR/$(basename "$1")_full.port"
rm -f "$PORT_FILE" "$PORT_FILE.tmp"
ln -s /dev/full "$PORT_FILE.tmp"

out=$(timeout 60 "$@" --port-file "$PORT_FILE" 2>&1)
rc=$?
echo "$out"
if [ "$rc" -ne 1 ]; then
  echo "FAIL: exit $rc, want 1"
  exit 1
fi
if ! echo "$out" | grep -qF "$PORT_FILE.tmp"; then
  echo "FAIL: the error does not name $PORT_FILE.tmp"
  exit 1
fi
if [ -e "$PORT_FILE" ] || [ -L "$PORT_FILE.tmp" ]; then
  echo "FAIL: a port file was left behind"
  exit 1
fi
echo ok
