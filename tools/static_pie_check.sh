#!/bin/sh
# Link-mode pin for the tools, run by ctest in builds that link them
# -static-pie.
#
#   static_pie_check.sh <readelf> <tool>...
#
# Every tool must be a position-independent executable (ELF type DYN), so
# the kernel loads it at a random base; must keep its GNU_RELRO segment;
# and must have no INTERP header, so no dynamic loader maps shared objects
# before main. A dynamically linked tool names its loader in INTERP.
READELF=$1
shift

status=0
for tool in "$@"; do
  if ! headers=$("$READELF" -hlW "$tool"); then
    echo "FAIL: $READELF -hlW $tool"
    status=1
    continue
  fi
  if ! echo "$headers" | grep -Eq '^ +Type: +DYN'; then
    echo "FAIL: $tool: ELF type is not DYN (not a PIE)"
    status=1
  fi
  if ! echo "$headers" | grep -Eq '^ +GNU_RELRO '; then
    echo "FAIL: $tool: no GNU_RELRO header"
    status=1
  fi
  if echo "$headers" | grep -Eq '^ +INTERP '; then
    echo "FAIL: $tool: INTERP header" \
         "$(echo "$headers" | grep -o 'interpreter: [^]]*')"
    status=1
  fi
done
[ "$status" -eq 0 ] && echo "ok: $# tools are static PIEs"
exit "$status"
