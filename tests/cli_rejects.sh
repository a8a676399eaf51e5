#!/bin/sh
# Asserts that a command line is rejected at parse time: exit code 2,
# the offending flag named on stderr, and nothing on stdout (so no mode
# started — no dataset built, no training epoch run).
#   usage: cli_rejects.sh FLAG COMMAND [ARGS...]
flag=$1
shift
out=$(mktemp) || exit 1
err=$(mktemp) || exit 1
trap 'rm -f "$out" "$err"' EXIT
"$@" >"$out" 2>"$err"
code=$?
if [ "$code" -ne 2 ]; then
  echo "expected exit 2, got $code: $*"
  cat "$err"
  exit 1
fi
if ! grep -q -e "$flag" "$err"; then
  echo "stderr does not name $flag: $*"
  cat "$err"
  exit 1
fi
if [ -s "$out" ]; then
  echo "the command started running before rejecting: $*"
  cat "$out"
  exit 1
fi
echo "rejected as expected: $*"
