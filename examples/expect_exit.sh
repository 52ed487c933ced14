#!/bin/sh
# Usage: expect_exit.sh <status> <text> <command> [args...]
# Runs the command and passes when it exits with <status> and its stderr
# contains <text>.
want=$1
text=$2
shift 2
err=$("$@" 2>&1 >/dev/null)
rc=$?
if [ "$rc" -ne "$want" ]; then
    echo "exit status $rc, want $want; stderr: $err"
    exit 1
fi
case $err in
  *"$text"*) exit 0 ;;
esac
echo "stderr lacks '$text': $err"
exit 1
