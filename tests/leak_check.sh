#!/bin/sh
# Leak fixture for the ctest suite: every test requires it, so ctest
# runs "setup" before the first test and "cleanup" after the last.
#
#   $1 = setup | cleanup
#   $2 = state file (written by setup, read by cleanup)
#   $3 = this build's tie_worker binary
#
# setup records the /tmp/tie-* entries and the live processes running
# this build's tie_worker; cleanup fails, naming them, on any entry or
# such process that was not there at setup. Entries earlier runs left
# are recorded, not blamed. Two ctest runs at once on one host see each
# other's /tmp/tie-* entries, so run one suite at a time.
set -e
MODE="$1"
STATE="$2"
WORKER="$(readlink -f "$3")"

snapshot() {
    for e in /tmp/tie-*; do
        [ -e "$e" ] && echo "$e"
    done
    for exe in /proc/[0-9]*/exe; do
        if [ "$(readlink "$exe" 2>/dev/null)" = "$WORKER" ]; then
            pid="${exe#/proc/}"
            echo "tie_worker pid ${pid%/exe}"
        fi
    done
}

case "$MODE" in
  setup)
    snapshot | sort > "$STATE"
    echo "leak_check: $(wc -l < "$STATE") entries before the suite"
    ;;
  cleanup)
    if [ ! -f "$STATE" ]; then
        echo "leak_check: no state file $STATE; run the setup first" >&2
        exit 1
    fi
    NEW="$(snapshot | sort | comm -13 "$STATE" -)"
    if [ -n "$NEW" ]; then
        echo "leak_check: the suite left behind:" >&2
        echo "$NEW" >&2
        exit 1
    fi
    echo "leak_check: nothing left behind"
    ;;
  *)
    echo "usage: leak_check.sh setup|cleanup STATE TIE_WORKER" >&2
    exit 2
    ;;
esac
