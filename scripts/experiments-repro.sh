#!/usr/bin/env bash
# experiments-repro.sh checks that every emsim-bench experiment's output
# is a pure function of its inputs: two full `-quick -groups 3` runs
# must print the same bytes, and each experiment run alone must print
# its section of the full run byte for byte. The experiment names come
# from the table in cmd/emsim-bench/main.go, so a new experiment is
# covered without editing this script. Run it from anywhere:
#
#   scripts/experiments-repro.sh
set -euo pipefail
cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
BIN="$TMP/emsim-bench"
FLAGS=(-quick -groups 3)

# run prints one emsim-bench run's stdout; its stderr (timings) is kept
# in a log that is shown only when the run fails.
run() {
  "$BIN" "${FLAGS[@]}" "$@" 2>"$TMP/stderr.log" || {
    cat "$TMP/stderr.log" >&2
    echo "emsim-bench ${FLAGS[*]} $* failed" >&2
    exit 1
  }
}

# same fails with a diff when two outputs differ.
same() {
  cmp -s "$1" "$2" || {
    echo "$3" >&2
    diff "$1" "$2" | head -40 >&2
    exit 1
  }
}

echo "== build"
go build -o "$BIN" ./cmd/emsim-bench

NAMES=$(sed -nE 's/^[[:space:]]*\{"([a-z0-9]+)", func\(\) \(fmt\.Stringer, error\).*/\1/p' cmd/emsim-bench/main.go)
if [ -z "$NAMES" ]; then
  echo "no experiment names found in cmd/emsim-bench/main.go" >&2
  exit 1
fi

echo "== two full runs"
run >"$TMP/full.txt"
run >"$TMP/full2.txt"
same "$TMP/full.txt" "$TMP/full2.txt" "two full runs printed different output"

echo "== each experiment alone"
for name in $NAMES; do
  run -experiment "$name" >>"$TMP/alone.txt"
done
same "$TMP/full.txt" "$TMP/alone.txt" "an experiment printed different output alone than in the full run"
echo "ok: $(echo "$NAMES" | wc -w) experiments print the same output alone as in the full run"
