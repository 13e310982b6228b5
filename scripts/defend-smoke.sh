#!/usr/bin/env bash
# defend-smoke.sh runs a tiny defended attack campaign end to end through
# the real emsim-defend binary and verifies the determinism contract:
# the same seed must produce byte-identical JSON reports across repeated
# runs AND across worker counts (the per-trace randomization streams are
# keyed by trace index, not by worker scheduling). It also checks the
# report carries the sections a designer acts on, and that a -model
# file that does not load stops the run instead of being overwritten.
set -euo pipefail

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
BIN="$TMP/emsim-defend"
MODEL="$TMP/model.json"

echo "== build"
go build -o "$BIN" ./cmd/emsim-defend

# A model file that exists but does not load (corrupt, or from another
# model-file version) must stop the run: retraining would overwrite it.
echo "== an unreadable model file is an error and is left as it was"
BAD="$TMP/bad-model.json"
printf '{"version": 99, "model": null}' >"$BAD"
cp "$BAD" "$TMP/bad-model.orig"
if "$BIN" -quick -model "$BAD" -tvla-traces 4 -cpa-traces 12 -cpa-step 4 \
     >/dev/null 2>"$TMP/bad.err"; then
  echo "emsim-defend accepted an unreadable model file" >&2; exit 1
fi
cmp "$BAD" "$TMP/bad-model.orig" || {
  echo "emsim-defend overwrote an unreadable model file" >&2; exit 1; }

# One quick training campaign, cached; every evaluation run loads it so
# the determinism comparison only exercises the defend path.
COMMON=(-quick -model "$MODEL" -defense 'shuffle:window=16' -seed 9
        -tvla-traces 8 -cpa-traces 24 -cpa-step 12 -cpa-points 32 -json)

echo "== defended campaign, run 1 (trains + caches the quick model)"
"$BIN" "${COMMON[@]}" -workers 1 >"$TMP/run1.json"

echo "== defended campaign, run 2 (same seed, same workers)"
"$BIN" "${COMMON[@]}" -workers 1 >"$TMP/run2.json"

echo "== defended campaign, run 3 (same seed, 4 workers)"
"$BIN" "${COMMON[@]}" -workers 4 >"$TMP/run3.json"

echo "== determinism: same seed, repeated run"
cmp "$TMP/run1.json" "$TMP/run2.json" || {
  echo "same-seed runs differ" >&2; exit 1; }

echo "== determinism: same seed, different worker count"
cmp "$TMP/run1.json" "$TMP/run3.json" || {
  echo "worker count changed the report" >&2; exit 1; }

echo "== report shape"
for field in '"defense"' '"baseline"' '"defended"' '"tvla_sweep"' \
             '"cpa_ranks"' '"cycle_overhead"' '"attack_cost_multiplier"'; do
  grep -q "$field" "$TMP/run1.json" || {
    echo "report missing $field" >&2; cat "$TMP/run1.json" >&2; exit 1; }
done

echo "== a different seed must change the campaign"
"$BIN" "${COMMON[@]}" -workers 1 -seed 10 >"$TMP/run4.json"
if cmp -s "$TMP/run1.json" "$TMP/run4.json"; then
  echo "seed 9 and seed 10 produced identical reports" >&2; exit 1
fi

echo "ok"
