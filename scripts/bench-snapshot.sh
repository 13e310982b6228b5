#!/usr/bin/env bash
# bench-snapshot.sh runs the attack-sweep analytics ladder, the
# simulation-throughput benchmark and five layer benchmarks (instruction
# decode, the streaming CPA accumulator, one device capture, and the
# activity fit's stepwise selection and least-squares refit at their
# training size) once each
# (-benchtime=1x: a smoke-grade snapshot, not a statistically stable
# measurement) and distills the rungs into BENCH_attack.json — one
# record per benchmark with ns/op, B/op, allocs/op and the traces/s (or
# cycles/s) custom metric — so CI can archive a comparable perf artifact
# per commit.
set -euo pipefail

OUT_DIR="${1:-bench-artifacts}"
mkdir -p "$OUT_DIR"
RAW="$OUT_DIR/bench-raw.txt"
JSON="$OUT_DIR/BENCH_attack.json"

echo "== benchmarks (1 iteration each)"
go test -run '^$' -bench 'BenchmarkAttackSweep|BenchmarkSimulationThroughput' \
  -benchtime=1x -benchmem . | tee "$RAW"
go test -run '^$' -bench 'BenchmarkDecode$|BenchmarkCorrAccumulatorAdd$|BenchmarkDeviceCapture$|BenchmarkStepwiseTrainingShape$|BenchmarkLeastSquaresTrainingShape$' \
  -benchtime=1x -benchmem ./internal/isa ./internal/stats ./internal/device ./internal/linalg | tee -a "$RAW"

echo "== distill to $JSON"
awk '
BEGIN { print "["; first = 1 }
/^Benchmark/ {
  name = $1
  nsop = ""; bop = ""; allocs = ""; rate = ""; ratename = ""
  for (i = 2; i < NF; i++) {
    if ($(i + 1) == "ns/op") nsop = $i
    if ($(i + 1) == "B/op") bop = $i
    if ($(i + 1) == "allocs/op") allocs = $i
    if ($(i + 1) == "traces/s" || $(i + 1) == "cycles/s") { rate = $i; ratename = $(i + 1) }
  }
  if (nsop == "") next
  if (!first) printf ",\n"
  first = 0
  printf "  {\"name\": \"%s\", \"ns_per_op\": %s", name, nsop
  if (bop != "") printf ", \"bytes_per_op\": %s", bop
  if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
  if (rate != "") printf ", \"%s\": %s", (ratename == "traces/s" ? "traces_per_sec" : "cycles_per_sec"), rate
  printf "}"
}
END { print "\n]" }
' "$RAW" > "$JSON"

# The snapshot must have produced every ladder rung; an empty or partial
# distillation means the benchmark names drifted from this script.
for want in 'buffered/traces=4096' 'streaming/traces=4096' 'SimulationThroughput' 'CorrAccumulatorAdd' 'DeviceCapture' 'StepwiseTrainingShape' 'LeastSquaresTrainingShape'; do
  grep -q "$want" "$JSON" || {
    echo "BENCH_attack.json missing $want" >&2; cat "$JSON" >&2; exit 1; }
done

echo "ok: $(grep -c '"name"' "$JSON") benchmark records in $JSON"
