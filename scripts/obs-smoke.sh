#!/usr/bin/env bash
# obs-smoke.sh exercises the observability surface end to end against
# real binaries: boots emsim-serve with the span ring and the pprof
# debug listener enabled, drives a request through it, then asserts that
# /metrics speaks Prometheus text with the expected series, /v1/trace
# returns a Chrome trace containing the serve and simulate spans, and
# /debug/pprof/ serves profiles — and finally that the emsim CLI's
# -trace flag writes a span timeline for an offline run. The /metrics
# snapshot and both trace JSONs land in obs-artifacts/ so the CI obs job
# can upload them for eyeballing in chrome://tracing.
set -euo pipefail

ADDR="127.0.0.1:8098"
DEBUG_ADDR="127.0.0.1:8099"
BASE="http://$ADDR"
DEBUG="http://$DEBUG_ADDR"
BINDIR="$(mktemp -d)"
LOG="$(mktemp)"
OUT="${OBS_ARTIFACTS:-obs-artifacts}"

# Fail fast if either port is already bound — otherwise the health poll
# talks to a stale server and every assertion below tests the wrong
# process (see serve-smoke.sh for the same guard).
for a in "$ADDR" "$DEBUG_ADDR"; do
  if (exec 3<>"/dev/tcp/${a%:*}/${a#*:}") 2>/dev/null; then
    exec 3>&- 3<&- || true
    echo "obs-smoke: $a is already in use; stop the stale listener first" >&2
    exit 1
  fi
done

cleanup() {
  kill "$SERVER_PID" 2>/dev/null || true
  cat "$LOG" >&2 || true
}

echo "== build"
go build -o "$BINDIR/emsim-serve" ./cmd/emsim-serve
go build -o "$BINDIR/emsim" ./cmd/emsim
mkdir -p "$OUT"

echo "== boot with tracing + debug listener"
"$BINDIR/emsim-serve" -addr "$ADDR" -debug-addr "$DEBUG_ADDR" -workers 2 -queue 8 >"$LOG" 2>&1 &
SERVER_PID=$!
trap cleanup EXIT

for i in $(seq 1 120); do
  if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "server died during boot" >&2; exit 1
  fi
  sleep 1
done
curl -fsS "$BASE/healthz" >/dev/null

echo "== drive a simulate through the pool"
BODY='{"asm":"    li t0, 10\nloop:\n    addi t0, t0, -1\n    bnez t0, loop\n    ebreak\n"}'
curl -fsS -X POST -d "$BODY" "$BASE/v1/simulate" | grep -q '"cycles":' \
  || { echo "simulate gave no cycles" >&2; exit 1; }

echo "== /metrics speaks Prometheus text"
curl -fsS "$BASE/metrics" >"$OUT/metrics.txt"
for series in \
  '# TYPE emsim_requests_accepted_total counter' \
  'emsim_requests_accepted_total 1' \
  'emsim_request_duration_seconds_bucket{endpoint="simulate",le="+Inf"} 1' \
  'emsim_queue_depth 0' \
  'emsim_train_jobs_active 0'; do
  grep -qF "$series" "$OUT/metrics.txt" \
    || { echo "/metrics missing '$series'" >&2; cat "$OUT/metrics.txt" >&2; exit 1; }
done

echo "== /v1/trace returns the span timeline"
curl -fsS "$BASE/v1/trace" >"$OUT/serve-trace.json"
for span in serve.queued serve.run session.simulate; do
  grep -qF "\"name\":\"$span\"" "$OUT/serve-trace.json" \
    || { echo "trace missing a $span span" >&2; cat "$OUT/serve-trace.json" >&2; exit 1; }
done

echo "== debug listener serves pprof (and mirrors /metrics, /v1/trace)"
curl -fsS "$DEBUG/debug/pprof/" | grep -q goroutine \
  || { echo "pprof index lists no profiles" >&2; exit 1; }
curl -fsS "$DEBUG/debug/pprof/cmdline" >/dev/null
curl -fsS "$DEBUG/metrics" | grep emsim_requests_accepted_total >/dev/null \
  || { echo "debug /metrics mirror is empty" >&2; exit 1; }
curl -fsS "$DEBUG/v1/trace" | grep -q traceEvents \
  || { echo "debug /v1/trace mirror is malformed" >&2; exit 1; }

echo "== graceful shutdown"
kill -TERM "$SERVER_PID"
if ! wait "$SERVER_PID"; then
  echo "server exited non-zero after SIGTERM" >&2; exit 1
fi
trap - EXIT
grep -q "drained" "$LOG" || { echo "server log missing drain marker" >&2; cat "$LOG" >&2; exit 1; }

echo "== emsim -trace records an offline run"
"$BINDIR/emsim" -model testdata/golden/model.json -repeat 20 -trace "$OUT/cli-trace.json" >/dev/null
grep -qF '"name":"session.simulate"' "$OUT/cli-trace.json" \
  || { echo "CLI trace missing session.simulate spans" >&2; cat "$OUT/cli-trace.json" >&2; exit 1; }

echo "== obs smoke OK (artifacts in $OUT/)"
