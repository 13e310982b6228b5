#!/usr/bin/env bash
# serve-smoke.sh boots a real emsim-serve binary, drives it over HTTP and
# verifies graceful shutdown: a SIGTERM arriving while a request is in
# flight must drain that request (it completes 200) and exit 0. The CI
# serve job runs this after the in-process integration tests, so the
# binary's signal handling and the HTTP server wiring get covered too.
set -euo pipefail

ADDR="127.0.0.1:8097"
BASE="http://$ADDR"
BIN="$(mktemp -d)/emsim-serve"
LOG="$(mktemp)"

# Fail fast if the port is already bound. Without this check the health
# poll below happily talks to whatever stale process holds the port, and
# the script "passes" against the wrong server while our own binary dies
# with "address already in use" in the background.
if (exec 3<>"/dev/tcp/${ADDR%:*}/${ADDR#*:}") 2>/dev/null; then
  exec 3>&- 3<&- || true
  echo "serve-smoke: $ADDR is already in use; stop the stale listener first" >&2
  exit 1
fi

cleanup() {
  kill "$SERVER_PID" 2>/dev/null || true
  cat "$LOG" >&2 || true
}

echo "== build"
go build -o "$BIN" ./cmd/emsim-serve

echo "== boot (trains a quick synthetic model)"
"$BIN" -addr "$ADDR" -workers 2 -queue 8 >"$LOG" 2>&1 &
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

echo "== simulate (asm)"
BODY='{"asm":"    li t0, 10\nloop:\n    addi t0, t0, -1\n    bnez t0, loop\n    ebreak\n","include_stages":true}'
RESP=$(curl -fsS -X POST -d "$BODY" "$BASE/v1/simulate")
echo "$RESP" | grep -q '"cycles":' || { echo "no cycles in response: $RESP" >&2; exit 1; }
echo "$RESP" | grep -q '"stages":' || { echo "no stages in response: $RESP" >&2; exit 1; }

echo "== simulate (words) + metrics"
curl -fsS -X POST -d '{"words":[1048723,1048691],"omit_signal":true}' "$BASE/v1/simulate" >/dev/null || true
curl -fsS "$BASE/metrics" | grep -E '^emsim_simulated_cycles_total [1-9]' >/dev/null || { echo "metrics missing simulated cycles" >&2; exit 1; }

echo "== train job lifecycle (submit, poll to done)"
TRAIN='{"seed":7,"runs":2,"instances_per_cluster":6,"mixed_programs":1,"mixed_length":120}'
RESP=$(curl -fsS -X POST -d "$TRAIN" "$BASE/v1/train")
JOB=$(echo "$RESP" | sed -n 's/.*"job_id":"\([^"]*\)".*/\1/p')
[ -n "$JOB" ] || { echo "no job_id in submit response: $RESP" >&2; exit 1; }
STATE=""
for i in $(seq 1 240); do
  RESP=$(curl -fsS "$BASE/v1/train/$JOB")
  STATE=$(echo "$RESP" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
  case "$STATE" in queued|running) sleep 0.5 ;; *) break ;; esac
done
[ "$STATE" = "done" ] || { echo "training job ended in state '$STATE': $RESP" >&2; exit 1; }
echo "$RESP" | grep -q '"model":' || { echo "done job carries no model: $RESP" >&2; exit 1; }

echo "== train job cancellation"
RESP=$(curl -fsS -X POST -d '{"runs":150,"instances_per_cluster":90}' "$BASE/v1/train")
JOB=$(echo "$RESP" | sed -n 's/.*"job_id":"\([^"]*\)".*/\1/p')
[ -n "$JOB" ] || { echo "no job_id in submit response: $RESP" >&2; exit 1; }
curl -fsS -X DELETE "$BASE/v1/train/$JOB" >/dev/null
STATE=""
for i in $(seq 1 60); do
  STATE=$(curl -fsS "$BASE/v1/train/$JOB" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
  case "$STATE" in queued|running) sleep 0.5 ;; *) break ;; esac
done
[ "$STATE" = "cancelled" ] || { echo "cancelled job reports state '$STATE'" >&2; exit 1; }
curl -fsS "$BASE/metrics" | grep -x 'emsim_train_jobs_total{state="cancelled"} 1' >/dev/null || { echo "metrics missing train metrics" >&2; exit 1; }

echo "== validation statuses"
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST -d '{"asm": "nop"' "$BASE/v1/simulate")
[ "$CODE" = "400" ] || { echo "malformed JSON returned $CODE, want 400" >&2; exit 1; }

echo "== graceful shutdown with an in-flight request"
# A larger program keeps the worker busy while SIGTERM lands.
SLOW='{"asm":"    li t0, 200000\nloop:\n    addi t0, t0, -1\n    bnez t0, loop\n    ebreak\n","omit_signal":true}'
SLOW_STATUS=$(mktemp)
( curl -s -o /dev/null -w '%{http_code}' -X POST -d "$SLOW" "$BASE/v1/simulate" >"$SLOW_STATUS" ) &
CURL_PID=$!
sleep 0.2
kill -TERM "$SERVER_PID"
wait "$CURL_PID"
STATUS=$(cat "$SLOW_STATUS")
if [ "$STATUS" != "200" ]; then
  echo "in-flight request during SIGTERM returned $STATUS, want 200" >&2; exit 1
fi
if ! wait "$SERVER_PID"; then
  echo "server exited non-zero after SIGTERM" >&2; exit 1
fi
trap - EXIT
grep -q "drained" "$LOG" || { echo "server log missing drain marker" >&2; cat "$LOG" >&2; exit 1; }

echo "== smoke OK"
