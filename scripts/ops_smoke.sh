#!/usr/bin/env bash
# ops_smoke.sh — live end-to-end check of the ops plane (`make
# smoke-ops`, CI's ops-smoke job).
#
# Runs a real 127-cell capacity sweep of a 50 000-job trace with the
# debug server up, and proves, against the live process:
#
#   1. /healthz answers "ok" and /buildinfo reports a version
#   2. /runs lists the sweep, and /runs/latest resolves it
#   3. /runs/{id}/stream delivers at least one SSE progress frame from
#      the run while it is LIVE (outcome "running"), plus the final
#      frame and the end event after completion
#   4. the completed snapshot has outcome "ok" and counted events
#
# The sweep has to outlast the subscription: 127 cells × 50 000 jobs is
# ~4 s on two cores and ~80 MB resident (a 12-cell sweep of 1000 jobs is
# over in 34 ms, before curl can subscribe). The jobs arrive 2 s apart
# on average, so the cluster is busy at every cell's size: on a sparser
# trace one replay above the knee answers every larger cell (DESIGN.md
# §5) and the sweep is over in half a second. The trace is
# stream-generated straight to .strc, as smoke-bigtrace builds its one.
# -linger keeps the process (and its /runs state) alive after the sweep
# so the post-completion checks never race the exit.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=127.0.0.1:6967
BASE="http://$ADDR"
WORK=$(mktemp -d)
trap 'kill $SWEEP_PID 2>/dev/null || true; rm -rf "$WORK"' EXIT

go build -o "$WORK/tracegen" ./cmd/tracegen
go build -o "$WORK/simmr" ./cmd/simmr

"$WORK/tracegen" -kind multitenant -n 50000 -mean-interarrival 2 -format bin -stream -pool 256 -out "$WORK/smoke.strc"

# Square cells at 4, 6, …, 256 slots: seconds of work, streamed live.
"$WORK/simmr" -trace "$WORK/smoke.strc" -policy maxedf \
    -sweep "$(seq -s, 4 2 256)" \
    -debug-addr "$ADDR" -linger 15s >"$WORK/sweep.out" 2>"$WORK/sweep.err" &
SWEEP_PID=$!

# Wait for the debug server, then for the sweep run to register.
for i in $(seq 1 100); do
    curl -sf "$BASE/healthz" >/dev/null 2>&1 && break
    kill -0 $SWEEP_PID 2>/dev/null || { echo "FAIL: sweep exited early"; cat "$WORK/sweep.err"; exit 1; }
    sleep 0.1
done
curl -sf "$BASE/healthz" | grep -q ok || { echo "FAIL: /healthz"; exit 1; }
echo "ok: /healthz"

curl -sf "$BASE/buildinfo" | grep -q '"version"' || { echo "FAIL: /buildinfo"; exit 1; }
echo "ok: /buildinfo"

for i in $(seq 1 100); do
    curl -sf "$BASE/runs" | grep -q '"sweep"' && break
    sleep 0.1
done
curl -sf "$BASE/runs" | grep -q '"sweep"' || { echo "FAIL: /runs never listed the sweep"; exit 1; }
echo "ok: /runs lists the sweep"

RUN_ID=$(curl -sf "$BASE/runs/latest" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -1)
[ -n "$RUN_ID" ] || { echo "FAIL: /runs/latest has no id"; exit 1; }
echo "ok: /runs/latest -> $RUN_ID"

# Tail the SSE stream until the run ends (or 60s); the capture must
# contain a progress frame taken while the run was still live — the
# acceptance bar: at least one progress delta from a running sweep.
curl -sN --max-time 60 "$BASE/runs/$RUN_ID/stream" >"$WORK/stream.txt" || true
grep -q '^event: progress' "$WORK/stream.txt" || { echo "FAIL: no SSE progress frame"; cat "$WORK/stream.txt"; exit 1; }
grep -q '"outcome":"running"' "$WORK/stream.txt" || { echo "FAIL: no live (running) frame in stream"; cat "$WORK/stream.txt"; exit 1; }
grep -q '^event: end' "$WORK/stream.txt" || { echo "FAIL: stream did not end"; cat "$WORK/stream.txt"; exit 1; }
echo "ok: SSE stream delivered $(grep -c '^event: progress' "$WORK/stream.txt") progress frame(s) and the end event"

SNAP=$(curl -sf "$BASE/runs/$RUN_ID")
echo "$SNAP" | grep -Eq '"outcome": *"ok"' || { echo "FAIL: final snapshot not ok: $SNAP"; exit 1; }
echo "$SNAP" | grep -Eq '"events": *[1-9]' || { echo "FAIL: no events counted: $SNAP"; exit 1; }
echo "ok: completed snapshot is outcome=ok with events counted"

wait $SWEEP_PID || { echo "FAIL: sweep exit status"; cat "$WORK/sweep.err"; exit 1; }
grep -q . "$WORK/sweep.out" || { echo "FAIL: sweep produced no output"; exit 1; }
echo "ok: sweep completed cleanly"

echo "ops-smoke: OK"
