#!/bin/sh
# A scripted operator session against a local jellyfishd (DESIGN.md §10).
# Run from the repository root:
#
#	sh examples/operations/daemon_session.sh
#
# The same day-0/day-2 workflow main.go drives through the library,
# spoken over HTTP/JSON instead — what a planning dashboard or a fleet
# automation job would send. Every response here is deterministic: the
# same request body returns byte-identical JSON no matter how many
# -workers the daemon runs or what its caches hold, so these calls are
# safe to retry, fan out, and diff.
set -eu

ADDR=127.0.0.1:8093
BASE="http://$ADDR"
STATE=$(mktemp -d)

go build -o /tmp/jellyfishd ./cmd/jellyfishd
# -state-dir makes the job store durable: submissions are journaled
# before they are acknowledged, so jobs survive daemon restarts — even
# kill -9 — as demonstrated at the end of this session (DESIGN.md §14).
/tmp/jellyfishd -addr "$ADDR" -workers 4 -state-dir "$STATE" &
DAEMON=$!
# On exit: SIGTERM the daemon (it drains — finishes jobs, snapshots,
# closes the store), wait for it, then remove the session's state dir.
trap 'kill $DAEMON 2>/dev/null; wait $DAEMON 2>/dev/null; rm -rf "$STATE"' EXIT INT TERM

# Wait for the daemon to come up.
for i in $(seq 1 50); do
	curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
	sleep 0.1
done
echo "== healthz"
curl -fsS "$BASE/healthz"; echo

# Day 0: design the network. The response carries structural stats and
# the full cabling blueprint (same JSON WriteBlueprint emits).
echo "== design 50x12 (networkDegree 8)"
curl -fsS "$BASE/v1/design" -d '{"switches":50,"ports":12,"networkDegree":8,"seed":42}' |
	head -c 200; echo " ..."

# Throughput under random-permutation traffic. Naming the topology by
# its design spec lets the daemon route this to the shard already warm
# from the design call; an inline {"blueprint": ...} works too.
echo "== evaluate (3 trials)"
curl -fsS "$BASE/v1/evaluate" \
	-d '{"topology":{"design":{"switches":50,"ports":12,"networkDegree":8,"seed":42}},"seed":9,"trials":3}'
echo

# The same evaluation under a realizable data plane instead of the
# optimal-routing solver: kSP-8 routes + coupled MPTCP (Table 1's
# methodology). Repeated transport evaluations of one topology family
# hit the daemon's compiled-instance cache (the "sim:" tier).
echo "== evaluate, transport plane (mptcp8 over ksp8)"
curl -fsS "$BASE/v1/evaluate" \
	-d '{"topology":{"design":{"switches":50,"ports":12,"networkDegree":8,"seed":42}},"seed":9,"trials":3,"transport":{"protocol":"mptcp8","routing":"ksp8"}}'
echo

# What-if chain: drill 10% link failures, then a switch failure, then an
# expansion by 5 racks. Steps warm-start from the previous step's solve
# (DESIGN.md §9); re-running with a longer chain resumes from the cached
# prefix instead of recomputing it.
echo "== what-if chain"
curl -fsS "$BASE/v1/whatif" -d '{
  "base": {"design":{"switches":50,"ports":12,"networkDegree":8,"seed":42}},
  "seed": 21,
  "scenarios": [
    {"failLinks": {"fraction": 0.10, "seed": 17}},
    {"failSwitches": {"fraction": 0.05, "seed": 19}},
    {"expand": {"switches": 5, "ports": 12, "networkDegree": 8, "seed": 11}}
  ]}'
echo

# Heavy work goes through the job API instead of a held-open request:
# submit a Fig. 2(c)-style capacity search, poll until it finishes.
echo "== submit capacity-search job"
JOB=$(curl -fsS "$BASE/v1/jobs" \
	-d '{"type":"capacity-search","request":{"switches":20,"ports":6,"trials":1,"seed":7}}')
echo "$JOB"
ID=$(echo "$JOB" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
while :; do
	VIEW=$(curl -fsS "$BASE/v1/jobs/$ID")
	case "$VIEW" in
	*'"status":"succeeded"'* | *'"status":"failed"'* | *'"status":"cancelled"'*) break ;;
	esac
	sleep 0.2
done
echo "== job $ID finished"
echo "$VIEW"
echo

# The sync endpoint answers the same request from the response cache —
# byte-identical to the job's result document.
echo "== same search, sync (cache hit)"
curl -fsS "$BASE/v1/capacity-search" -d '{"switches":20,"ports":6,"trials":1,"seed":7}'
echo

# Stream the finished job's progress as SSE: one "progress" frame per
# search probe, then a terminal "done" frame. Connecting mid-run tails
# the same frames live — the stream bytes are part of the determinism
# guarantee, so live tail and post-hoc replay are identical.
echo "== job $ID progress stream (SSE replay)"
curl -fsS "$BASE/v1/jobs/$ID/events" | head -c 400; echo " ..."

# The flight recorder (DESIGN.md §15): the finished job's execution was
# recorded as a span tree — search probes nesting trials nesting solver
# runs with their phases. Traces are wall-clock diagnostics, NOT covered
# by the determinism guarantee, and live only in daemon memory.
echo "== job $ID recorded span tree"
# (stderr silenced: head truncates the pipe, which curl reports as 23)
curl -fsS "$BASE/v1/trace/$ID" 2>/dev/null | head -c 400; echo " ..."

# The Prometheus surface: scheduler queue depths and waits, per-worker
# cache hits/misses by tier, solver phase counters and latencies,
# job-store append/snapshot timings. One-way telemetry — scraping it
# never perturbs a response (disable wholesale with -no-telemetry; a
# separate -debug-addr additionally serves Go pprof on loopback).
echo "== /metrics (solver + cache families)"
curl -fsS "$BASE/metrics" | grep -E '^jellyfishd_(solver_phases_total|capsearch_probes_total|cache_hits_total)' | head -12

# Kill/restart walkthrough: SIGKILL the daemon mid-job and restart it on
# the same state dir. The submitted job was journaled before the 202, so
# the restarted daemon re-runs it automatically; determinism makes the
# recovered result byte-identical to what the uninterrupted run would
# have produced.
echo "== submit a longer search, then kill -9 the daemon"
JOB2=$(curl -fsS "$BASE/v1/jobs" \
	-d '{"type":"capacity-search","request":{"switches":45,"ports":6,"trials":2,"seed":7}}')
ID2=$(echo "$JOB2" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
kill -9 "$DAEMON" 2>/dev/null
wait "$DAEMON" 2>/dev/null || true

echo "== restart on the same -state-dir; job $ID2 resumes"
/tmp/jellyfishd -addr "$ADDR" -workers 2 -state-dir "$STATE" &
DAEMON=$!
for i in $(seq 1 50); do
	curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
	sleep 0.1
done
while :; do
	VIEW=$(curl -fsS "$BASE/v1/jobs/$ID2")
	case "$VIEW" in
	*'"status":"succeeded"'* | *'"status":"failed"'* | *'"status":"cancelled"'*) break ;;
	esac
	sleep 0.2
done
echo "== job $ID2 finished after crash recovery"
curl -fsS "$BASE/v1/jobs/$ID2/result"; echo
# ...and the job finished before the kill is still fetchable:
echo "== job $ID survived the restart too"
curl -fsS "$BASE/v1/jobs/$ID" | head -c 200; echo " ..."

echo "== cache hits and misses (from /metrics)"
curl -fsS "$BASE/metrics" | grep -E "^jellyfishd_cache_(hits|misses)_total"

# ---------------------------------------------------------------------
# Failure-containment walkthrough (DESIGN.md §16): per-client quotas,
# bounded-latency cancellation, and failpoint-driven degraded mode.
# Restart the daemon with quotas on and a seeded fault schedule: the
# third journal append of this run will fail once, as if the disk
# filled at exactly that write. Fault schedules are deterministic —
# same schedule + same request sequence = same failure, every run.
kill "$DAEMON" 2>/dev/null
wait "$DAEMON" 2>/dev/null || true
echo "== restart with -client-qps 1 -client-burst 2 and a seeded failpoint"
/tmp/jellyfishd -addr "$ADDR" -workers 2 -state-dir "$STATE" \
	-client-qps 1 -client-burst 2 -faultinject 'persist.append:3-1:enospc' &
DAEMON=$!
for i in $(seq 1 50); do
	curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
	sleep 0.1
done

# Quotas meter only the endpoints that create work (sync planning, job
# submission); reads are never shed. Burst 2: two requests pass, the
# third gets 429 with a Retry-After hint (deterministically jittered
# per client, so a rejected herd does not re-arrive in one wave).
echo "== quota: two requests within burst, then a 429"
DESIGN='{"switches":20,"ports":6,"networkDegree":4,"seed":5}'
curl -fsS "$BASE/v1/design" -d "$DESIGN" >/dev/null && echo "request 1: ok"
curl -fsS "$BASE/v1/design" -d "$DESIGN" >/dev/null && echo "request 2: ok"
curl -sS -D - -o /dev/null "$BASE/v1/design" -d "$DESIGN" |
	grep -E '^(HTTP|Retry-After)' | tr -d '\r'
curl -fsS "$BASE/v1/jobs" >/dev/null && echo "reads stay unmetered"
sleep 2 # ~2 tokens refill at 1 qps

# Bounded-latency cancellation: kernels poll for cancellation at phase
# boundaries (GK solver per phase, simulators per round / per 1024
# events, searches per trial), so a cancel lands promptly even mid-solve
# — and a cancelled run leaves nothing truncated in any cache.
echo "== cancel a search mid-run"
JOB3=$(curl -fsS "$BASE/v1/jobs" \
	-d '{"type":"capacity-search","request":{"switches":45,"ports":6,"trials":3,"seed":23}}')
ID3=$(echo "$JOB3" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
curl -fsS "$BASE/v1/jobs/$ID3/cancel" -X POST -d '' >/dev/null
while :; do
	VIEW=$(curl -fsS "$BASE/v1/jobs/$ID3")
	case "$VIEW" in
	*'"status":"succeeded"'* | *'"status":"failed"'* | *'"status":"cancelled"'*) break ;;
	esac
	sleep 0.2
done
echo "$VIEW" | head -c 200; echo

# Degraded mode: the seeded failpoint fires on this submission's journal
# append. The daemon refuses with 503/degraded rather than acknowledge a
# job a restart would forget, flips read-only, and keeps serving reads.
# No operator action needed: the retry's own append is the recovery
# probe — it succeeds, the store snapshots, durability is restored.
echo "== degraded mode: submit hits the injected append failure"
SUBMIT='{"type":"design","request":{"switches":20,"ports":6,"networkDegree":4,"seed":5}}'
sleep 1 # one quota token back
curl -sS -o /dev/null -w 'submit: HTTP %{http_code}\n' "$BASE/v1/jobs" -d "$SUBMIT"
curl -fsS "$BASE/healthz"; echo " (alive, read-only)"
sleep 1
echo "== retry: the append succeeds and recovery is automatic"
curl -sS -o /dev/null -w 'retry:  HTTP %{http_code}\n' "$BASE/v1/jobs" -d "$SUBMIT"
curl -fsS "$BASE/healthz"; echo
# The containment counters tell the story on /metrics:
curl -fsS "$BASE/metrics" |
	grep -E '^jellyfishd_(degraded|degraded_transitions_total|quota_rejected_total|faultinject_fires_total|panics_contained_total) '
