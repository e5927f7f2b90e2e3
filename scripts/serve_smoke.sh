#!/bin/sh
# Serve-daemon smoke test (make serve-smoke).
#
# Four legs:
#   1. batch      a JSONL batch — a plain request, an over-deadline request
#                 (budget 0 ms, unique cache key) and a malformed line — runs
#                 under FASTSC_JOBS=1 and FASTSC_JOBS=4; the over-deadline
#                 request must come back as a structured greedy-tier response,
#                 the malformed line as a bad_request error, and the sorted,
#                 scrubbed response sets must be byte-identical across the
#                 two job counts (the determinism contract).
#   2. drain      SIGTERM mid-session must answer the in-flight work, write a
#                 cache snapshot and exit 0.
#   3. corrupt    a snapshot with a flipped checksum digit must be
#                 quarantined to .corrupt on the next boot — never a crash.
#   4. grace      at FASTSC_JOBS=2, EOF on a backlog of slow requests starts
#                 a drain with a 0 ms grace: the daemon must write its
#                 snapshot and exit 0 without waiting on the backlog, so it
#                 answers fewer requests than it was sent.
#
# Everything runs inside _build/serve_smoke/; the working tree is untouched.

set -eu

FASTSC=${FASTSC:-_build/default/bin/fastsc.exe}
D=_build/serve_smoke
rm -rf "$D"
mkdir -p "$D/jobs1" "$D/jobs4" "$D/drain" "$D/grace"

fail() { echo "serve-smoke: FAIL: $*" >&2; exit 1; }

BATCH='{"id":"r1","bench":"bv","n":5,"topology":"path"}
{"id":"r2","bench":"qaoa","n":6,"topology":"ring","seed":31,"deadline_ms":0}
{"id":"r3","this is not json'

# --- leg 1: batch determinism across job counts -----------------------------

for jobs in 1 4; do
  printf '%s\n' "$BATCH" \
    | FASTSC_JOBS=$jobs FASTSC_SERVE_SCRUB=1 \
      "$FASTSC" serve --snapshot-dir "$D/jobs$jobs" \
      > "$D/jobs$jobs/out.jsonl" 2> "$D/jobs$jobs/err.log" \
    || fail "daemon exited non-zero at jobs=$jobs"
  sort "$D/jobs$jobs/out.jsonl" > "$D/jobs$jobs/out.sorted"
done

grep -q '"id":"r1".*"status":"ok".*"tier":"full"' "$D/jobs1/out.jsonl" \
  || fail "r1 did not compile at the full tier"
grep -q '"id":"r2".*"tier":"greedy"' "$D/jobs1/out.jsonl" \
  || fail "over-deadline request did not degrade to the greedy tier"
grep -q '"id":"r2".*"outcome":"expired"' "$D/jobs1/out.jsonl" \
  || fail "degraded response does not trace the expired SMT attempts"
grep -q '"status":"error".*"code":"bad_request"' "$D/jobs1/out.jsonl" \
  || fail "malformed line did not produce a structured bad_request error"
cmp -s "$D/jobs1/out.sorted" "$D/jobs4/out.sorted" \
  || fail "responses differ between FASTSC_JOBS=1 and 4"

# --- leg 2: SIGTERM drains in-flight work and snapshots ----------------------

mkfifo "$D/drain/in"
FASTSC_JOBS=1 FASTSC_SERVE_SCRUB=1 \
  "$FASTSC" serve --snapshot-dir "$D/drain" --drain-grace-ms 5000 \
  < "$D/drain/in" > "$D/drain/out.jsonl" 2> "$D/drain/err.log" &
pid=$!
exec 9> "$D/drain/in"
printf '%s\n' '{"id":"d1","bench":"bv","n":5,"topology":"path"}' >&9

ok=0
i=0
while [ $i -lt 100 ]; do
  if grep -q '"id":"d1"' "$D/drain/out.jsonl" 2>/dev/null; then ok=1; break; fi
  i=$((i + 1))
  sleep 0.1
done
[ $ok -eq 1 ] || { kill "$pid" 2>/dev/null || true; fail "no response before SIGTERM"; }

kill -TERM "$pid"
status=0
wait "$pid" || status=$?
exec 9>&-
[ "$status" -eq 0 ] || fail "daemon exited $status after SIGTERM"
[ -f "$D/drain/solver_cache.json" ] || fail "no snapshot written at drain"

# --- leg 3: corrupt snapshot is quarantined on reboot ------------------------

sed 's/"checksum":"./"checksum":"~/' "$D/drain/solver_cache.json" \
  > "$D/drain/solver_cache.json.bad"
mv "$D/drain/solver_cache.json.bad" "$D/drain/solver_cache.json"

: | FASTSC_JOBS=1 "$FASTSC" serve --snapshot-dir "$D/drain" \
    > /dev/null 2> "$D/drain/reboot.log" \
  || fail "daemon crashed booting from a corrupt snapshot"
grep -q "quarantined" "$D/drain/reboot.log" \
  || fail "corrupt snapshot was not quarantined"
[ -f "$D/drain/solver_cache.json.corrupt" ] \
  || fail "quarantined snapshot not preserved as .corrupt"

# --- leg 4: an expired grace leaves the backlog unanswered -------------------

# One 64-qubit QFT compile takes hundreds of milliseconds, far past the 0 ms
# grace; distinct seeds keep the solver cache from serving any of them.
SENT=6
s=1
while [ $s -le $SENT ]; do
  printf '{"id":"s%d","bench":"qft","n":64,"topology":"grid","seed":%d}\n' $s $s
  s=$((s + 1))
done \
  | FASTSC_JOBS=2 "$FASTSC" serve --snapshot-dir "$D/grace" --drain-grace-ms 0 \
    > "$D/grace/out.jsonl" 2> "$D/grace/err.log" \
  || fail "daemon exited non-zero after an expired drain grace"
[ -f "$D/grace/solver_cache.json" ] || fail "no snapshot written after an expired grace"
answered=$(grep -c '"id":"s' "$D/grace/out.jsonl" || true)
[ "$answered" -lt $SENT ] \
  || fail "daemon answered all $SENT requests: the drain waited past its grace"

echo "serve-smoke: OK (batch determinism, SIGTERM drain, corrupt-snapshot quarantine, drain grace)"
