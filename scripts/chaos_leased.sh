#!/usr/bin/env bash
# chaos_leased.sh — crash-recovery and fault-injection test of the durable
# lease daemon, run against a sharded deployment (SHARDS independent
# Wall+Manager+journal partitions). Three phases, each a property the
# crash-safety work exists to provide:
#
#   1. Crash recovery: boot leased -shards N with a data dir, drive
#      misbehaving load until defaulters are deferred, snapshot /metrics,
#      SIGKILL the daemon mid-flight, damage ONE shard's journal tail (a
#      torn write), restart, and require (chaosverify) that every defaulter,
#      every deferral count, and every DEFERRED lease survived — per shard,
#      on the same shard, with journal records actually replayed and the
#      damaged shard's torn tail truncated rather than poisoning recovery.
#
#   2. Fault injection + self-healing: restart the fleet against a daemon
#      that drops ≥5% of responses post-apply (server http.drop + client
#      client.drop), with idempotent retries enabled, and require measurable
#      loss, measurable dedup hits, and ZERO double-applied acquires
#      (leaseload -require-no-doubles).
#
#   3. Graceful shutdown: SIGTERM the recovered daemon, restart once more,
#      and require the final checkpoint made replay unnecessary on every
#      shard (chaosverify -require-zero-replay).
#
# Artifacts (metrics snapshots, load reports, journal and snapshot files —
# both binary, so also decoded to JSON by leased -dump-snapshot — daemon
# logs) are collected in ARTIFACTS (default chaos_artifacts/) for CI upload.
#
# Usage: scripts/chaos_leased.sh
#   ADDR       listen address      (default 127.0.0.1:7072)
#   SHARDS     daemon shard count  (default 4)
#   DURATION   phase-1 load length (default 6s)
#   ARTIFACTS  artifact directory  (default chaos_artifacts)
set -euo pipefail

ADDR="${ADDR:-127.0.0.1:7072}"
SHARDS="${SHARDS:-4}"
DURATION="${DURATION:-6s}"
ARTIFACTS="${ARTIFACTS:-chaos_artifacts}"

cd "$(dirname "$0")/.."

bin="$(mktemp -d)"
data="$bin/data"
mkdir -p "$ARTIFACTS"
daemon=""
cleanup() {
    if [ -n "$daemon" ] && kill -0 "$daemon" 2>/dev/null; then
        kill -9 "$daemon" 2>/dev/null || true
        wait "$daemon" 2>/dev/null || true
    fi
    rm -rf "$bin"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

go build -o "$bin/leased" ./cmd/leased
go build -o "$bin/leaseload" ./cmd/leaseload
go build -o "$bin/chaosverify" ./cmd/chaosverify

# json_int FILE KEY: first integer value of "key": N in FILE. The merged
# top-level metrics precede the per_shard breakdowns in the snapshot JSON,
# so "first" always reads the fleet-wide figure.
json_int() {
    grep -o "\"$2\": *[0-9]*" "$1" | head -1 | grep -o '[0-9]*$'
}

start_daemon() { # args: logfile, extra flags...
    local logf="$1"; shift
    "$bin/leased" -addr "$ADDR" -data "$data" -shards "$SHARDS" \
        -term 150ms -tau 5s -tau-max 20s -snapshot-every 64 "$@" \
        2> "$logf" &
    daemon=$!
    for i in $(seq 1 50); do
        if curl -sf "http://$ADDR/healthz" > /dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    cat "$logf" >&2
    fail "daemon never became healthy"
}

### Phase 1: SIGKILL mid-load, damage one shard's journal, recover.
echo "== phase 1: crash recovery ($SHARDS shards) =="
start_daemon "$ARTIFACTS/leased_1.log"

"$bin/leaseload" -addr "http://$ADDR" -duration "$DURATION" -beat 5ms \
    -mix normal=2,lhb=2,lub=1,fab=1 -require-defaulters \
    > "$ARTIFACTS/load_1.json"

curl -sf "http://$ADDR/metrics" > "$ARTIFACTS/metrics_precrash.json"
grep -q '"deferrals": [1-9]' "$ARTIFACTS/metrics_precrash.json" \
    || fail "no deferrals before the crash; nothing to preserve"

kill -9 "$daemon"
wait "$daemon" 2>/dev/null || true
daemon=""
for d in "$data"/shard-*; do
    s=$(basename "$d")
    cp "$d/journal.log" "$ARTIFACTS/journal_postcrash_$s.log"
    [ ! -f "$d/snapshot.bin" ] || cp "$d/snapshot.bin" "$ARTIFACTS/snapshot_postcrash_$s.bin"
done
# Both files are binary; keep the decoded view — per shard, the snapshot
# document, then the journal's records one per line — beside them. The dump
# only reads, so the crashed directory is left exactly as it was.
"$bin/leased" -dump-snapshot "$data" > "$ARTIFACTS/datadir_postcrash.json" \
    || fail "could not decode the post-crash snapshots and journals"
grep -q '"op":"renew"' "$ARTIFACTS/datadir_postcrash.json" \
    || fail "the decoded post-crash journals hold no renew record"

# Damage exactly one shard's store: a torn tail on shard-00's journal, as a
# power cut mid-append would leave. Recovery must truncate it on that shard
# alone and keep everything that was intact — on every shard.
damaged="$data/shard-00/journal.log"
[ -f "$damaged" ] || fail "expected $damaged to exist"
printf 'torn-tail-garbage' >> "$damaged"

start_daemon "$ARTIFACTS/leased_2.log"
grep -q 'recovery:' "$ARTIFACTS/leased_2.log" || fail "no recovery line after restart"
grep -Eq 'recovery: shard=0 .*truncated_bytes=[1-9]' "$ARTIFACTS/leased_2.log" \
    || fail "shard 0's torn journal tail was not truncated"
if grep -E 'recovery: shard=[1-9] .*truncated_bytes=[1-9]' "$ARTIFACTS/leased_2.log"; then
    fail "an undamaged shard reported truncation"
fi
curl -sf "http://$ADDR/metrics" > "$ARTIFACTS/metrics_postcrash.json"

"$bin/chaosverify" -pre "$ARTIFACTS/metrics_precrash.json" \
    -post "$ARTIFACTS/metrics_postcrash.json" -shards "$SHARDS" -require-replayed

### Phase 2: response loss on both sides; retries must heal everything.
echo "== phase 2: fault injection + self-healing =="
kill -TERM "$daemon"; wait "$daemon" || true; daemon=""
rm -rf "$data"

# These daemons (3 and 4: same data dir, so the same pinned policy) defer for
# a minute, not 5 s: the crash clients vanish ~1 s into each 6 s load, so at
# tau 5s their first deferral expired within milliseconds of the phase-3
# shutdown, and whether the expiry fell before or after the pre-SIGTERM
# scrape decided "DEFERRED before, ACTIVE after — restart pardoned it". A
# deferral that cannot expire inside the script leaves only real pardons.
long_tau=(-tau 60s -tau-max 240s)
start_daemon "$ARTIFACTS/leased_3.log" "${long_tau[@]}" -faults "http.drop=0.07" -fault-seed 7
"$bin/leaseload" -addr "http://$ADDR" -duration "$DURATION" -beat 5ms \
    -mix normal=4,crash=2 -retries 6 -seed 3 \
    -faults "client.drop=0.05" -require-no-doubles \
    > "$ARTIFACTS/load_chaos.json" 2> "$ARTIFACTS/load_chaos_shards.log"

ops=$(json_int "$ARTIFACTS/load_chaos.json" ops)
lost=$(json_int "$ARTIFACTS/load_chaos.json" lost_responses)
deduped=$(json_int "$ARTIFACTS/load_chaos.json" deduped)
# ≥5% of ops must have lost their response, or the chaos was a no-op.
[ "$lost" -ge $((ops / 20)) ] \
    || fail "only $lost/$ops responses dropped; fault injection ineffective"
[ "$deduped" -gt 0 ] || fail "no retry was answered from the dedup cache"
echo "chaos: $ops ops, $lost lost, $deduped deduped, 0 doubles"

### Phase 2b: the same chaos against batched traffic. Renews ride /v1/batch
### with per-op request IDs; a dropped batch response forces a whole-batch
### resend that must be answered op-by-op from the dedup cache, with zero
### double-applied acquires. -prefix gives this phase its own client
### population: phase-2 leases live on in the daemon, and a name collision
### would carry their server-side acquire counts into this run's
### double-apply cross-check.
echo "== phase 2b: fault injection over /v1/batch =="
"$bin/leaseload" -addr "http://$ADDR" -duration "$DURATION" -beat 5ms \
    -mix normal=4,crash=2 -batch 16 -retries 6 -seed 5 -prefix b- \
    -faults "client.drop=0.05" -require-no-doubles \
    > "$ARTIFACTS/load_batch_chaos.json" 2> /dev/null

batch_reqs=$(grep -o '"batch": *[0-9]*' "$ARTIFACTS/load_batch_chaos.json" | head -1 | grep -o '[0-9]*$')
batch_lost=$(json_int "$ARTIFACTS/load_batch_chaos.json" lost_responses)
batch_deduped=$(json_int "$ARTIFACTS/load_batch_chaos.json" deduped)
[ "${batch_reqs:-0}" -gt 0 ] || fail "batch mode sent no /v1/batch requests"
[ "$batch_lost" -gt 0 ] || fail "no batch responses dropped; batch chaos ineffective"
[ "$batch_deduped" -gt 0 ] || fail "no batched retry hit the dedup cache"
echo "batch chaos: $batch_reqs batch requests, $batch_lost lost, $batch_deduped deduped, 0 doubles"

### Phase 3: graceful SIGTERM, restart must replay nothing.
echo "== phase 3: graceful shutdown =="
curl -sf "http://$ADDR/metrics" > "$ARTIFACTS/metrics_preterm.json"
kill -TERM "$daemon"
rc=0; wait "$daemon" || rc=$?; daemon=""
[ "$rc" = 0 ] || { cat "$ARTIFACTS/leased_3.log" >&2; fail "daemon exited $rc on SIGTERM"; }
grep -q 'final checkpoint written' "$ARTIFACTS/leased_3.log" \
    || fail "no final-checkpoint marker in daemon log"

start_daemon "$ARTIFACTS/leased_4.log" "${long_tau[@]}"
curl -sf "http://$ADDR/metrics" > "$ARTIFACTS/metrics_postterm.json"
"$bin/chaosverify" -pre "$ARTIFACTS/metrics_preterm.json" \
    -post "$ARTIFACTS/metrics_postterm.json" -shards "$SHARDS" -require-zero-replay

kill -TERM "$daemon"; wait "$daemon" || true; daemon=""

echo "chaos_leased: OK ($SHARDS shards, artifacts in $ARTIFACTS/)"
