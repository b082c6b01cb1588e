#!/usr/bin/env bash
# bench.sh — run the kernel, app-framework, and end-to-end benchmarks and
# emit a machine-readable BENCH_<n>.json so the perf trajectory is tracked
# across PRs. Each record carries name, ns/op, and allocs/op; the zero-alloc
# acceptance criteria (simclock since PR 2, appfw since PR 3) are checked
# against allocs_op == 0.
#
# Usage: scripts/bench.sh [output.json]
#   BENCHTIME      iterations per micro-bench   (default 1000x)
#   E2E_BENCHTIME  iterations per e2e bench     (default 5x)
#   SNAPSHOT_BENCHTIME  iterations per checkpoint/recovery bench (default 100x)
set -euo pipefail

OUT="${1:-BENCH_14.json}"
BENCHTIME="${BENCHTIME:-1000x}"
E2E_BENCHTIME="${E2E_BENCHTIME:-5x}"
FLEET_BENCHTIME="${FLEET_BENCHTIME:-2000x}"
SNAPSHOT_BENCHTIME="${SNAPSHOT_BENCHTIME:-100x}"

cd "$(dirname "$0")/.."

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

# Micro-benches: the simulation kernel (simclock, power) and the app
# framework hot path (appfw).
go test -run '^$' -bench . -benchmem -benchtime "$BENCHTIME" \
	./internal/simclock ./internal/power ./internal/android/appfw | tee -a "$tmp"

# Daemon serving path: the sharded apply loop at 1/2/4/8 shards, and the
# batch apply loop at several group sizes (its ns/op is per op, so the two
# are directly comparable). Scaling only shows on a multi-core runner; the
# sub-bench names carry the shard count so the trajectory is comparable
# across PRs either way. ReplicatedApply is the same apply loop with a
# replication stream attached (the zero-alloc pin with the cluster layer in
# the path); ReplicationStream pushes records through a real TCP follower
# and reports frames/s plus the publish-end backlog as lag_records.
# HandlerRenew and HandlerBatch64 are the next rung up: a whole request
# through Handler().ServeHTTP (mux, record, admit, decode, apply, encode), no
# socket, in-memory and journaled; Batch64's ns/op is per 64-op request.
go test -run '^$' -bench '^(BenchmarkShardedApply|BenchmarkBatchApply|BenchmarkReplicatedApply|BenchmarkReplicationStream|BenchmarkHandlerRenew|BenchmarkHandlerBatch64)$' \
	-benchmem -benchtime "$BENCHTIME" ./internal/leased | tee -a "$tmp"

# The durable layer's two big-ticket operations on one populated shard
# (1 000 leases x 20 terms of history, full dedup cache): a checkpoint as
# the op stream pays it (walk + encode + write + fsync + rename) and a
# restart from that snapshot. ms-scale and fsync-bound, so their own,
# smaller iteration count; snapshot_bytes is the file on disk.
go test -run '^$' -bench '^(BenchmarkCheckpoint|BenchmarkRecoverSnapshot)$' \
	-benchmem -benchtime "$SNAPSHOT_BENCHTIME" ./internal/leased | tee -a "$tmp"

# End-to-end: the three experiment regenerations the perf work is judged on.
go test -run '^$' -bench '^(BenchmarkBatteryLife|BenchmarkFigure12|BenchmarkTable5)$' \
	-benchmem -benchtime "$E2E_BENCHTIME" . | tee -a "$tmp"

# Fleet throughput: ns/op is the marginal simulated device; the devices/sec
# extra metric is the headline single-box sweep rate. benchtime is the
# population size (one fleet of N devices per run).
go test -run '^$' -bench '^BenchmarkFleetDevice$' \
	-benchmem -benchtime "$FLEET_BENCHTIME" . | tee -a "$tmp"

# A `go test -benchmem` row reads
#   BenchmarkName-8   N   123.4 ns/op  [extra unit pairs]  0 B/op  0 allocs/op
# so scan value/unit pairs rather than fixed columns.
awk '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	ns = ""; allocs = "0"; bytes = ""; dps = ""; fps = ""; lag = ""; snap = ""
	for (i = 2; i < NF; i++) {
		if ($(i + 1) == "ns/op") ns = $i
		if ($(i + 1) == "allocs/op") allocs = $i
		if ($(i + 1) == "B/op") bytes = $i
		if ($(i + 1) == "snapshot_bytes") snap = $i
		if ($(i + 1) == "devices/sec") dps = $i
		if ($(i + 1) == "frames/s") fps = $i
		if ($(i + 1) == "lag_records") lag = $i
	}
	if (ns == "") next
	if (n++) printf ",\n"
	printf "  {\"name\": \"%s\", \"ns_op\": %s, \"allocs_op\": %s", name, ns, allocs
	if (dps != "") printf ", \"devices_sec\": %s", dps
	if (fps != "") printf ", \"frames_sec\": %s", fps
	if (lag != "") printf ", \"lag_records\": %s", lag
	if (snap != "") printf ", \"bytes_op\": %s, \"snapshot_bytes\": %s", bytes, snap
	printf "}"
}
BEGIN { print "[" }
END { print "\n]" }
' "$tmp" > "$OUT"

echo "wrote $(grep -c '"name"' "$OUT") benchmark records to $OUT"
