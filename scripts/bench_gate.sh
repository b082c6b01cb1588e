#!/usr/bin/env bash
# bench_gate.sh — regression gate over the machine-readable benchmark JSON.
# Compares a freshly generated BENCH file against the committed record of
# the previous PR and fails when the serving hot path got slower.
#
# Two checks, different scopes because they have different noise floors:
#
#   - allocs/op must not increase for ANY benchmark present in both files
#     (allocation counts are deterministic; any increase is a real
#     regression), and the zero-alloc pins (ShardedApply, BatchApply,
#     ReplicatedApply — the serve path with a replication stream attached)
#     must stay at exactly 0 regardless of what the old file says.
#   - ns/op on the PINNED set must not regress by more than THRESHOLD
#     (default 10%). The default set is the daemon serving path
#     (ShardedApply, BatchApply, ReplicatedApply, and HandlerRenew — the
#     same renew through the whole of Handler(), where a wrapper around the
#     routes would land) plus Checkpoint — the stall the durable layer
#     imposes on a shard once per SnapshotEvery records — benches slow
#     enough that 10% means something; the ~100 ns
#     kernel micros swing ±25% run-to-run on a shared box, so they are
#     alloc-gated only. Widen via PINNED when running on a quiet machine.
#
# Only benchmarks present in BOTH files are compared, so adding or renaming
# benches never trips the gate.
#
# Usage: scripts/bench_gate.sh <old.json> <new.json>
#   THRESHOLD  allowed ns/op regression fraction (default 0.10)
#   PINNED     regex of benchmark names to ns/op-gate
set -euo pipefail

[ $# -eq 2 ] || { echo "usage: $0 <old.json> <new.json>" >&2; exit 2; }
OLD="$1"
NEW="$2"
THRESHOLD="${THRESHOLD:-0.10}"
PINNED="${PINNED:-^Benchmark(ShardedApply|BatchApply|ReplicatedApply|HandlerRenew|Checkpoint$)}"

[ -f "$OLD" ] || { echo "bench_gate: missing $OLD" >&2; exit 2; }
[ -f "$NEW" ] || { echo "bench_gate: missing $NEW" >&2; exit 2; }

python3 - "$OLD" "$NEW" "$THRESHOLD" "$PINNED" <<'EOF'
import json, re, sys

old_path, new_path, threshold, pinned = sys.argv[1:5]
threshold = float(threshold)
pin = re.compile(pinned)

def load(path):
    with open(path) as f:
        return {r["name"]: r for r in json.load(f) if "ns_op" in r}

old, new = load(old_path), load(new_path)
shared = sorted(n for n in new if n in old)
if not shared:
    sys.exit(f"bench_gate: no benchmarks shared between {old_path} and {new_path}")

failures = []
gated = 0
for name in shared:
    o, n = old[name], new[name]
    if n["allocs_op"] > o["allocs_op"]:
        failures.append(f"{name}: allocs/op {o['allocs_op']} -> {n['allocs_op']}")
    if pin.search(name):
        gated += 1
        if o["ns_op"] > 0 and n["ns_op"] > o["ns_op"] * (1 + threshold):
            failures.append(
                f"{name}: ns/op {o['ns_op']} -> {n['ns_op']} "
                f"(+{100 * (n['ns_op'] / o['ns_op'] - 1):.1f}% > {100 * threshold:.0f}%)")

# The zero-alloc acceptance pins hold unconditionally.
for name, rec in new.items():
    if re.search(r"^Benchmark(ShardedApply|BatchApply|ReplicatedApply)", name) and rec["allocs_op"] != 0:
        failures.append(f"{name}: allocs/op = {rec['allocs_op']}, pinned at 0")

# PR 8 acceptance pins: the world-reuse work dropped BatteryLife from ~64k
# allocs/op to a few hundred — hold the line at the PR's ceiling so closure
# or pooling regressions surface immediately. FleetDevice must exist (the
# sweep stays benchmarked) and stay within the same alloc ceiling per device.
CEILINGS = {"BenchmarkBatteryLife": 6400, "BenchmarkFleetDevice": 6400}
for name, ceiling in CEILINGS.items():
    rec = new.get(name)
    if rec is None:
        failures.append(f"{name}: missing from {new_path}, pinned benchmark")
    elif rec["allocs_op"] > ceiling:
        failures.append(f"{name}: allocs/op = {rec['allocs_op']}, pinned at <= {ceiling}")

if failures:
    print("bench_gate: FAIL", file=sys.stderr)
    for f in failures:
        print("  " + f, file=sys.stderr)
    sys.exit(1)
print(f"bench_gate: OK ({len(shared)} benchmarks alloc-checked, "
      f"{gated} ns/op-gated within {100 * threshold:.0f}%)")
EOF
