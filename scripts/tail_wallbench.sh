#!/usr/bin/env bash
# Where a workload's tail goes: the slowest operations of traced wallbench
# runs, grouped by the stall they share, with what ran during each stall.
#
#   scripts/tail_wallbench.sh BIN WORKLOAD [runs=3]
#
# BIN is a `wallbench` executable. It makes `runs` traced invocations
# (`--trace 1 --seconds 2`, seed 1) and keeps each one's span file (the
# directory is printed at the end). The schedule is deterministic, so the
# k-th operation of a client is the same operation in every run; its
# latency is the gap between that client's k-th and (k+1)-th
# `client.submit` stamps (closed loop: a client submits the moment its
# previous operation completes), and its best latency is the minimum over
# the runs. The script prints
#   * p50 / p99 of the best latencies;
#   * for the slowest 1.5 %: their windows in the first run, merged where
#     they overlap — a cluster is a set of operations that shared a stall —
#     with, per cluster, the span kinds that took the most time inside the
#     window and every gap with no span running over 50 us, and its
#     labels: `checkpoint` when the window holds a `replica.checkpoint`
#     span, `restart` when it holds a `boot` span (a replica restarted
#     blank), `transfer` when `replica.transfer` calls take over half the
#     window; a last line counts, per label, the clusters and their
#     operations (how much of the slowest 1.5 % each is in).
# Needs python3.
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,23p' "$0" >&2
    exit 2
fi
bin=$(readlink -f "$1")
workload=$2
runs=${3:-3}

keep=$(mktemp -d)
for run in $(seq "$runs"); do
    # A traced run writes its span file under $CARGO_TARGET_DIR.
    if ! CARGO_TARGET_DIR="$keep/target" "$bin" --workload "$workload" --seed 1 --seconds 2 \
        --trace 1 >/dev/null; then
        echo "tail_wallbench: run $run of $workload failed or was incorrect" >&2
        exit 1
    fi
    mv "$keep/target/wallbench/trace-$workload.jsonl" "$keep/spans-$run.jsonl"
done
rm -rf "$keep/target"

python3 - "$keep" "$runs" <<'EOF'
import bisect, json, sys
from collections import defaultdict

keep, runs = sys.argv[1], int(sys.argv[2])
SLOW_SHARE = 0.015
GAP_NS = 50_000


def load(path):
    spans = [json.loads(line) for line in open(path)]
    spans.sort(key=lambda s: s["start_ns"])
    return spans


def ops(spans):
    """(client node, k) -> (start_ns, end_ns): consecutive submits of one client."""
    submits = defaultdict(list)
    for s in spans:
        if s["name"] == "client.submit":
            submits[s["node"]].append(s["start_ns"])
    out = {}
    for node, stamps in submits.items():
        for k in range(len(stamps) - 1):
            out[(node, k)] = (stamps[k], stamps[k + 1])
    return out


def pct(xs, q):
    return xs[min(len(xs) - 1, int(q * len(xs)))]


timelines = [load(f"{keep}/spans-{r}.jsonl") for r in range(1, runs + 1)]
windows = [ops(t) for t in timelines]
common = set(windows[0]).intersection(*windows[1:])
best = {op: min(w[op][1] - w[op][0] for w in windows) for op in common}
lat = sorted(best.values())
print(f"{len(lat)} operations, best of {runs} traced runs")
print(f"p50 {pct(lat, 0.50) / 1e3:9.1f} us   p99 {pct(lat, 0.99) / 1e3:9.1f} us"
      f"   p99/p50 {pct(lat, 0.99) / pct(lat, 0.50):.2f}")

cut = pct(lat, 1 - SLOW_SHARE)
slow = sorted((windows[0][op], op) for op in common if best[op] >= cut)
print(f"slowest {SLOW_SHARE:.1%}: {len(slow)} operations, best latency >= {cut / 1e3:.1f} us")

clusters = []  # [start, end, [ops]]
for (start, end), op in slow:
    if clusters and start <= clusters[-1][1]:
        clusters[-1][1] = max(clusters[-1][1], end)
        clusters[-1][2].append(op)
    else:
        clusters.append([start, end, [op]])

spans = timelines[0]
starts = [s["start_ns"] for s in spans]
print(f"{len(clusters)} clusters (windows in run 1, overlapping ones merged), largest first:")
LABELS = ("checkpoint", "restart", "transfer")
labelled = {name: [0, 0] for name in LABELS}
for rank, (start, end, members) in enumerate(sorted(clusters, key=lambda c: -len(c[2]))):
    per_kind = defaultdict(lambda: [0, 0])
    gaps, cursor = [], start
    # Spans never overlap (the driver makes one call at a time): only the
    # one before the first that starts in the window can reach into it.
    for s in spans[max(bisect.bisect_left(starts, start) - 1, 0):]:
        if s["start_ns"] >= end:
            break
        a, b = max(s["start_ns"], start), min(s["end_ns"], end)
        if b <= a:
            continue
        per_kind[s["name"]][0] += 1
        per_kind[s["name"]][1] += b - a
        if a - cursor > GAP_NS:
            gaps.append(a - cursor)
        cursor = max(cursor, b)
    if end - cursor > GAP_NS:
        gaps.append(end - cursor)
    labels = [
        name
        for name, holds in zip(
            LABELS,
            (
                "replica.checkpoint" in per_kind,
                "boot" in per_kind,
                2 * per_kind.get("replica.transfer", (0, 0))[1] > end - start,
            ),
        )
        if holds
    ]
    for name in labels:
        labelled[name][0] += 1
        labelled[name][1] += len(members)
    label = "+".join(labels) or "-"
    if rank >= 20:
        continue
    lats = sorted(best[op] for op in members)
    top = sorted(per_kind.items(), key=lambda kv: -kv[1][1])[:4]
    kinds = ", ".join(f"{name} {n}x {t / 1e3:.1f} us" for name, (n, t) in top)
    print(f"  {len(members):3} ops  {label:26}  window {(end - start) / 1e3:8.1f} us"
          f"  best {lats[0] / 1e3:.1f}-{lats[-1] / 1e3:.1f} us  | {kinds}")
    if gaps:
        print(f"      driver gaps > {GAP_NS // 1000} us: "
              + ", ".join(f"{g / 1e3:.1f}" for g in sorted(gaps, reverse=True)[:5]) + " us")
print(f"labelled clusters of {len(clusters)}, holding the {len(slow)} slowest operations: "
      + ", ".join(f"{name} {n} ({ops} ops)" for name, (n, ops) in labelled.items()))
print(f"span files kept in {keep}")
EOF
