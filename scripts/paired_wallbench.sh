#!/usr/bin/env bash
# Alternating paired wallbench runs of two builds — what a claimed gain has
# to rest on (ROADMAP, "State": the box has a ~1.5x slow mode that can hold
# for a whole invocation, so one number per side proves nothing).
#
#   scripts/paired_wallbench.sh [--moves COUNT[,COUNT...]] [--seed-base N] [--claim WORKLOAD:METRIC] A_BIN B_BIN [seconds=10] [pairs=3] [workload...]
#
# A_BIN / B_BIN are two `wallbench` executables (build each commit into its
# own target directory: `CARGO_TARGET_DIR=/some/dir cargo build --release -p
# wallbench`). Per workload (default: all seven; name some to give a claim on
# one workload the >= 10 pairs it needs in minutes instead of half an hour)
# it runs A,B,B,A,A,B,... (`pairs` >= 3 untraced pairs, the side that goes
# first alternating, pair k on seed N + k, N = `--seed-base`, default 0) and
# one traced run per side (seed N + 1), then prints
#   * per end-to-end metric: each side's median and quartiles, B/A, the
#     distance between the medians in units of A's inter-quartile distance
#     (a claimed gain needs > 1 and B better in >= 9/10 pairs), and in how
#     many pairs B won (ties count for neither side); then a
#     `WORSE THAN BOUND` line for each metric whose B median is worse than
#     A's by more than its bound (`better` and `bound` are read from
#     BENCHMARK.json's `end_to_end` list);
#   * per side, latency_p99_us / latency_p50_us of those medians (the tail
#     target of ROADMAP item 4 is stated as that ratio);
#   * the per-layer timings of the traced runs (one run each: informational);
#   * every exact count that differs between A and B.
# `--moves` (repeatable, comma-separated) names the exact counts the change
# predicts will move, e.g. `--moves crypto.digest_kib_per_op`: each is
# printed A -> B per workload (and noted when it did not move there) and is
# not a failure. `--seed-base N` moves every run to unseen seeds: a change
# tuned while watching seeds 1..k confirms its claim on `--seed-base 10`.
# `--claim WORKLOAD:METRIC` (e.g. `--claim sql_insert:ops_per_s`) names the
# gain the change claims and prints `CLAIM met` or `CLAIM not met`: met
# needs >= 10 pairs, B better in >= 9/10 of them and gap/IQR(A) > 1, with
# B's median on the better side. An unknown workload or end-to-end metric
# exits 2 before anything runs.
# Exit code: 0 = all runs correct, every exact count not named by `--moves`
# identical, no median worse than its bound and the claim (if any) met;
# 1 = otherwise; 2 = bad arguments.
set -euo pipefail

# README "Per-layer (a)": repeat exactly run to run, so any difference is the code's.
exact="net.msgs_per_op net.bytes_per_op batch.ops_per_batch crypto.macs_per_op \
crypto.digest_kib_per_op crypto.mac_kib_per_op codec.encodings_per_op \
state.pages_hashed_per_op state.checkpoints state.transfer_kib_per_recovery \
replica.view_changes client.retransmits timers.fired loop.events_per_op \
failover.virtual_ms"

workloads="null_write null_write_n10 linear_write serial_write null_read sql_insert sql_recover"
benchmark="$(dirname "$0")/../BENCHMARK.json"
# "name better bound" per end-to-end metric.
end_to_end=$(python3 -c '
import json, sys
for m in json.load(open(sys.argv[1]))["end_to_end"]:
    print(m["name"], m["better"], m["bound"])
' "$benchmark")
metrics=$(echo "$end_to_end" | cut -d' ' -f1 | paste -sd' ')

moves=""
seed_base=0
claim=""
while [ $# -gt 0 ]; do
    case "$1" in
    --moves | --seed-base | --claim) ;;
    *) break ;;
    esac
    if [ $# -lt 2 ]; then
        echo "paired_wallbench: $1 needs a value" >&2
        exit 2
    fi
    if [ "$1" = --claim ]; then
        case " $workloads " in
        *" ${2%%:*} "*) ;;
        *)
            echo "paired_wallbench: --claim $2: unknown workload ${2%%:*} (known: $workloads)" >&2
            exit 2
            ;;
        esac
        case " $metrics " in
        *" ${2#*:} "*) ;;
        *)
            echo "paired_wallbench: --claim $2: unknown end-to-end metric ${2#*:} (known: $metrics)" >&2
            exit 2
            ;;
        esac
        claim=$2
        shift 2
        continue
    fi
    if [ "$1" = --seed-base ]; then
        case "$2" in
        '' | *[!0-9]*)
            echo "paired_wallbench: --seed-base needs a non-negative integer, got $2" >&2
            exit 2
            ;;
        esac
        seed_base=$2
        shift 2
        continue
    fi
    for count in ${2//,/ }; do
        case " $exact " in
        *" $count "*) moves="$moves $count" ;;
        *)
            echo "paired_wallbench: $count is not an exact count (known: $exact)" >&2
            exit 2
            ;;
        esac
    done
    shift 2
done

if [ $# -lt 2 ]; then
    sed -n '2,40p' "$0" >&2
    exit 2
fi
a_bin=$(readlink -f "$1")
b_bin=$(readlink -f "$2")
seconds=${3:-10}
pairs=${4:-3}
if [ "$pairs" -lt 3 ]; then
    echo "paired_wallbench: need at least 3 pairs, got $pairs" >&2
    exit 2
fi

# Traced runs write a span file under $CARGO_TARGET_DIR; keep it out of the tree.
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
export CARGO_TARGET_DIR="$work/target"

if [ $# -gt 4 ]; then
    shift 4
    for workload in "$@"; do
        case " $workloads " in
        *" $workload "*) ;;
        *)
            echo "paired_wallbench: unknown workload $workload (known: $workloads)" >&2
            exit 2
            ;;
        esac
    done
    workloads="$*"
fi
if [ -n "$claim" ] && [[ " $workloads " != *" ${claim%%:*} "* ]]; then
    echo "paired_wallbench: --claim $claim names a workload that is not run (running: $workloads)" >&2
    exit 2
fi

# run SIDE BIN WORKLOAD SEED TRACE -> appends one "side workload trace <json>" line
run() {
    local side=$1 bin=$2 workload=$3 seed=$4 trace=$5 out
    if ! out=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1); then
        # exit 1 = measured but incorrect (the JSON says so); anything else = nothing measured
        [ -n "$out" ] || out='{"correct": false, "attempted": 0, "failed": 0, "metrics": {}}'
    fi
    printf '%s\t%s\t%s\t%s\n' "$side" "$workload" "$trace" "$out" >>"$work/runs.tsv"
}

for workload in $workloads; do
    echo "== $workload: $pairs pairs x ${seconds}s + 1 traced run per side, seeds $((seed_base + 1))..$((seed_base + pairs))" >&2
    for pair in $(seq "$pairs"); do
        seed=$((seed_base + pair))
        if [ $((pair % 2)) -eq 1 ]; then
            run A "$a_bin" "$workload" "$seed" 0
            run B "$b_bin" "$workload" "$seed" 0
        else
            run B "$b_bin" "$workload" "$seed" 0
            run A "$a_bin" "$workload" "$seed" 0
        fi
    done
    run A "$a_bin" "$workload" $((seed_base + 1)) 1
    run B "$b_bin" "$workload" $((seed_base + 1)) 1
done

python3 - "$work/runs.tsv" "$exact" "$moves" "$end_to_end" "$claim" <<'EOF'
import json, statistics, sys

EXACT = sys.argv[2].split()
MOVES = set(sys.argv[3].split())
# name -> (higher is better, bound), from BENCHMARK.json
END_TO_END = {
    name: (better == "higher", float(bound))
    for name, better, bound in (line.split() for line in sys.argv[4].splitlines())
}
CLAIM = tuple(sys.argv[5].split(":")) if sys.argv[5] else None


def quartiles(xs):
    """(q1, median, q3), linearly interpolated between the sorted runs."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


claim_line = f"CLAIM not met  {':'.join(CLAIM)}: no runs" if CLAIM else None
runs = {}  # (workload, trace) -> side -> [doc]
order = []
for line in open(sys.argv[1]):
    side, workload, trace, doc = line.rstrip("\n").split("\t", 3)
    if workload not in order:
        order.append(workload)
    runs.setdefault((workload, trace), {}).setdefault(side, []).append(json.loads(doc))

bad = []
for workload in order:
    print(f"\n## {workload}")
    plain = runs[(workload, "0")]
    for side in "AB":
        for doc in plain[side] + runs[(workload, "1")][side]:
            if not doc.get("correct") or doc.get("failed"):
                bad.append(f"{workload}: a run of {side} was incorrect or had failed ops")
    names = list(plain["A"][0]["metrics"])
    print(f"{'end-to-end metric':<16} {'A q1':>11} {'A median':>11} {'A q3':>11}"
          f" {'B q1':>11} {'B median':>11} {'B q3':>11} {'B/A':>7} {'gap/IQR(A)':>10}  B better in")
    medians = {}
    worse = []
    for name in names:
        a = [d["metrics"][name]["value"] for d in plain["A"] if name in d["metrics"]]
        b = [d["metrics"][name]["value"] for d in plain["B"] if name in d["metrics"]]
        if not a or not b:
            continue
        higher, bound = END_TO_END.get(name, (False, None))
        wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        (qa1, ma, qa3), (qb1, mb, qb3) = quartiles(a), quartiles(b)
        ratio = f"{mb / ma:7.3f}" if ma else "    n/a"
        # Medians further apart than the parent's own run-to-run spread?
        iqr = qa3 - qa1
        gap = abs(mb - ma) / iqr if iqr else (float("inf") if mb != ma else 0.0)
        print(f"{name:<16} {qa1:11.3f} {ma:11.3f} {qa3:11.3f} {qb1:11.3f} {mb:11.3f} {qb3:11.3f}"
              f" {ratio} {gap:10.2f}  {wins}/{len(a)} pairs")
        medians[name] = (ma, mb)
        if bound is not None and (mb < ma * (1 - bound) if higher else mb > ma * (1 + bound)):
            worse.append(f"WORSE THAN BOUND  {workload} {name}: B/A {ratio.strip()}, bound {bound}")
        if CLAIM == (workload, name):
            better = mb > ma if higher else mb < ma
            met = len(a) >= 10 and wins * 10 >= 9 * len(a) and gap > 1 and better
            claim_line = (f"CLAIM {'met' if met else 'not met'}  {workload}:{name}: B better in"
                          f" {wins}/{len(a)} pairs (needs >= 9/10 of >= 10), gap/IQR(A) {gap:.2f}"
                          f" (needs > 1), B/A {ratio.strip()}")
            if not met:
                bad.append(f"{workload}: the claim on {name} is not met")
    for line in worse:
        print(line)
        bad.append(line)
    # ROADMAP item 4 states its tail target as this ratio (p99 <= 2 x p50).
    if all(medians.get(n, (0, 0))[0] for n in ("latency_p50_us", "latency_p99_us")):
        (a50, b50), (a99, b99) = medians["latency_p50_us"], medians["latency_p99_us"]
        print(f"{'p99/p50':<16} {'':11} {a99 / a50:11.3f} {'':11} {'':11} {b99 / b50:11.3f}"
              f"   (of the medians above)")
    ta = runs[(workload, "1")]["A"][0]["metrics"]
    tb = runs[(workload, "1")]["B"][0]["metrics"]
    print(f"{'per-layer (1 traced run each)':<30} {'A':>12} {'B':>12}")
    for name in ta:
        if name in EXACT or name not in tb:
            continue
        va, vb = ta[name]["value"], tb[name]["value"]
        if va or vb:
            print(f"{name:<30} {va:12.3f} {vb:12.3f}")
    differing = [n for n in EXACT if ta.get(n) != tb.get(n)]
    for name in EXACT:
        va = ta.get(name, {}).get("value")
        vb = tb.get(name, {}).get("value")
        if name in MOVES:
            verb = "moved" if name in differing else "did not move"
            print(f"PREDICTED MOVE {verb}  {name}: A {va!r} -> B {vb!r}")
        elif name in differing:
            print(f"EXACT COUNT DIFFERS  {name}: A {va!r}  B {vb!r}")
            bad.append(f"{workload}: {name} differs")
    unnamed = [n for n in EXACT if n not in MOVES]
    if not any(n in differing for n in unnamed):
        print(f"exact counts: all {len(unnamed)} not named by --moves identical")

print()
if claim_line:
    print(claim_line)
if bad:
    print("paired_wallbench: FAILED")
    for why in bad:
        print(f"  {why}")
    sys.exit(1)
print("paired_wallbench: every run correct, every exact count not named by --moves identical,"
      " no median worse than its bound" + (", the claim met" if CLAIM else ""))
EOF
