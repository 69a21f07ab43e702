#!/usr/bin/env bash
# What is the live heap of a wallbench workload made of at its peak? An
# allocation profile with nothing but cc, beside the benchmark's own
# `peak_rss_mib` (VmHWM, which counts every resident page, heap or not).
#
#   scripts/heap_wallbench.sh WORKLOAD [seconds=5]
#
# Builds `wallbench` as the benchmark builds it (`cargo build --release`,
# nothing in it changed), compiles scripts/prof/heap.c into a shared object
# and runs the workload untraced, seed 1, with it preloaded. The shim
# interposes malloc, calloc, realloc, free and posix_memalign (and
# aligned_alloc, memalign), keeps the live bytes and blocks per
# power-of-two size class of usable size, snapshots the classes at each
# new peak of the live total, and prints at exit the peak live heap and
# that snapshot, largest class first (the `heap:` lines). A database page
# is a 4 096 B request, 4 104 usable bytes: the [4.0 KiB, 8.0 KiB) class.
# The workload's own end-to-end lines are printed above it. To measure
# another commit, copy this script and scripts/prof/heap.c into a checkout
# of it. Not part of tier-1 or verify.sh.
set -euo pipefail

if [ $# -lt 1 ]; then
    sed -n '2,19p' "$0" >&2
    exit 2
fi
for tool in cc cargo; do
    if ! command -v "$tool" >/dev/null 2>&1; then
        echo "heap_wallbench: needs \`$tool\` on PATH" >&2
        exit 2
    fi
done
workload=$1
seconds=${2:-5}
cd "$(dirname "$0")/.."

cargo build --release --offline -q -p wallbench
dir=target/heap
mkdir -p "$dir"
cc -O2 -shared -fPIC -o "$dir/heap.so" scripts/prof/heap.c

LD_PRELOAD=$PWD/$dir/heap.so target/release/wallbench \
    --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 \
    >"$dir/run.txt" 2>"$dir/heap.txt"
grep -E '^ +(ops_per_s|latency_p50_us|latency_p99_us|peak_rss_mib) ' "$dir/run.txt" || true
grep '^heap:' "$dir/heap.txt"
