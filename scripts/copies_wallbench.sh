#!/usr/bin/env bash
# How many bytes does a wallbench workload copy, and who copies whole
# pages? A copy profile with nothing but cc, nm and python3.
#
#   scripts/copies_wallbench.sh WORKLOAD [seconds=5]
#
# Builds `wallbench` as the benchmark builds it (`cargo build --release`,
# nothing in it changed), compiles scripts/prof/copies.c into a shared
# object and runs the workload untraced, seed 1, with it preloaded. The
# shim interposes memcpy and memmove and counts calls and bytes per
# power-of-two size class, and the copies of a page's class ([4 KiB,
# 8 KiB): a database page, a journal entry) by call site. Prints the
# workload's end-to-end lines, then one line per size class (calls and
# bytes, and both per operation), then the page-sized copies per operation
# by the function that made the call, symbolised with `nm` (a return
# address inside a function another was inlined into names the outer
# one). "Per operation" divides by the run's completed operations; the
# setup before the measured window (cluster build, schema) is counted too
# and is negligible beside a few seconds of load. Copies the compiler
# inlined and copies inside libc are not seen. To measure another commit,
# copy this script and scripts/prof/copies.c into a checkout of it. Not part
# of tier-1 or verify.sh.
set -euo pipefail

if [ $# -lt 1 ]; then
    sed -n '2,22p' "$0" >&2
    exit 2
fi
for tool in cc nm python3 cargo; do
    if ! command -v "$tool" >/dev/null 2>&1; then
        echo "copies_wallbench: needs \`$tool\` on PATH" >&2
        exit 2
    fi
done
workload=$1
seconds=${2:-5}
cd "$(dirname "$0")/.."

cargo build --release --offline -q -p wallbench
dir=target/copies
mkdir -p "$dir"
cc -O2 -shared -fPIC -o "$dir/copies.so" scripts/prof/copies.c
bin=target/release/wallbench

COPIES_OUT=$dir/copies.txt LD_PRELOAD=$PWD/$dir/copies.so "$bin" \
    --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 >"$dir/run.txt"
grep -E '^ +(ops_per_s|latency_p50_us|latency_p99_us) ' "$dir/run.txt" || true
python3 - "$bin" "$dir/copies.txt" "$dir/run.txt" <<'PY'
import bisect, json, os, re, subprocess, sys
binary, copies_path, run_path = sys.argv[1:4]
real = os.path.realpath(binary)
doc = json.loads(next(l for l in open(run_path) if l.startswith("{")))
ops = max(doc["attempted"] - doc["failed"], 1)
classes, sites, maps = [], [], []
for line in open(copies_path):
    f = line.split()
    if f[0] == "K":
        classes.append((int(f[1]), int(f[2]), int(f[3])))
    elif f[0] == "C":
        sites.append((int(f[1], 16), int(f[2])))
    elif f[0] == "M":
        lo, hi = (int(x, 16) for x in f[1].split("-"))
        maps.append((lo, hi, int(f[3], 16), f[6] if len(f) > 6 else "[anon]"))
out = subprocess.run(["nm", "-C", "-n", "-S", "--defined-only", real],
                     capture_output=True, text=True).stdout
syms = [l.split(None, 3) for l in out.splitlines()]
syms = [(int(s[0], 16), int(s[1], 16), re.sub(r"::h[0-9a-f]{16}$", "", s[3]))
        for s in syms if len(s) == 4 and s[2] in "tTwWi"]
base = min((lo for lo, _, off, p in maps if p == real and off == 0), default=0)
def name(pc):
    for lo, hi, _, path in maps:
        if lo <= pc < hi and path != real:
            return "[%s]" % os.path.basename(path)
    i = bisect.bisect_right(syms, (pc - base, float("inf"), "")) - 1
    if i >= 0 and pc - base < syms[i][0] + max(syms[i][1], 1):
        return syms[i][2]
    return "[unknown]"
def size(k):
    for unit, shift in (("MiB", 20), ("KiB", 10)):
        if k >= shift:
            return "%d %s" % (1 << (k - shift), unit)
    return "%d B" % (1 << k)
print("%d operations" % ops)
print("\n%-16s %12s %14s %10s %12s" % ("size class", "calls", "bytes", "calls/op", "bytes/op"))
for k, n, b in sorted(classes):
    print("%-16s %12d %14d %10.2f %12.1f" % (">= " + size(k), n, b, n / ops, b / ops))
by_fn = {}
for pc, n in sites:
    fn = name(pc - 1)  # a return address points after the call
    by_fn[fn] = by_fn.get(fn, 0) + n
total = sum(by_fn.values())
print("\npage-sized copies: %.2f per operation" % (total / ops))
for fn, n in sorted(by_fn.items(), key=lambda x: -x[1]):
    print("%8.2f  %s" % (n / ops, fn))
PY
