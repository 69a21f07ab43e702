#!/usr/bin/env bash
# Behaviour-preservation proof: the deterministic bench artifacts are a
# pure function of the code, so a refactor that changes no behaviour must
# regenerate them byte for byte. Re-runs the six benches that write a
# committed BENCH_*.json (~11 min: two thirds of it `cross_shard`, ~75 s
# `paper`) and fails if any artifact differs from the last commit. On a
# difference it names each changed JSON leaf as `file path: old -> new`
# (needs python3), so a change that moves artifacts on purpose can list its
# moved cells.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
# The trial-count knobs change the artifacts; pin them to their defaults.
unset XSHARD_TRIALS SHARDING_TRIALS

for bench in table1 sharding availability cross_shard hotpath paper; do
    echo "==> cargo bench --bench $bench"
    t0=$SECONDS
    cargo bench -q -p bench --bench "$bench" >/dev/null
    echo "    [$bench: $((SECONDS - t0))s]"
done

if git diff --quiet HEAD -- 'BENCH_*.json'; then
    echo "artifacts: byte-identical"
    exit 0
fi
git diff --name-only HEAD -- 'BENCH_*.json' | python3 -c '
import json, subprocess, sys

def walk(path, where, a, b):
    if isinstance(a, dict) and isinstance(b, dict):
        for k in list(a) + [k for k in b if k not in a]:
            walk(path, f"{where}.{k}", a.get(k, "<absent>"), b.get(k, "<absent>"))
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            walk(path, f"{where}[{i}]", x, y)
    elif a != b:
        where = where or "."
        print(f"{path} {where}: {json.dumps(a)} -> {json.dumps(b)}")

for path in sys.stdin.read().split():
    old = subprocess.run(["git", "show", f"HEAD:{path}"], capture_output=True)
    if old.returncode != 0:
        print(f"{path}: new file, absent at HEAD")
        continue
    walk(path, "", json.loads(old.stdout), json.load(open(path)))
'
echo "artifacts: differ from HEAD (changed leaves above)" >&2
exit 1
