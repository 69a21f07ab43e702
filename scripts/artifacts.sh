#!/usr/bin/env bash
# Behaviour-preservation proof: the deterministic bench artifacts are a
# pure function of the code, so a refactor that changes no behaviour must
# regenerate them byte for byte.
#
#   scripts/artifacts.sh              all six benches that write a committed
#                                     BENCH_*.json (~11 min: two thirds of it
#                                     `cross_shard`, ~75 s `paper`)
#   scripts/artifacts.sh BENCH ...    only the named benches, and only their
#                                     BENCH_<name>.json is checked (e.g.
#                                     `paper hotpath availability`, a few
#                                     minutes); an unknown name exits 2
#
# Fails if a checked artifact differs from the last commit. On a
# difference it names each changed JSON leaf as `file path: old -> new`
# (needs python3), so a change that moves artifacts on purpose can list its
# moved cells. In a bench whose rows are cells it also names the cell that
# holds each leaf (from the bench's `-- --cells` listing of id and JSON
# path) and the `scripts/cells.sh BENCH ID` command that re-runs it alone.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

all=(table1 sharding availability cross_shard hotpath paper)
if [ $# -eq 0 ]; then
    benches=("${all[@]}")
else
    benches=("$@")
    for bench in "${benches[@]}"; do
        if [[ ! " ${all[*]} " =~ " $bench " ]]; then
            echo "artifacts: unknown bench '$bench' (one of: ${all[*]})" >&2
            exit 2
        fi
    done
fi
artifacts=()
for bench in "${benches[@]}"; do
    artifacts+=("BENCH_$bench.json")
done

for bench in "${benches[@]}"; do
    echo "==> cargo bench --bench $bench"
    t0=$SECONDS
    cargo bench -q -p bench --bench "$bench" >/dev/null
    echo "    [$bench: $((SECONDS - t0))s]"
done

if git diff --quiet HEAD -- "${artifacts[@]}"; then
    echo "artifacts: byte-identical (${artifacts[*]})"
    exit 0
fi
# A bench has cells when its driver is `bench::cells::main`.
with_cells=$(echo $(grep -l 'cells::main(' crates/bench/benches/*.rs | xargs -n1 basename | sed 's/\.rs$//'))
git diff --name-only HEAD -- "${artifacts[@]}" | WITH_CELLS=$with_cells python3 -c '
import json, os, re, subprocess, sys

def cells(bench):
    """(id, JSON path) of every cell of `bench`, or none without cells."""
    if bench not in os.environ["WITH_CELLS"].split():
        return []
    listing = subprocess.run(
        ["cargo", "bench", "-q", "-p", "bench", "--bench", bench, "--", "--cells"],
        capture_output=True, text=True, check=True).stdout
    return [line.split("\t") for line in listing.splitlines()]

def walk(path, where, a, b, moved):
    if isinstance(a, dict) and isinstance(b, dict):
        for k in list(a) + [k for k in b if k not in a]:
            walk(path, f"{where}.{k}", a.get(k, "<absent>"), b.get(k, "<absent>"), moved)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            walk(path, f"{where}[{i}]", x, y, moved)
    elif a != b:
        moved.append((where or ".", a, b))

for path in sys.stdin.read().split():
    old = subprocess.run(["git", "show", f"HEAD:{path}"], capture_output=True)
    if old.returncode != 0:
        print(f"{path}: new file, absent at HEAD")
        continue
    moved = []
    walk(path, "", json.loads(old.stdout), json.load(open(path)), moved)
    bench = re.fullmatch(r"BENCH_(\w+)\.json", path).group(1)
    listing = cells(bench)
    for where, a, b in moved:
        print(f"{path} {where}: {json.dumps(a)} -> {json.dumps(b)}")
        for cell_id, at in listing:
            if re.fullmatch(re.escape("." + at) + r"([.\[].*)?", where):
                print(f"    cell {cell_id}: scripts/cells.sh {bench} {cell_id}")
'
echo "artifacts: differ from HEAD (changed leaves above)" >&2
exit 1
