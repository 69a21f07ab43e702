#!/usr/bin/env bash
# Re-run cells of a bench one at a time and compare each row with the
# committed BENCH_<bench>.json.
#
#   scripts/cells.sh BENCH [CELL_ID...]     BENCH: one whose rows are cells
#                                           (paper, table1, hotpath, sharding,
#                                           availability, cross_shard)
#
# With no id it runs every cell of BENCH (`cargo bench -p bench --bench
# BENCH -- --cells` lists them, with the JSON path of each row). A cell is
# built from its own seed, so run alone it must print exactly the committed
# row: every field it prints is compared with the committed one (numbers
# as the artifact renders them), and the fields a section derives from
# other rows (`paper`'s `pct_of_best`, `latency_increase_pct`,
# `pct_of_baseline`, `sharding`'s `scaling_efficiency`, `cross_shard`'s
# `vs_local`) are named but not compared. Prints one line per cell,
# `same` or each differing field as `committed -> alone`, and exits 1 if
# any cell differs. Throughput cells also print each trial's mean batch on
# replica 0 (stderr); add `--trace` by hand to `cargo bench -p bench
# --bench BENCH -- --cell ID --trace` to write their message traces under
# target/BENCH-cells/. Needs python3.
set -euo pipefail
cd "$(dirname "$0")/.."

# A bench has cells when its driver is `bench::cells::main`.
with_cells=$(echo $(grep -l 'cells::main(' crates/bench/benches/*.rs | xargs -n1 basename | sed 's/\.rs$//'))
if [ $# -eq 0 ]; then
    echo "usage: scripts/cells.sh BENCH [CELL_ID...]  (BENCH: one of: $with_cells)" >&2
    exit 2
fi
name=$1
shift
if [[ ! " $with_cells " =~ " $name " ]]; then
    echo "cells: bench '$name' has no cells (one of: $with_cells)" >&2
    exit 2
fi

bench() {
    cargo bench -q -p bench --bench "$name" -- "$@"
}

listing=$(bench --cells)
if [ $# -gt 0 ]; then
    ids=("$@")
else
    mapfile -t ids < <(echo "$listing" | cut -f1)
fi

status=0
for id in "${ids[@]}"; do
    path=$(echo "$listing" | awk -F'\t' -v id="$id" '$1 == id { print $2 }')
    if [ -z "$path" ]; then
        echo "cells: no cell $id in $name" >&2
        exit 2
    fi
    out=$(bench --cell "$id")
    if ! python3 - "BENCH_$name.json" "$id" "$path" "$out" <<'EOF'; then
import json, re, sys

artifact, cell_id, path, out = sys.argv[1:5]
alone = json.loads(out.split(f"== cell {cell_id}\n", 1)[1])
committed = json.load(open(artifact))
for key, index in re.findall(r"(\w+)|\[(\d+)\]", path):
    committed = committed[key] if key else committed[int(index)]
differs = [f"{k}: {committed.get(k)!r} -> {v!r}" for k, v in alone.items() if committed.get(k) != v]
derived = [k for k in committed if k not in alone]
note = f"  (derived, not compared: {', '.join(derived)})" if derived else ""
if differs:
    print(f"{cell_id}: DIFFERS " + "; ".join(differs) + note)
    sys.exit(1)
print(f"{cell_id}: same{note}")
EOF
        status=1
    fi
done
exit $status
