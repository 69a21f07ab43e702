#!/usr/bin/env bash
# Re-run cells of the paper bench one at a time and compare each row with
# the committed BENCH_paper.json.
#
#   scripts/paper_cells.sh [CELL_ID...]
#
# With no id it runs every cell (`cargo bench -p bench --bench paper --
# --cells` lists them, with the JSON path of each row). A cell is built
# from its own seed, so run alone it must print exactly the committed row:
# every field it prints is compared with the committed one (numbers as the
# artifact renders them), and the fields a section derives from other rows
# (`pct_of_best`, `latency_increase_pct`, `pct_of_baseline`) are named but
# not compared. Prints one line per cell, `same` or each differing field as
# `committed -> alone`, and exits 1 if any cell differs. SQL cells also
# print each trial's mean batch (stderr); add `--trace` by hand to
# `cargo bench -p bench --bench paper -- --cell ID --trace` to write their
# message traces under target/paper-cells/. Needs python3.
set -euo pipefail
cd "$(dirname "$0")/.."

bench() {
    cargo bench -q -p bench --bench paper -- "$@"
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
        echo "paper_cells: no cell $id" >&2
        exit 2
    fi
    out=$(bench --cell "$id")
    if ! python3 - "$id" "$path" "$out" <<'EOF'; then
import json, re, sys

cell_id, path, out = sys.argv[1], sys.argv[2], sys.argv[3]
alone = json.loads(out.split(f"== cell {cell_id}\n", 1)[1])
section, index = re.fullmatch(r"(\w+)\.rows\[(\d+)\]", path).groups()
committed = json.load(open("BENCH_paper.json"))[section]["rows"][int(index)]
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
