#!/usr/bin/env bash
# Tier-1 verification gate, fully offline:
#   1. formatting is canonical (cargo fmt --check)
#   2. release build of every workspace crate
#   3. scenario smoke pass: one short fault scenario per cluster flavor,
#      then the crypto cross-checks (hardware vs scalar, pinned outputs) and
#      the minisql ones (pinned database files, in place vs `Node` oracle)
#   4. the whole test suite (unit + integration + property tests),
#      per package with timing so slow suites are visible
#   5. examples and all 16 bench targets compile
#   6. clippy is clean across every target (warnings are errors)
#   7. rustdoc is complete and warning-free, and the doc-examples run
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

step() {
    echo "==> $*"
    local t0=$SECONDS
    "$@"
    echo "    [$1 $2: $((SECONDS - t0))s]"
}

echo "==> cargo fmt --check"
cargo fmt --all --check

step cargo build --release

# Fast fault-scenario signal before the full suite: the smoke_* scenarios
# drive the scenario engine once per cluster flavor (single-group, sharded,
# cross-shard) plus one live split per elastic flavor (smoke_reshard_*).
echo "==> scenario smoke pass (tests/scenario_conformance.rs smoke_*)"
cargo test -q -p pbft-practicality --test scenario_conformance smoke_

# The resharding property suite is the safety argument for elastic splits
# (no key lost or double-owned, 2PC atomicity across the epoch boundary);
# run it with its own timing line so regressions in split cost are visible.
echo "==> resharding property suite (crates/harness/tests/reshard_props.rs)"
t0=$SECONDS
cargo test -q -p harness --test reshard_props
echo "    [reshard_props: $((SECONDS - t0))s]"

# The read-semantics property suite is the safety argument for the §2.1
# optimistic read path (reads return committed values under crashes, view
# changes and a live split; the read path agrees with the ordered path).
echo "==> read property suite (crates/harness/tests/read_props.rs)"
t0=$SECONDS
cargo test -q -p harness --test read_props
echo "    [read_props: $((SECONDS - t0))s]"

# The crypto cross-checks are the proof that the hardware SHA-256 path, the
# keyed-HMAC pad and the division-free polynomial produce the bits the
# scalar / allocating / `% P` code did: golden literals, NIST and RFC 4231
# vectors on both back ends, SHA-NI == scalar and MAC == reference
# properties. Release too: the intrinsics and the folds are arithmetic that
# optimisation levels touch.
echo "==> crypto cross-checks (cargo test -p pbft_crypto crosscheck, test + release profiles)"
cargo test -q -p pbft_crypto crosscheck
cargo test -q --release -p pbft_crypto crosscheck

# minisql's storage layer edits B+tree pages in place with offset arithmetic;
# the proof that it writes the bytes the parse-edit-serialize code wrote is
# `golden_*` (database file, journal/WAL file, every mutating VFS call,
# outcomes, error text and IoStats pinned from commit 0f3ba65, all three
# journal modes) and `crosscheck_*` (in place vs the `Node` oracle page for
# page; hostile pages never panic). Release too: overflow checks differ
# between the two profiles.
echo "==> minisql bytes (cargo test -p minisql -- golden_ crosscheck_, test + release profiles)"
cargo test -q -p minisql -- golden_ crosscheck_
cargo test -q --release -p minisql -- golden_ crosscheck_

echo "==> cargo test (per package, timed)"
packages=$(cargo metadata --no-deps --format-version 1 \
    | python3 -c "import json,sys; print(' '.join(sorted(p['name'] for p in json.load(sys.stdin)['packages'])))")
total0=$SECONDS
for pkg in $packages; do
    t0=$SECONDS
    cargo test -q -p "$pkg"
    echo "    [$pkg: $((SECONDS - t0))s]"
done
echo "    [all packages: $((SECONDS - total0))s]"

step cargo build --examples --benches

# The committed perf-trajectory artifacts (written by `cargo bench --bench
# table1|sharding|availability|cross_shard`) must stay parseable JSON with
# per-engine rows.
echo "==> committed bench artifacts parse (BENCH_*.json)"
python3 - <<'EOF'
import json
for name in (
    "BENCH_table1.json",
    "BENCH_sharding.json",
    "BENCH_availability.json",
    "BENCH_cross_shard.json",
    "BENCH_hotpath.json",
):
    with open(name) as f:
        doc = json.load(f)
    assert doc.get("bench"), f"{name}: missing 'bench' key"
    rows = doc.get("rows") or doc.get("scenarios")
    assert rows, f"{name}: no rows"
    engines = {r["engine"] for r in rows}
    assert len(engines) >= 1 and "pbft" in engines, f"{name}: no pbft column"
    print(f"    {name}: ok ({len(rows)} rows, engines: {', '.join(sorted(engines))})")

# The availability artifact must additionally carry the long-horizon
# reliability *distributions* (not single degraded windows): >= 1 virtual
# hour per cell, per-bucket p50/p99 and time-below-threshold, both engines.
with open("BENCH_availability.json") as f:
    doc = json.load(f)
rel = doc.get("reliability")
assert rel, "BENCH_availability.json: missing 'reliability' section"
fields = (
    "engine", "scenario", "horizon_ms", "bucket_ms", "availability",
    "tps_p50", "tps_p99", "threshold_tps", "time_below_threshold_ms",
)
for row in rel:
    for k in fields:
        assert k in row, f"reliability row missing '{k}': {row}"
    assert row["horizon_ms"] >= 3_600_000, f"sub-hour horizon: {row}"
    assert row["tps_p99"] >= row["tps_p50"] > 0, f"degenerate distribution: {row}"
assert {r["engine"] for r in rel} >= {"pbft", "linear"}, \
    "reliability section must cover both engines"
print(f"    BENCH_availability.json: reliability ok ({len(rel)} hour-long cells)")

# The cross-shard artifact must additionally carry the elastic-resharding
# cells: a 2 -> 4 live split per engine with the throughput dip and the
# client-visible time-to-recover.
with open("BENCH_cross_shard.json") as f:
    doc = json.load(f)
cells = doc.get("reshard")
assert cells, "BENCH_cross_shard.json: missing 'reshard' section"
fields = (
    "engine", "shards_before", "shards_after", "epochs", "steady_tps",
    "dip_tps", "recovered_tps", "recover_ms", "availability",
)
for row in cells:
    for k in fields:
        assert k in row, f"reshard cell missing '{k}': {row}"
    assert row["shards_before"] == 2 and row["shards_after"] == 4, f"not a 2->4 split: {row}"
    assert row["steady_tps"] > 0 and row["recovered_tps"] > 0, f"degenerate cell: {row}"
    assert row["recover_ms"] > 0, f"missing time-to-recover: {row}"
assert {r["engine"] for r in cells} >= {"pbft", "linear"}, \
    "reshard section must cover both engines"
print(f"    BENCH_cross_shard.json: reshard ok ({len(cells)} split cells)")

# The hot-path artifact must carry the full n-axis sweep — n in {4, 7, 10}
# x both engines x both paths (ordered writes and the §2.1 optimistic
# reads) — and every cell must stay inside the amortized model:
# encode-once broadcasts (encodings track logical sends, not fan-out),
# batch-amortized authenticators (MACs/op = small constant +
# O(n) per batch, not O(n) per request), and n-independent O(1) reads that
# never touch agreement.
with open("BENCH_hotpath.json") as f:
    doc = json.load(f)
rows = doc["rows"]
fields = (
    "engine", "n", "path", "tps", "avg_batch", "macs_per_op",
    "encodings_per_op", "agreement_msgs_per_op",
)
for row in rows:
    for k in fields:
        assert k in row, f"hotpath row missing '{k}': {row}"
cells = {(r["engine"], r["n"], r["path"]) for r in rows}
want = {
    (e, n, p)
    for e in ("pbft", "linear")
    for n in (4, 7, 10)
    for p in ("write", "read")
}
assert cells >= want, f"hotpath sweep incomplete, missing: {sorted(want - cells)}"
for row in rows:
    tag = f"{row['engine']} n={row['n']} {row['path']}"
    if row["path"] == "read":
        assert row["agreement_msgs_per_op"] < 0.1, \
            f"{tag}: reads leaked into agreement ({row['agreement_msgs_per_op']:.2f} msgs/op)"
        assert row["macs_per_op"] <= 3.0, \
            f"{tag}: read MACs/op {row['macs_per_op']:.2f} not O(1)"
        assert row["encodings_per_op"] <= 1.5, \
            f"{tag}: read encodings/op {row['encodings_per_op']:.2f} — a read is one reply"
    else:
        assert row["encodings_per_op"] <= 1.0 + 3.0 / row["avg_batch"], \
            f"{tag}: encodings/op {row['encodings_per_op']:.2f} not amortized over fan-out"
        assert row["macs_per_op"] <= 3.0 + 3.5 * row["n"] / row["avg_batch"], \
            f"{tag}: MACs/op {row['macs_per_op']:.2f} outside the batched-authenticator model"
print(f"    BENCH_hotpath.json: cost model ok ({len(rows)} cells, n x engine x path sweep)")

# Perf-trajectory floor: the Table 1 batch row must stay >= 1.3x the PR 8
# seed on both engines (seed tps_mean: pbft 8005.83, linear 5860.33).
with open("BENCH_table1.json") as f:
    doc = json.load(f)
floors = {
    ("sta_mac_allbig_batch", "pbft"): 1.3 * 8005.83,
    ("sta_mac_allbig_batch", "linear"): 1.3 * 5860.33,
}
seen = {}
for row in doc["rows"] + doc["engine_head_to_head"]:
    key = (row["config"], row["engine"])
    if key in floors:
        assert row["tps_mean"] >= floors[key], (
            f"trajectory regression: {key} at {row['tps_mean']:.0f} TPS, "
            f"floor {floors[key]:.0f}"
        )
        seen[key] = row["tps_mean"]
assert set(seen) == set(floors), f"batch row missing an engine: {sorted(seen)}"
for (config, engine), tps in sorted(seen.items()):
    print(f"    {config} [{engine}]: {tps:.0f} TPS >= floor {floors[(config, engine)]:.0f}")
EOF

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets --quiet -- -D warnings

echo "==> RUSTDOCFLAGS=-D warnings cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "==> cargo test --doc"
cargo test --doc --quiet

echo "verify: OK"
