#!/usr/bin/env bash
# Tier-1 verification gate, fully offline:
#   1. formatting is canonical (cargo fmt --check)
#   2. release build of every workspace crate
#   3. scenario smoke pass: one short fault scenario per deployment shape,
#      then the crypto cross-checks (hardware vs scalar, pinned outputs) and
#      the minisql ones (pinned database files, in place vs `Node` oracle)
#   4. the whole test suite (unit + integration + property tests),
#      per package with timing so slow suites are visible; it includes
#      crates/bench/tests/artifacts.rs, which holds the committed
#      BENCH_*.json artifacts to the bounds their benches assert
#   5. examples and all six bench targets compile
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
# drive the scenario engine once per deployment shape (one group, several
# groups, groups with the cross-shard driver) plus one live split per
# elastic shape (smoke_reshard_*).
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
# Every workspace package: the first `name =` of each manifest.
packages=$(awk 'FNR == 1 { done = 0 } !done && /^name = / { gsub(/"/, "", $3); print $3; done = 1 }' \
    Cargo.toml crates/*/Cargo.toml | LC_ALL=C sort)
total0=$SECONDS
for pkg in $packages; do
    t0=$SECONDS
    cargo test -q -p "$pkg"
    echo "    [$pkg: $((SECONDS - t0))s]"
done
echo "    [all packages: $((SECONDS - total0))s]"

step cargo build --examples --benches

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets --quiet -- -D warnings

echo "==> RUSTDOCFLAGS=-D warnings cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "==> cargo test --doc"
cargo test --doc --quiet

echo "verify: OK"
