#!/usr/bin/env bash
# Behaviour-preservation proof: the deterministic bench artifacts are a
# pure function of the code, so a refactor that changes no behaviour must
# regenerate them byte for byte. Re-runs the five benches that write a
# committed BENCH_*.json (~10 min, two thirds of it `cross_shard`) and fails
# if any artifact differs from the last commit.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
# The trial-count knobs change the artifacts; pin them to their defaults.
unset XSHARD_TRIALS SHARDING_TRIALS

for bench in table1 sharding availability cross_shard hotpath; do
    echo "==> cargo bench --bench $bench"
    t0=$SECONDS
    cargo bench -q -p bench --bench "$bench" >/dev/null
    echo "    [$bench: $((SECONDS - t0))s]"
done

git diff --exit-code HEAD -- 'BENCH_*.json'
echo "artifacts: byte-identical"
