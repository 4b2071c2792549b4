#!/usr/bin/env bash
# The machine-independent gate: the exact metrics (allocations, bytes,
# connection heap, frames, crossings, retransmits per op) must repeat bit for
# bit. Runs `--counts-only` twice per seed for seeds 1 and 2 and compares the
# outputs. Exits non-zero on any difference or any failed op.
#
#   benchmark/check.sh                       # all four workloads, ~1 minute
#   benchmark/check.sh --workload host_rr    # one of them
#
# Not with --smoke: the shrunk `churn` skips the fast start that makes its
# hash tables grow at the same insertion in every process (README), so its
# allocation counts differ by an allocation or two between processes.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$here/out/check"
mkdir -p "$out"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/slbench"
for seed in 1 2; do
    for run in a b; do
        "$bin" --counts-only --seed "$seed" "$@" > "$out/counts-seed$seed-$run.txt"
    done
    cmp "$out/counts-seed$seed-a.txt" "$out/counts-seed$seed-b.txt"
    echo "seed $seed: counts repeat exactly"
done
if cmp -s "$out/counts-seed1-a.txt" "$out/counts-seed2-a.txt"; then
    echo "seeds 1 and 2 gave the same counts: the seed is not reaching the workloads" >&2
    exit 1
fi
echo "ok: $out"
