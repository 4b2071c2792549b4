#!/bin/sh
# The sublayered stack allocates no more per op than the monolith on `bulk`
# and on `host_rr` (EXPERIMENTS.md E25). The counts repeat bit for bit
# (benchmark/check.sh), so this holds on every machine or on none: it stops
# a later change from quietly re-introducing a payload copy or a boxed
# hand-off between sublayers.
set -eu
for w in bulk host_rr; do
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --counts-only --seed 1 --workload "$w" |
        awk -v w="$w" '
            $1 == "sub.allocs_per_op" { s = $2 }
            $1 == "mono.allocs_per_op" { m = $2 }
            END {
                if (s == "" || m == "") {
                    print "alloc ratchet: " w ": counts missing" > "/dev/stderr"
                    exit 1
                }
                print w ": sub.allocs_per_op " s ", mono.allocs_per_op " m
                if (s + 0 > m + 0) {
                    print "alloc ratchet: " w ": sublayered allocates more per op than the monolith" > "/dev/stderr"
                    exit 1
                }
            }'
done
