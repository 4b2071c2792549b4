#!/bin/sh
# The sublayered stack allocates at most 0.62 times what the monolith does
# per op on `bulk` (206.25 against 350 = 0.59: a segment is a view of the
# slab `Osr::write` made, EXPERIMENTS.md E26) and no more than the monolith
# on `host_rr` (10.169 against 13.169) or on `churn` (27.003 against 28.004;
# 49 against 40 before E27: five hand-off queues between the sublayers each
# grew a buffer per connection, where the monolith has one PCB). The counts
# repeat bit for bit (benchmark/check.sh), so this holds on every machine or
# on none: it stops a later change from quietly re-introducing a per-segment
# copy or a boxed or queued hand-off between sublayers — one allocation per
# data segment puts `bulk` back at 0.78, one per connection and hand-off
# puts `churn` back over the monolith.
set -eu
for spec in bulk:0.62 host_rr:1 churn:1; do
    w=${spec%:*}
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --counts-only --seed 1 --workload "$w" |
        awk -v w="$w" -v ratio="${spec#*:}" '
            $1 == "sub.allocs_per_op" { s = $2 }
            $1 == "mono.allocs_per_op" { m = $2 }
            END {
                if (s == "" || m == "") {
                    print "alloc ratchet: " w ": counts missing" > "/dev/stderr"
                    exit 1
                }
                print w ": sub.allocs_per_op " s ", mono.allocs_per_op " m ", allowed " ratio " x"
                if (s + 0 > ratio * m) {
                    print "alloc ratchet: " w ": sublayered allocates more than " ratio " x the monolith per op" > "/dev/stderr"
                    exit 1
                }
            }'
done
