#!/bin/sh
# The sublayered stack allocates at most 0.41 times what the monolith does
# per op on `bulk` (140.25 against 350 = 0.40: a segment is a view of the
# slab `Osr::write` made, EXPERIMENTS.md E26, and a received one is read
# out of its frame into OSR's read buffer without a slab of its own, E31),
# at most 0.40 times on `bulk_lossy` (198.82 against 548.29 = 0.36 at seed
# 1), at most 0.62 times on `host_rr` (8.0029 against 13.0029 = 0.615;
# 10.003 against 13.003 before E31) and at most 0.90 times on `churn`
# (25.003 against 28.004 = 0.893; 49 against 40 before E27: five hand-off
# queues between the sublayers each grew a buffer per connection, where the
# monolith has one PCB). The counts repeat bit for bit (benchmark/check.sh),
# so this holds on every machine or on none: it stops a later change from
# quietly re-introducing a per-segment copy or a boxed or queued hand-off
# between sublayers — one allocation per received data segment puts `bulk`
# back at 0.59, one per connection and hand-off puts `churn` back over the
# monolith, and one per request or echo puts `host_rr` back at 0.77.
set -eu
for spec in bulk:0.41 bulk_lossy:0.40 host_rr:0.62 churn:0.90; do
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
