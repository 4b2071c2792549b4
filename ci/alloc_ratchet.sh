#!/bin/sh
# Each stack allocates no more per op than its own ceiling, on every
# workload, at seed 1. The counts repeat bit for bit (benchmark/check.sh),
# so this holds on every machine or on none. A ceiling is the count this
# tree measures, rounded up at the fourth decimal:
#
#   workload     sub.allocs_per_op   mono.allocs_per_op
#   bulk         140.25              140
#   bulk_lossy   165.5904            165.3548
#   host_rr      6.0029              7.0029
#   churn        25.0035             22.0044
#
# The monolith's `bulk` and `bulk_lossy` ceilings were 146 and 272.4825
# until EXPERIMENTS.md E36, when it stopped cutting silly-window runts
# (sender SWS avoidance, as OSR does): each runt cost a frame, its
# allocation, a receive and an ack.
# Its `bulk_lossy` ceiling was 177.3135 until EXPERIMENTS.md E37, when it
# stopped copying each out-of-order segment into a `Vec` of its own and
# held it in place in its receive ring instead, as OSR does.
#
# Until EXPERIMENTS.md E32 the gate was a ratio, sub <= k x mono. Since E32
# the monolith copies a payload byte as often as the sublayered stack does
# (decoded in place, encoded from the send ring), so the two arms sit
# within 15 % of each other on `bulk`, `host_rr` and `churn`, and a ratio
# can no longer tell a regression in one arm from a gain in the other.
# Each arm now answers for itself. The ceilings stop a later change from
# quietly re-introducing a per-segment copy or a boxed or queued hand-off:
# one allocation per received data segment puts `bulk` back near 206
# (sub, before E31) or 350 (mono, before E32), one per out-of-order part
# puts `bulk_lossy` back near 177 (sub, before E33: 198.82 with the three
# such allocations it then made; mono, before E37), one per connection and
# sublayer hand-off puts `churn` back near 49 (before E27), and one per
# request or echo moves `host_rr` by 2 or more — a fresh slab per write
# puts it back at 8.0029 (before E34).
set -eu
for spec in bulk:140.25:140 bulk_lossy:165.5904:165.3548 host_rr:6.0029:7.0029 churn:25.0035:22.0044; do
    w=${spec%%:*}
    ceilings=${spec#*:}
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --counts-only --seed 1 --workload "$w" |
        awk -v w="$w" -v smax="${ceilings%:*}" -v mmax="${ceilings#*:}" '
            $1 == "sub.allocs_per_op" { s = $2 }
            $1 == "mono.allocs_per_op" { m = $2 }
            END {
                if (s == "" || m == "") {
                    print "alloc ratchet: " w ": counts missing" > "/dev/stderr"
                    exit 1
                }
                print w ": sub.allocs_per_op " s " (ceiling " smax "), mono.allocs_per_op " m " (ceiling " mmax ")"
                bad = 0
                if (s + 0 > smax + 0) {
                    print "alloc ratchet: " w ": the sublayered stack allocates " s " per op, above its ceiling " smax > "/dev/stderr"
                    bad = 1
                }
                if (m + 0 > mmax + 0) {
                    print "alloc ratchet: " w ": the monolith allocates " m " per op, above its ceiling " mmax > "/dev/stderr"
                    bad = 1
                }
                exit bad
            }'
done
